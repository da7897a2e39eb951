/// \file
/// Records every point an optimizer evaluates, through its indexed
/// fitness: the optimizers return only their best point or front, so
/// tests that inspect each evaluation keep their own log.

#ifndef CHRYSALIS_TESTS_SEARCH_EVALUATION_LOG_HPP
#define CHRYSALIS_TESTS_SEARCH_EVALUATION_LOG_HPP

#include <cstddef>
#include <mutex>
#include <vector>

namespace chrysalis::search {

/// One evaluation: the genes scored and the fitness value returned.
template <typename Value>
struct LoggedEvaluation {
    std::vector<double> genes;
    Value value{};
};

/// Each evaluation stored at its evaluation index. Safe to fill from
/// the optimizer's pool threads.
template <typename Value>
class EvaluationLog
{
  public:
    /// Wraps \p fitness (genes -> Value) as an indexed fitness that
    /// logs each call; the log must outlive the optimizer run.
    template <typename Fitness>
    auto wrap(Fitness fitness)
    {
        return [this, fitness](std::size_t index,
                               const std::vector<double>& genes) {
            const Value value = fitness(genes);
            std::lock_guard<std::mutex> lock(mutex_);
            if (entries_.size() <= index)
                entries_.resize(index + 1);
            entries_[index] = {genes, value};
            return value;
        };
    }

    const std::vector<LoggedEvaluation<Value>>& entries() const
    {
        return entries_;
    }

  private:
    std::mutex mutex_;
    std::vector<LoggedEvaluation<Value>> entries_;
};

}  // namespace chrysalis::search

#endif  // CHRYSALIS_TESTS_SEARCH_EVALUATION_LOG_HPP
