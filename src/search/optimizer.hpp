/// \file
/// Black-box optimizers over a normalized gene vector.
///
/// The HW-level optimizer of the CHRYSALIS Explorer ("implemented ... based
/// on the open-source library Optuna and ... a genetic algorithm", §III-D)
/// is reproduced as a tournament genetic algorithm with elitism, plus
/// random-search and grid-search strategies used as exploration baselines
/// and in ablation benches. Genes live in [0, 1]^n; the caller decodes
/// them into a design point.

#ifndef CHRYSALIS_SEARCH_OPTIMIZER_HPP
#define CHRYSALIS_SEARCH_OPTIMIZER_HPP

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace chrysalis::search {

/// Fitness callback: lower is better. Genes are in [0, 1].
using FitnessFn = std::function<double(const std::vector<double>&)>;

/// Fitness callback that additionally receives the deterministic
/// evaluation index (the position the point will occupy in
/// `OptimizeResult::history`). When `OptimizerOptions::threads != 1` the
/// optimizer invokes this concurrently from pool threads, so the callback
/// must be thread-safe; the index lets callers record side products
/// (e.g. fully evaluated designs) in an order independent of thread
/// scheduling.
using IndexedFitnessFn =
    std::function<double(std::size_t index, const std::vector<double>&)>;

/// Options shared by all optimizer strategies.
struct OptimizerOptions {
    int population = 24;       ///< GA population / batch size
    int generations = 16;      ///< GA generations (budget = pop * gens)
    double crossover_rate = 0.7;
    double mutation_rate = 0.3;   ///< per-gene mutation probability
    double mutation_sigma = 0.15; ///< gaussian mutation step
    int tournament_size = 3;
    int elitism = 2;           ///< individuals copied unchanged per gen
    std::uint64_t seed = 1;
    /// Fitness-evaluation parallelism: 0 = all hardware threads, 1 =
    /// strictly serial (the historical code path). Any value yields
    /// bit-identical results for a fixed seed: all RNG is drawn on the
    /// caller thread in serial order and batches reduce in index order.
    /// Only a memoized fitness's hit/miss split may differ (two equal
    /// candidates in one parallel batch can both miss, see EvalCache),
    /// which is why campaign cases force this to 1.
    int threads = 0;
    /// Warm-start individuals injected into the initial GA population
    /// (e.g. the frozen-default design, so a search over a superset space
    /// never loses to its own subspace). Ignored by random/grid.
    std::vector<std::vector<double>> seed_genes;
};

/// One evaluated point in the optimization history.
struct EvaluatedPoint {
    std::vector<double> genes;
    double score = 0.0;
};

/// Optimization outcome.
struct OptimizeResult {
    std::vector<double> best_genes;
    double best_score = 0.0;
    int evaluations = 0;
    std::vector<EvaluatedPoint> history;  ///< every evaluated point
};

/// Strategy selector.
enum class OptimizerStrategy { kGenetic, kRandom, kGrid };

/// Short label: "ga", "random", "grid".
std::string to_string(OptimizerStrategy strategy);

/// Tournament GA with uniform crossover, gaussian mutation and elitism.
/// Fitness batches (initial population, per-generation offspring) are
/// evaluated on a runtime::ThreadPool of `opts.threads` workers.
OptimizeResult optimize_genetic(int gene_count, const OptimizerOptions& opts,
                                const IndexedFitnessFn& fitness);
OptimizeResult optimize_genetic(int gene_count, const OptimizerOptions& opts,
                                const FitnessFn& fitness);

/// Uniform random sampling with the same evaluation budget as the GA.
OptimizeResult optimize_random(int gene_count, const OptimizerOptions& opts,
                               const IndexedFitnessFn& fitness);
OptimizeResult optimize_random(int gene_count, const OptimizerOptions& opts,
                               const FitnessFn& fitness);

/// Full-factorial grid with per-dimension resolution chosen to fit the
/// budget (resolution = floor(budget^(1/n)), at least 2).
OptimizeResult optimize_grid(int gene_count, const OptimizerOptions& opts,
                             const IndexedFitnessFn& fitness);
OptimizeResult optimize_grid(int gene_count, const OptimizerOptions& opts,
                             const FitnessFn& fitness);

/// Dispatches on \p strategy.
OptimizeResult optimize(OptimizerStrategy strategy, int gene_count,
                        const OptimizerOptions& opts,
                        const IndexedFitnessFn& fitness);
OptimizeResult optimize(OptimizerStrategy strategy, int gene_count,
                        const OptimizerOptions& opts,
                        const FitnessFn& fitness);

}  // namespace chrysalis::search

#endif  // CHRYSALIS_SEARCH_OPTIMIZER_HPP
