#include "obs/progress.hpp"

#include <cmath>
#include <sstream>

#include "common/logging.hpp"

namespace chrysalis::obs {

namespace {

/// Compact duration: "42s", "3.5m", "2.1h".
std::string
format_duration(double seconds)
{
    std::ostringstream os;
    os.precision(3);
    if (seconds < 60.0)
        os << std::round(seconds) << 's';
    else if (seconds < 3600.0)
        os << std::round(seconds / 6.0) / 10.0 << 'm';
    else
        os << std::round(seconds / 360.0) / 10.0 << 'h';
    return os.str();
}

}  // namespace

ProgressReporter::ProgressReporter(std::string task, std::size_t total,
                                   Options options)
    : task_(std::move(task)), total_(total), options_(options),
      start_(std::chrono::steady_clock::now()), last_emit_(start_)
{
    if (!(options_.min_interval_s >= 0.0))
        fatal("ProgressReporter: min_interval_s must be >= 0, got ",
              options_.min_interval_s);
}

void
ProgressReporter::advance(std::size_t delta)
{
    MutexLock lock(mutex_);
    done_ += delta;
    const auto now = std::chrono::steady_clock::now();
    const double since_last =
        std::chrono::duration<double>(now - last_emit_).count();
    // The last item's line is finish()'s job, so a campaign never logs
    // the same 100% state twice.
    if (done_ < total_ && since_last >= options_.min_interval_s)
        emit_locked(false);
}

void
ProgressReporter::note_retry(std::size_t delta)
{
    MutexLock lock(mutex_);
    retries_ += delta;
}

void
ProgressReporter::note_crash()
{
    MutexLock lock(mutex_);
    ++crashes_;
}

void
ProgressReporter::note_restored()
{
    MutexLock lock(mutex_);
    ++restored_;
}

void
ProgressReporter::finish()
{
    MutexLock lock(mutex_);
    if (finished_)
        return;
    finished_ = true;
    emit_locked(true);
}

std::size_t
ProgressReporter::reports_emitted() const
{
    MutexLock lock(mutex_);
    return reports_;
}

std::string
ProgressReporter::format_line_locked(bool final) const
{
    const auto now = std::chrono::steady_clock::now();
    const double elapsed =
        std::chrono::duration<double>(now - start_).count();
    std::ostringstream os;
    os << task_ << ": " << done_ << '/' << total_;
    if (total_ > 0) {
        os << " ("
           << std::llround(100.0 * static_cast<double>(done_) /
                           static_cast<double>(total_))
           << "%)";
    }
    if (final) {
        os << " done in " << format_duration(elapsed);
    } else {
        // ETA from throughput so far; journal-restored items finish in
        // microseconds, so exclude them from the rate estimate.
        const std::size_t worked = done_ > restored_ ? done_ - restored_ : 0;
        if (worked > 0 && done_ < total_) {
            const double rate = static_cast<double>(worked) / elapsed;
            const double eta =
                static_cast<double>(total_ - done_) / rate;
            os << " eta " << format_duration(eta);
        }
    }
    if (retries_ > 0)
        os << " retries=" << retries_;
    if (crashes_ > 0)
        os << " crashed=" << crashes_;
    if (restored_ > 0)
        os << " restored=" << restored_;
    return os.str();
}

void
ProgressReporter::emit_locked(bool final)
{
    last_emit_ = std::chrono::steady_clock::now();
    ++reports_;
    inform(format_line_locked(final));
}

}  // namespace chrysalis::obs
