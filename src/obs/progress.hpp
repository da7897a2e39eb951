/// \file
/// Rate-limited progress heartbeat for long-running batch work.
///
/// `run_campaign` can take minutes to hours; the ProgressReporter emits
/// periodic one-line status records — cases done/total, percentage, an
/// ETA extrapolated from throughput so far, and the retry/crash/resume
/// counts — through the logging sink at `kInform` level. With the
/// default `kWarn` threshold the heartbeat is silent; set
/// `CHRYSALIS_LOG_LEVEL=info` (or call `set_log_level`) to see it.
/// Thread-safe: campaign workers report completions concurrently.

#ifndef CHRYSALIS_OBS_PROGRESS_HPP
#define CHRYSALIS_OBS_PROGRESS_HPP

#include <chrono>
#include <cstddef>
#include <string>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace chrysalis::obs {

/// Heartbeat over a fixed amount of work items.
class ProgressReporter
{
  public:
    struct Options {
        /// Minimum seconds between heartbeat lines (0 = every event).
        /// Constructor-initialized (not a default member initializer) so
        /// the `Options()` default argument below is usable inside the
        /// still-incomplete enclosing class.
        double min_interval_s;
        Options() : min_interval_s(5.0) {}
    };

    ProgressReporter(std::string task, std::size_t total,
                     Options options = Options());

    /// Marks \p delta items finished; may emit a heartbeat line.
    void advance(std::size_t delta = 1) CHRYSALIS_EXCLUDES(mutex_);

    /// Counts an evaluation retry / a case that exhausted its retries /
    /// an item restored from a resume journal. Reflected in the
    /// heartbeat and final summary lines.
    void note_retry(std::size_t delta = 1) CHRYSALIS_EXCLUDES(mutex_);
    void note_crash() CHRYSALIS_EXCLUDES(mutex_);
    void note_restored() CHRYSALIS_EXCLUDES(mutex_);

    /// Emits the final summary line (always, regardless of the rate
    /// limit). Idempotent.
    void finish() CHRYSALIS_EXCLUDES(mutex_);

    /// Number of heartbeat/summary lines emitted so far.
    std::size_t reports_emitted() const CHRYSALIS_EXCLUDES(mutex_);

  private:
    /// Formats the current status from the guarded counters.
    std::string format_line_locked(bool final) const
        CHRYSALIS_REQUIRES(mutex_);
    /// Stamps the rate limiter and logs one line.
    void emit_locked(bool final) CHRYSALIS_REQUIRES(mutex_);

    const std::string task_;
    const std::size_t total_;
    const Options options_;
    const std::chrono::steady_clock::time_point start_;

    mutable Mutex mutex_;
    std::size_t done_ CHRYSALIS_GUARDED_BY(mutex_) = 0;
    std::size_t retries_ CHRYSALIS_GUARDED_BY(mutex_) = 0;
    std::size_t crashes_ CHRYSALIS_GUARDED_BY(mutex_) = 0;
    std::size_t restored_ CHRYSALIS_GUARDED_BY(mutex_) = 0;
    std::size_t reports_ CHRYSALIS_GUARDED_BY(mutex_) = 0;
    bool finished_ CHRYSALIS_GUARDED_BY(mutex_) = false;
    std::chrono::steady_clock::time_point last_emit_
        CHRYSALIS_GUARDED_BY(mutex_);
};

}  // namespace chrysalis::obs

#endif  // CHRYSALIS_OBS_PROGRESS_HPP
