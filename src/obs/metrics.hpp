/// \file
/// Lock-cheap metrics registry: named counters, gauges and fixed-bucket
/// histograms, snapshot-able to a deterministic key-sorted JSON report.
///
/// The registry is the unified answer to "where did the time go" for a
/// search campaign: every hot layer (thread pool, evaluation memo,
/// bi-level explorer, simulator, fault injector, campaign runner)
/// publishes into a process-global registry *when one is attached* and
/// does nothing otherwise. Instrumentation sites therefore cost one
/// relaxed atomic load when observability is off, which is what keeps
/// the `threads=N == threads=1` determinism suite and the tier-1 timings
/// unaffected by this subsystem.
///
/// Update paths are wait-free after the first registration of a name:
/// counters and histogram buckets are relaxed atomics, gauges are CAS
/// loops; only the name -> metric map lookup takes a (short) mutex.
/// Publishers in this repo aggregate locally and publish per *run* or
/// per *batch*, never per simulation step, so even that lock is cold.
///
/// ## Stability model
///
/// Some numbers are invariant under thread count and scheduling (cases
/// evaluated, GA generations, simulator steps) and some are not (cache
/// hit/miss splits under racy memoization, inline-batch counts, wall
/// times). Every metric is registered as either `kStable` or
/// `kVolatile`; the JSON report renders stable metrics first and
/// volatile ones under a separate "volatile" section which
/// `ReportMode::kDeterministic` omits entirely. A deterministic report
/// of a fixed-seed run is byte-identical at any thread count (histogram
/// sums, whose floating-point value depends on accumulation order, are
/// only rendered in full mode).

#ifndef CHRYSALIS_OBS_METRICS_HPP
#define CHRYSALIS_OBS_METRICS_HPP

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace chrysalis::obs {

/// Whether a metric's value is invariant under thread count/scheduling
/// for a fixed-seed run. See the file comment.
enum class Stability {
    kStable,
    kVolatile,
};

/// Monotonically increasing event count. Wait-free.
class Counter
{
  public:
    void
    add(std::uint64_t delta = 1)
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/// Last-written (or maximum) level. Lock-free CAS.
class Gauge
{
  public:
    void
    set(double value)
    {
        value_.store(value, std::memory_order_relaxed);
    }

    /// Raises the gauge to \p value if it currently reads lower.
    void
    set_max(double value)
    {
        double current = value_.load(std::memory_order_relaxed);
        while (value > current &&
               !value_.compare_exchange_weak(current, value,
                                             std::memory_order_relaxed)) {
        }
    }

    double
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram over doubles (latency/energy distributions).
/// `bounds` are the inclusive upper edges of the first N buckets; one
/// extra overflow bucket catches everything above the last bound. All
/// aggregates except `sum` are order-independent, which is why `sum` is
/// excluded from deterministic reports.
class Histogram
{
  public:
    explicit Histogram(std::vector<double> bounds);

    void record(double value);

    std::uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    const std::vector<double>& bounds() const { return bounds_; }

    /// Per-bucket counts (bounds().size() + 1 entries, last = overflow).
    std::vector<std::uint64_t> bucket_counts() const;

    double sum() const { return sum_.load(std::memory_order_relaxed); }
    double min() const;  ///< 0 when empty
    double max() const;  ///< 0 when empty

  private:
    std::vector<double> bounds_;
    std::vector<std::unique_ptr<std::atomic<std::uint64_t>>> buckets_;
    std::atomic<std::uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
    std::atomic<double> min_;
    std::atomic<double> max_;
};

/// Log-decade bucket edges from 1e-6 to 1e12; the default for score and
/// wall-time histograms whose dynamic range spans many orders.
std::vector<double> decade_bounds();

/// 1-2-5 bucket edges from 10 us to 100 s; the default for request- and
/// queue-latency histograms (serving paths) where decade buckets are
/// too coarse to read a p99 from.
std::vector<double> latency_bounds();

/// Which metrics a JSON report includes.
enum class ReportMode {
    kFull,           ///< stable + volatile sections, histogram sums
    kDeterministic,  ///< stable metrics only; byte-identical at any
                     ///< thread count for a fixed-seed run
};

/// Kind discriminator for MetricSample.
enum class MetricKind {
    kCounter,
    kGauge,
    kHistogram,
};

/// Point-in-time copy of one metric (MetricsRegistry::samples()). Only
/// the fields for its kind are meaningful; the rest stay at their
/// defaults.
struct MetricSample {
    std::string name;
    MetricKind kind = MetricKind::kCounter;
    Stability stability = Stability::kStable;
    std::uint64_t count = 0;  ///< counter value / histogram count
    double value = 0.0;       ///< gauge value
    double sum = 0.0;         ///< histogram sum (order-dependent)
    double min = 0.0;         ///< histogram min (0 when empty)
    double max = 0.0;         ///< histogram max (0 when empty)
    std::vector<double> bounds;         ///< histogram bucket edges
    std::vector<std::uint64_t> counts;  ///< bounds.size()+1, last=overflow
};

/// The value at \p quantile (in [0,1]) of a fixed-bucket histogram,
/// read from bucket counts: the inclusive upper edge of the bucket
/// where the cumulative count reaches ceil(quantile * total). Returns
/// 0 when the histogram is empty; values in the overflow bucket clamp
/// to the last finite edge (the histogram cannot resolve beyond it).
double histogram_quantile(const std::vector<double>& bounds,
                          const std::vector<std::uint64_t>& counts,
                          double quantile);

/// The registry. Metrics are created lazily on first use and live as
/// long as the registry; returned references are stable.
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry&) = delete;
    MetricsRegistry& operator=(const MetricsRegistry&) = delete;

    /// Returns (creating if needed) the named metric. fatal() if the
    /// name is already registered as a different kind or stability —
    /// that is a bug at the instrumentation site, not a user error the
    /// caller can recover from.
    Counter& counter(std::string_view name,
                     Stability stability = Stability::kStable);
    Gauge& gauge(std::string_view name,
                 Stability stability = Stability::kVolatile);
    /// \p bounds is only consulted on first registration.
    Histogram& histogram(std::string_view name, std::vector<double> bounds,
                         Stability stability = Stability::kStable);

    /// Serializes every metric as key-sorted JSON (see
    /// docs/observability.md for the schema). Deterministic: iteration
    /// is name-sorted and doubles print as "%.17g".
    std::string to_json(ReportMode mode = ReportMode::kFull) const;

    /// Point-in-time copies of every metric, name-sorted, for callers
    /// that read values directly; to_json() serializes these copies.
    std::vector<MetricSample> samples() const;

    /// Writes to_json(mode) to \p path; fatal() when the file cannot be
    /// written (bad --metrics-out argument).
    void write_json_file(const std::string& path,
                         ReportMode mode = ReportMode::kFull) const;

  private:
    enum class Kind { kCounter, kGauge, kHistogram };

    struct Entry {
        Kind kind = Kind::kCounter;
        Stability stability = Stability::kStable;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
    };

    Entry& entry_for(std::string_view name, Kind kind, Stability stability);

    mutable Mutex mutex_;
    /// std::map: name-sorted iteration gives the deterministic report
    /// order for free.
    std::map<std::string, Entry, std::less<>> entries_
        CHRYSALIS_GUARDED_BY(mutex_);
};

/// Process-global registry; nullptr (the default) disables every
/// instrumentation site. Non-owning: the caller keeps the registry
/// alive and must attach/detach while no instrumented code is running
/// concurrently (attach before spawning work, detach after joining).
MetricsRegistry* metrics();
void attach_metrics(MetricsRegistry* registry);

/// RAII attach/detach for tools and tests.
class ScopedMetrics
{
  public:
    explicit ScopedMetrics(MetricsRegistry& registry)
    {
        attach_metrics(&registry);
    }
    ~ScopedMetrics() { attach_metrics(nullptr); }
    ScopedMetrics(const ScopedMetrics&) = delete;
    ScopedMetrics& operator=(const ScopedMetrics&) = delete;
};

/// CPU time consumed by the calling thread [s]; 0.0 where unsupported.
/// Used for the campaign's per-case wall-vs-CPU accounting.
double thread_cpu_seconds();

}  // namespace chrysalis::obs

#endif  // CHRYSALIS_OBS_METRICS_HPP
