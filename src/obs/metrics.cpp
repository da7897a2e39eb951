#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>

#include "common/flat_json.hpp"
#include "common/logging.hpp"
#include "common/string_utils.hpp"

#if defined(__linux__)
#include <time.h>
#endif

namespace chrysalis::obs {

namespace {

std::atomic<MetricsRegistry*> g_metrics{nullptr};

const char*
kind_name(bool counter, bool gauge)
{
    return counter ? "counter" : gauge ? "gauge" : "histogram";
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity())
{
    if (!std::is_sorted(bounds_.begin(), bounds_.end()))
        fatal("Histogram: bucket bounds must be sorted ascending");
    buckets_.reserve(bounds_.size() + 1);
    for (std::size_t i = 0; i < bounds_.size() + 1; ++i)
        buckets_.push_back(std::make_unique<std::atomic<std::uint64_t>>(0));
}

void
Histogram::record(double value)
{
    const auto it =
        std::lower_bound(bounds_.begin(), bounds_.end(), value);
    const auto bucket = static_cast<std::size_t>(it - bounds_.begin());
    buckets_[bucket]->fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);

    double sum = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(sum, sum + value,
                                       std::memory_order_relaxed)) {
    }
    double current = min_.load(std::memory_order_relaxed);
    while (value < current &&
           !min_.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
    }
    current = max_.load(std::memory_order_relaxed);
    while (value > current &&
           !max_.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
    }
}

std::vector<std::uint64_t>
Histogram::bucket_counts() const
{
    std::vector<std::uint64_t> counts;
    counts.reserve(buckets_.size());
    for (const auto& bucket : buckets_)
        counts.push_back(bucket->load(std::memory_order_relaxed));
    return counts;
}

double
Histogram::min() const
{
    return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double
Histogram::max() const
{
    return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

std::vector<double>
decade_bounds()
{
    std::vector<double> bounds;
    for (int exponent = -6; exponent <= 12; ++exponent)
        bounds.push_back(std::pow(10.0, exponent));
    return bounds;
}

std::vector<double>
latency_bounds()
{
    std::vector<double> bounds;
    for (int exponent = -5; exponent <= 1; ++exponent) {
        for (const double mantissa : {1.0, 2.0, 5.0})
            bounds.push_back(mantissa * std::pow(10.0, exponent));
    }
    bounds.push_back(100.0);
    return bounds;
}

MetricsRegistry::Entry&
MetricsRegistry::entry_for(std::string_view name, Kind kind,
                           Stability stability)
{
    MutexLock lock(mutex_);
    const auto it = entries_.find(name);
    if (it != entries_.end()) {
        if (it->second.kind != kind) {
            fatal("MetricsRegistry: metric '", name,
                  "' already registered as a ",
                  kind_name(it->second.kind == Kind::kCounter,
                            it->second.kind == Kind::kGauge),
                  ", now requested as a ",
                  kind_name(kind == Kind::kCounter, kind == Kind::kGauge),
                  " — instrumentation sites must agree on a metric's kind");
        }
        if (it->second.stability != stability) {
            fatal("MetricsRegistry: metric '", name,
                  "' re-registered with a different stability — a metric "
                  "is either reproducible across thread counts or not");
        }
        return it->second;
    }
    Entry entry;
    entry.kind = kind;
    entry.stability = stability;
    switch (kind) {
      case Kind::kCounter:
        entry.counter = std::make_unique<Counter>();
        break;
      case Kind::kGauge:
        entry.gauge = std::make_unique<Gauge>();
        break;
      case Kind::kHistogram:
        break;  // constructed by histogram(), which has the bounds
    }
    return entries_.emplace(std::string(name), std::move(entry))
        .first->second;
}

Counter&
MetricsRegistry::counter(std::string_view name, Stability stability)
{
    return *entry_for(name, Kind::kCounter, stability).counter;
}

Gauge&
MetricsRegistry::gauge(std::string_view name, Stability stability)
{
    return *entry_for(name, Kind::kGauge, stability).gauge;
}

Histogram&
MetricsRegistry::histogram(std::string_view name, std::vector<double> bounds,
                           Stability stability)
{
    Entry& entry = entry_for(name, Kind::kHistogram, stability);
    // First registration constructs with this caller's bounds; later
    // callers' bounds are ignored (the name identifies the metric).
    MutexLock lock(mutex_);
    if (!entry.histogram)
        entry.histogram = std::make_unique<Histogram>(std::move(bounds));
    return *entry.histogram;
}

std::vector<MetricSample>
MetricsRegistry::samples() const
{
    // Snapshot under the registration lock: values keep ticking while we
    // read (each read is an independent relaxed load — the report is a
    // consistent *per-metric* snapshot, which is all a post-run report
    // needs), but the map itself must not be mutated mid-iteration.
    MutexLock lock(mutex_);
    std::vector<MetricSample> samples;
    samples.reserve(entries_.size());
    for (const auto& [name, entry] : entries_) {
        MetricSample sample;
        sample.name = name;
        sample.stability = entry.stability;
        switch (entry.kind) {
          case Kind::kCounter:
            sample.kind = MetricKind::kCounter;
            sample.count = entry.counter->value();
            break;
          case Kind::kGauge:
            sample.kind = MetricKind::kGauge;
            sample.value = entry.gauge->value();
            break;
          case Kind::kHistogram:
            if (!entry.histogram)
                continue;  // registered but never constructed
            sample.kind = MetricKind::kHistogram;
            sample.count = entry.histogram->count();
            sample.sum = entry.histogram->sum();
            sample.min = entry.histogram->min();
            sample.max = entry.histogram->max();
            sample.bounds = entry.histogram->bounds();
            sample.counts = entry.histogram->bucket_counts();
            break;
        }
        samples.push_back(std::move(sample));
    }
    return samples;
}

namespace {

/// Serializes \p samples, name-sorted as MetricsRegistry::samples()
/// returns them, as a `chrysalis-metrics-v1` document.
std::string
samples_to_json(const std::vector<MetricSample>& samples, ReportMode mode)
{
    std::string out = "{";
    const auto open_object = [&out](std::string_view name) {
        json_append_key(out, name);
        out += '{';
    };
    const auto append_array = [&out](std::string_view name,
                                     const auto& values, auto format) {
        json_append_key(out, name);
        out += '[';
        for (std::size_t i = 0; i < values.size(); ++i) {
            if (i > 0)
                out += ',';
            out += format(values[i]);
        }
        out += ']';
    };
    const auto write_group = [&](std::string_view name, Stability stability,
                                 bool with_sums) {
        const auto in_group = [stability](const MetricSample& sample,
                                          MetricKind kind) {
            return sample.kind == kind && sample.stability == stability;
        };
        open_object(name);
        open_object("counters");
        for (const auto& sample : samples) {
            if (in_group(sample, MetricKind::kCounter))
                json_append_uint64(out, sample.name, sample.count);
        }
        out += '}';
        open_object("gauges");
        for (const auto& sample : samples) {
            if (in_group(sample, MetricKind::kGauge))
                json_append_double(out, sample.name, sample.value);
        }
        out += '}';
        open_object("histograms");
        for (const auto& sample : samples) {
            if (!in_group(sample, MetricKind::kHistogram))
                continue;
            open_object(sample.name);
            json_append_uint64(out, "count", sample.count);
            if (with_sums)
                json_append_double(out, "sum", sample.sum);
            json_append_double(out, "min", sample.min);
            json_append_double(out, "max", sample.max);
            append_array("bounds", sample.bounds, format_double_17g);
            append_array("counts", sample.counts, [](std::uint64_t count) {
                return std::to_string(count);
            });
            out += '}';
        }
        out += "}}";
    };

    json_append_field(out, "schema", "chrysalis-metrics-v1");
    // Stable metrics never include order-dependent sums, so the stable
    // section is byte-identical at any thread count even in full mode.
    write_group("stable", Stability::kStable, /*with_sums=*/false);
    if (mode == ReportMode::kFull)
        write_group("volatile", Stability::kVolatile, /*with_sums=*/true);
    out += "}\n";
    return out;
}

}  // namespace

double
histogram_quantile(const std::vector<double>& bounds,
                   const std::vector<std::uint64_t>& counts,
                   double quantile)
{
    std::uint64_t total = 0;
    for (const std::uint64_t c : counts)
        total += c;
    if (total == 0 || bounds.empty())
        return 0.0;
    const double clamped = std::min(std::max(quantile, 0.0), 1.0);
    // Rank of the quantile observation, 1-based: ceil(q * total).
    std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(clamped * static_cast<double>(total)));
    if (rank == 0)
        rank = 1;
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        cumulative += counts[i];
        if (cumulative >= rank) {
            // The overflow bucket has no upper edge; clamp to the last
            // finite one — the histogram cannot resolve beyond it.
            return i < bounds.size() ? bounds[i] : bounds.back();
        }
    }
    return bounds.back();
}

std::string
MetricsRegistry::to_json(ReportMode mode) const
{
    return samples_to_json(samples(), mode);
}

void
MetricsRegistry::write_json_file(const std::string& path,
                                 ReportMode mode) const
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        fatal("MetricsRegistry: cannot open '", path, "' for writing");
    out << to_json(mode);
    out.flush();
    if (!out)
        fatal("MetricsRegistry: failed writing metrics report to '", path,
              "'");
}

MetricsRegistry*
metrics()
{
    return g_metrics.load(std::memory_order_acquire);
}

void
attach_metrics(MetricsRegistry* registry)
{
    g_metrics.store(registry, std::memory_order_release);
}

double
thread_cpu_seconds()
{
#if defined(__linux__)
    timespec ts{};
    if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
        return static_cast<double>(ts.tv_sec) +
               static_cast<double>(ts.tv_nsec) * 1e-9;
    }
#endif
    return 0.0;
}

}  // namespace chrysalis::obs
