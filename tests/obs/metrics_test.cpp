/// \file
/// Tests for the metrics registry: counter/gauge/histogram semantics,
/// concurrent updates (exercised under TSan in CI), deterministic
/// key-sorted JSON reports and the kind/stability-mismatch guard.

#include "obs/metrics.hpp"

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hpp"

namespace chrysalis::obs {
namespace {

TEST(CounterTest, StartsAtZeroAndAccumulates)
{
    MetricsRegistry registry;
    Counter& counter = registry.counter("test/events");
    EXPECT_EQ(counter.value(), 0u);
    counter.add();
    counter.add(41);
    EXPECT_EQ(counter.value(), 42u);
    // Same name returns the same metric.
    EXPECT_EQ(&registry.counter("test/events"), &counter);
}

TEST(GaugeTest, SetAndSetMax)
{
    MetricsRegistry registry;
    Gauge& gauge = registry.gauge("test/level");
    EXPECT_EQ(gauge.value(), 0.0);
    gauge.set(3.5);
    EXPECT_EQ(gauge.value(), 3.5);
    gauge.set_max(2.0);  // lower: no change
    EXPECT_EQ(gauge.value(), 3.5);
    gauge.set_max(7.0);
    EXPECT_EQ(gauge.value(), 7.0);
    gauge.set(1.0);  // plain set may lower
    EXPECT_EQ(gauge.value(), 1.0);
}

TEST(HistogramTest, BucketsCountsAndAggregates)
{
    MetricsRegistry registry;
    Histogram& histogram =
        registry.histogram("test/latency", {1.0, 10.0, 100.0});
    histogram.record(0.5);    // bucket 0 (<= 1)
    histogram.record(1.0);    // bucket 0 (inclusive upper edge)
    histogram.record(5.0);    // bucket 1
    histogram.record(1000.0); // overflow
    EXPECT_EQ(histogram.count(), 4u);
    const std::vector<std::uint64_t> counts = histogram.bucket_counts();
    ASSERT_EQ(counts.size(), 4u);  // 3 bounds + overflow
    EXPECT_EQ(counts[0], 2u);
    EXPECT_EQ(counts[1], 1u);
    EXPECT_EQ(counts[2], 0u);
    EXPECT_EQ(counts[3], 1u);
    EXPECT_DOUBLE_EQ(histogram.sum(), 1006.5);
    EXPECT_EQ(histogram.min(), 0.5);
    EXPECT_EQ(histogram.max(), 1000.0);
}

TEST(HistogramTest, EmptyHistogramReportsZeroes)
{
    MetricsRegistry registry;
    Histogram& histogram = registry.histogram("test/empty", {1.0});
    EXPECT_EQ(histogram.count(), 0u);
    EXPECT_EQ(histogram.min(), 0.0);
    EXPECT_EQ(histogram.max(), 0.0);
}

TEST(MetricsRegistryTest, ConcurrentUpdatesAreLossFree)
{
    // 8 threads hammering the same counter, a per-thread counter, a
    // gauge and a histogram; run under TSan in CI to prove the update
    // paths are race-free.
    MetricsRegistry registry;
    constexpr int kThreads = 8;
    constexpr int kIters = 2000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&registry, t] {
            Counter& shared = registry.counter("test/shared");
            Counter& own =
                registry.counter("test/own/" + std::to_string(t));
            Gauge& gauge = registry.gauge("test/high_water");
            Histogram& histogram =
                registry.histogram("test/values", decade_bounds());
            for (int i = 0; i < kIters; ++i) {
                shared.add();
                own.add();
                gauge.set_max(static_cast<double>(t * kIters + i));
                histogram.record(static_cast<double>(i % 100) + 0.5);
            }
        });
    }
    for (auto& thread : threads)
        thread.join();

    EXPECT_EQ(registry.counter("test/shared").value(),
              static_cast<std::uint64_t>(kThreads) * kIters);
    for (int t = 0; t < kThreads; ++t) {
        EXPECT_EQ(
            registry.counter("test/own/" + std::to_string(t)).value(),
            static_cast<std::uint64_t>(kIters));
    }
    EXPECT_EQ(registry.gauge("test/high_water").value(),
              static_cast<double>((kThreads - 1) * kIters + kIters - 1));
    EXPECT_EQ(registry.histogram("test/values", {}).count(),
              static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(MetricsRegistryTest, JsonIsKeySortedAndDeterministic)
{
    MetricsRegistry registry;
    // Register deliberately out of name order.
    registry.counter("zeta/count").add(2);
    registry.counter("alpha/count").add(1);
    registry.gauge("mid/gauge", Stability::kVolatile).set(0.5);

    const std::string json = registry.to_json();
    EXPECT_NE(json.find("\"schema\":\"chrysalis-metrics-v1\""),
              std::string::npos);
    // Sorted: alpha before zeta.
    EXPECT_LT(json.find("alpha/count"), json.find("zeta/count"));
    // Same registry serializes identically every time.
    EXPECT_EQ(json, registry.to_json());
}

TEST(MetricsRegistryTest, DeterministicModeOmitsVolatileMetrics)
{
    MetricsRegistry registry;
    registry.counter("stable/count").add(1);
    registry.counter("racy/count", Stability::kVolatile).add(1);
    registry.gauge("racy/gauge").set(9.0);
    registry.histogram("stable/hist", {1.0}).record(0.25);
    registry.histogram("racy/hist", {1.0}, Stability::kVolatile)
        .record(0.5);

    const std::string deterministic =
        registry.to_json(ReportMode::kDeterministic);
    EXPECT_NE(deterministic.find("stable/count"), std::string::npos);
    EXPECT_NE(deterministic.find("stable/hist"), std::string::npos);
    EXPECT_EQ(deterministic.find("racy/count"), std::string::npos);
    EXPECT_EQ(deterministic.find("racy/gauge"), std::string::npos);
    EXPECT_EQ(deterministic.find("racy/hist"), std::string::npos);
    // Histogram sums are accumulation-order dependent, so they are only
    // rendered for the volatile group (full mode); the stable section is
    // byte-identical in both modes.
    EXPECT_EQ(deterministic.find("\"sum\""), std::string::npos);
    EXPECT_NE(registry.to_json(ReportMode::kFull).find("\"sum\""),
              std::string::npos);
}

TEST(MetricsRegistryTest, KindMismatchIsFatal)
{
    MetricsRegistry registry;
    registry.counter("test/name");
    FatalThrowGuard guard;
    EXPECT_THROW(registry.gauge("test/name"), FatalError);
    EXPECT_THROW(registry.histogram("test/name", {1.0}), FatalError);
}

TEST(MetricsRegistryTest, StabilityMismatchIsFatal)
{
    MetricsRegistry registry;
    registry.counter("test/name", Stability::kStable);
    FatalThrowGuard guard;
    EXPECT_THROW(registry.counter("test/name", Stability::kVolatile),
                 FatalError);
}

TEST(GlobalRegistryTest, ScopedAttachDetach)
{
    EXPECT_EQ(metrics(), nullptr);
    {
        MetricsRegistry registry;
        ScopedMetrics scope(registry);
        ASSERT_EQ(metrics(), &registry);
        metrics()->counter("test/attached").add();
        EXPECT_EQ(registry.counter("test/attached").value(), 1u);
    }
    EXPECT_EQ(metrics(), nullptr);
}

TEST(DecadeBoundsTest, SpansMicroToTera)
{
    const std::vector<double> bounds = decade_bounds();
    ASSERT_FALSE(bounds.empty());
    EXPECT_DOUBLE_EQ(bounds.front(), 1e-6);
    EXPECT_DOUBLE_EQ(bounds.back(), 1e12);
    for (std::size_t i = 1; i < bounds.size(); ++i)
        EXPECT_GT(bounds[i], bounds[i - 1]);
}

TEST(HistogramQuantileTest, ResolvesBucketUpperEdges)
{
    const std::vector<double> bounds = {0.001, 0.01, 0.1, 1.0};
    // 10 in (.., 0.001], 85 in (0.001, 0.01], 4 in (0.01, 0.1],
    // 1 in (0.1, 1.0], 0 overflow.
    const std::vector<std::uint64_t> counts = {10, 85, 4, 1, 0};
    EXPECT_DOUBLE_EQ(histogram_quantile(bounds, counts, 0.05), 0.001);
    EXPECT_DOUBLE_EQ(histogram_quantile(bounds, counts, 0.5), 0.01);
    EXPECT_DOUBLE_EQ(histogram_quantile(bounds, counts, 0.95), 0.01);
    EXPECT_DOUBLE_EQ(histogram_quantile(bounds, counts, 0.99), 0.1);
    EXPECT_DOUBLE_EQ(histogram_quantile(bounds, counts, 1.0), 1.0);
    EXPECT_DOUBLE_EQ(histogram_quantile(bounds, counts, 0.0), 0.001);
}

TEST(HistogramQuantileTest, EmptyAndOverflowEdgeCases)
{
    EXPECT_DOUBLE_EQ(histogram_quantile({1.0}, {0, 0}, 0.5), 0.0);
    EXPECT_DOUBLE_EQ(histogram_quantile({}, {}, 0.5), 0.0);
    // All mass in the overflow bucket clamps to the last finite edge —
    // the histogram cannot resolve beyond it.
    EXPECT_DOUBLE_EQ(histogram_quantile({1.0, 2.0}, {0, 0, 7}, 0.5),
                     2.0);
}

TEST(HistogramQuantileTest, MatchesServerStatsUsage)
{
    // The serve path computes p50/p95/p99 from a live histogram's
    // bucket counts; quantiles must land on recorded buckets' edges.
    Histogram histogram(latency_bounds());
    for (int i = 0; i < 99; ++i)
        histogram.record(0.0005);
    histogram.record(5.0);
    const std::vector<std::uint64_t> counts = histogram.bucket_counts();
    const double p50 =
        histogram_quantile(histogram.bounds(), counts, 0.5);
    const double p99 =
        histogram_quantile(histogram.bounds(), counts, 0.99);
    EXPECT_LE(p50, 0.001);
    EXPECT_LE(p99, 0.001);
    const double p100 =
        histogram_quantile(histogram.bounds(), counts, 1.0);
    EXPECT_GE(p100, 5.0);
}

TEST(SamplesTest, CopiesEveryMetricInNameOrder)
{
    MetricsRegistry registry;
    registry.histogram("c/lat", {1.0, 2.0}).record(1.5);
    registry.gauge("b/level").set(2.5);
    registry.counter("a/count").add(4);
    const std::vector<MetricSample> samples = registry.samples();
    ASSERT_EQ(samples.size(), 3u);
    EXPECT_EQ(samples[0].name, "a/count");
    EXPECT_EQ(samples[0].kind, MetricKind::kCounter);
    EXPECT_EQ(samples[0].count, 4u);
    EXPECT_EQ(samples[1].name, "b/level");
    EXPECT_EQ(samples[1].kind, MetricKind::kGauge);
    EXPECT_EQ(samples[1].value, 2.5);
    EXPECT_EQ(samples[2].name, "c/lat");
    EXPECT_EQ(samples[2].kind, MetricKind::kHistogram);
    EXPECT_EQ(samples[2].count, 1u);
    EXPECT_EQ(samples[2].counts, (std::vector<std::uint64_t>{0, 1, 0}));
}

TEST(ThreadCpuSecondsTest, MonotonicOnThisThread)
{
    const double before = thread_cpu_seconds();
    // Burn a little CPU so the clock visibly advances where supported.
    volatile double sink = 0.0;
    for (int i = 0; i < 200000; ++i)
        sink = sink + static_cast<double>(i) * 1e-9;
    const double after = thread_cpu_seconds();
    EXPECT_GE(after, before);
}

}  // namespace
}  // namespace chrysalis::obs
