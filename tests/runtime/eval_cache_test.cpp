/// \file
/// Tests for the sharded LRU evaluation cache: hit/miss accounting,
/// eviction order, get_or_compute semantics and cross-thread consistency.

#include "runtime/eval_cache.hpp"

#include <atomic>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "runtime/thread_pool.hpp"

namespace chrysalis::runtime {
namespace {

CacheKey
key_of(std::uint64_t value)
{
    StableHash hash;
    hash.add(value);
    return hash.key();
}

TEST(EvalCacheTest, MissThenHit)
{
    EvalCache<int> cache(16);
    const CacheKey key = key_of(1);
    EXPECT_FALSE(cache.lookup(key).has_value());
    cache.insert(key, 42);
    const auto cached = cache.lookup(key);
    ASSERT_TRUE(cached.has_value());
    EXPECT_EQ(*cached, 42);

    const EvalCacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.insertions, 1u);
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(EvalCacheTest, GetOrComputeComputesExactlyOnceOnRepeats)
{
    EvalCache<int> cache(16);
    int computes = 0;
    const auto compute = [&] {
        ++computes;
        return 7;
    };
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(cache.get_or_compute(key_of(9), compute), 7);
    EXPECT_EQ(computes, 1);
    EXPECT_EQ(cache.stats().hits, 4u);
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(EvalCacheTest, InsertRefreshesExistingKey)
{
    EvalCache<int> cache(16);
    cache.insert(key_of(1), 10);
    cache.insert(key_of(1), 20);
    EXPECT_EQ(*cache.lookup(key_of(1)), 20);
    EXPECT_EQ(cache.stats().entries, 1u);
    EXPECT_EQ(cache.stats().insertions, 1u);  // refresh, not re-insert
}

TEST(EvalCacheTest, LruEvictionDropsColdestEntry)
{
    // Single shard so the LRU order is global and observable.
    EvalCache<int> cache(2, 1);
    cache.insert(key_of(1), 1);
    cache.insert(key_of(2), 2);
    (void)cache.lookup(key_of(1));  // make key 1 the warmest
    cache.insert(key_of(3), 3);     // evicts key 2

    EXPECT_TRUE(cache.lookup(key_of(1)).has_value());
    EXPECT_FALSE(cache.lookup(key_of(2)).has_value());
    EXPECT_TRUE(cache.lookup(key_of(3)).has_value());
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(EvalCacheTest, SharedValueOutlivesItsEviction)
{
    // The explorer's memo holds shared records: eviction drops only the
    // memo's reference, never one a caller holds.
    EvalCache<std::shared_ptr<const std::string>> cache(1);
    cache.insert(key_of(1),
                 std::make_shared<const std::string>("first record"));
    const auto held = cache.lookup(key_of(1));
    ASSERT_TRUE(held.has_value());
    cache.insert(key_of(2),
                 std::make_shared<const std::string>("second record"));
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_FALSE(cache.lookup(key_of(1)).has_value());
    ASSERT_NE(*held, nullptr);
    EXPECT_EQ(**held, "first record");
    EXPECT_EQ(held->use_count(), 1);
}

TEST(EvalCacheTest, CapacityIsBoundedUnderChurn)
{
    EvalCache<int> cache(32, 4);
    for (std::uint64_t i = 0; i < 1000; ++i)
        cache.insert(key_of(i), static_cast<int>(i));
    EXPECT_LE(cache.stats().entries, cache.capacity());
    EXPECT_GT(cache.stats().evictions, 0u);
}

TEST(EvalCacheTest, ClearDropsEntriesButKeepsCounters)
{
    EvalCache<int> cache(16);
    cache.insert(key_of(1), 1);
    (void)cache.lookup(key_of(1));
    cache.clear();
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_FALSE(cache.lookup(key_of(1)).has_value());
}

TEST(EvalCacheTest, StatsDescribeMentionsHitRate)
{
    EvalCache<int> cache(16);
    cache.insert(key_of(1), 1);
    (void)cache.lookup(key_of(1));
    (void)cache.lookup(key_of(2));
    const std::string text = cache.stats().describe();
    EXPECT_NE(text.find("hits=1"), std::string::npos);
    EXPECT_NE(text.find("misses=1"), std::string::npos);
    EXPECT_NE(text.find("50.0%"), std::string::npos);
}

TEST(EvalCacheTest, StatsDeltaSubtractsCounters)
{
    EvalCache<int> cache(16);
    cache.insert(key_of(1), 1);
    (void)cache.lookup(key_of(1));
    const EvalCacheStats before = cache.stats();
    (void)cache.lookup(key_of(1));
    (void)cache.lookup(key_of(2));
    const EvalCacheStats delta = cache.stats() - before;
    EXPECT_EQ(delta.hits, 1u);
    EXPECT_EQ(delta.misses, 1u);
}

TEST(EvalCacheTest, CrossThreadConsistency)
{
    // Hammer a small key set from every pool thread; every returned
    // value must match the key it was computed from, and the resident
    // set must respect capacity. Capacity exceeds the key set, so most
    // lookups after the first pass are hits.
    EvalCache<std::uint64_t> cache(256, 8);
    ThreadPool pool(4);
    std::atomic<int> mismatches{0};
    pool.parallel_for(2000, [&](std::size_t i) {
        const std::uint64_t id = i % 100;
        const std::uint64_t value = cache.get_or_compute(
            key_of(id), [id] { return id * 31; });
        if (value != id * 31)
            mismatches.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(mismatches.load(), 0);
    const EvalCacheStats stats = cache.stats();
    EXPECT_LE(stats.entries, cache.capacity());
    EXPECT_GT(stats.hits, 0u);
    // Every lookup either hit or missed; racing duplicate computes are
    // allowed, so misses may exceed distinct keys but totals must add up.
    EXPECT_EQ(stats.hits + stats.misses, 2000u);
}

}  // namespace
}  // namespace chrysalis::runtime
