/// \file
/// Sharded, thread-safe LRU memoization cache for design evaluations.
///
/// The bi-level explorer's fitness function is pure: a (candidate, model,
/// objective, environment) tuple always evaluates to the same
/// `EvaluatedDesign`. GA variation frequently re-proposes genomes it has
/// already scored (clones that survive crossover and mutation untouched,
/// warm-start duplicates, re-runs at the same seed), so memoizing on a
/// `CacheKey` of the evaluation inputs skips entire inner
/// mapping searches. Keys are sharded across independently locked LRU
/// maps so parallel evaluators rarely contend.
///
/// Concurrency contract: `get_or_compute` may invoke the compute function
/// on two threads racing for the same key; both results are identical (the
/// function must be pure), one is cached, and each caller gets a correct
/// value. This keeps the fast path lock-free of any per-key latch. The
/// price is that the hit/miss split of a concurrent run is not
/// reproducible: callers that publish it as a deterministic figure (the
/// campaign CSV and journal) must look up from one thread, as campaign
/// cases do by running their GA serially.

#ifndef CHRYSALIS_RUNTIME_EVAL_CACHE_HPP
#define CHRYSALIS_RUNTIME_EVAL_CACHE_HPP

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/mutex.hpp"
#include "common/stable_hash.hpp"
#include "common/thread_annotations.hpp"
#include "obs/metrics.hpp"

namespace chrysalis::runtime {

/// Aggregated counters across all shards.
struct EvalCacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;      ///< lookups that found nothing
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;   ///< entries dropped by the LRU policy
    std::uint64_t entries = 0;     ///< current resident entries
    std::uint64_t capacity = 0;    ///< configured maximum entries

    /// hits / (hits + misses), 0 when no lookups happened.
    double hit_rate() const;

    /// One-line summary, e.g. "hits=120 misses=380 (24.0%) entries=380".
    std::string describe() const;

    /// Adds these (delta) counters onto \p registry under
    /// "runtime/cache/*". Volatile: two threads racing on the same key
    /// may both count a miss (see the concurrency contract above), so
    /// the split is not reproducible across thread counts.
    void publish(obs::MetricsRegistry& registry) const;
};

/// Per-interval counters: `after - before` for every monotonic field.
EvalCacheStats operator-(const EvalCacheStats& after,
                         const EvalCacheStats& before);

/// The memo. Value must be copyable; lookups return copies so cached
/// entries can never be dangled by a concurrent eviction.
template <typename Value>
class EvalCache
{
  public:
    /// \param capacity maximum resident entries (split across shards).
    /// \param shard_count independently locked partitions.
    explicit EvalCache(std::size_t capacity, std::size_t shard_count = 8)
    {
        if (shard_count == 0)
            shard_count = 1;
        if (capacity < shard_count)
            shard_count = capacity > 0 ? capacity : 1;
        shard_capacity_ =
            capacity > 0 ? (capacity + shard_count - 1) / shard_count : 1;
        shards_.reserve(shard_count);
        for (std::size_t i = 0; i < shard_count; ++i)
            shards_.push_back(std::make_unique<Shard>());
    }

    /// Returns a copy of the cached value, or nullopt on miss. Counts a
    /// hit or miss and refreshes LRU recency on hit.
    std::optional<Value>
    lookup(const CacheKey& key)
    {
        Shard& shard = shard_for(key);
        MutexLock lock(shard.mutex);
        const auto it = shard.index.find(key);
        if (it == shard.index.end()) {
            ++shard.misses;
            return std::nullopt;
        }
        ++shard.hits;
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        return it->second->second;
    }

    /// Inserts (or refreshes) a value, evicting the least recently used
    /// entry if the shard is full.
    void
    insert(const CacheKey& key, Value value)
    {
        Shard& shard = shard_for(key);
        MutexLock lock(shard.mutex);
        const auto it = shard.index.find(key);
        if (it != shard.index.end()) {
            it->second->second = std::move(value);
            shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
            return;
        }
        shard.lru.emplace_front(key, std::move(value));
        shard.index.emplace(key, shard.lru.begin());
        ++shard.insertions;
        if (shard.lru.size() > shard_capacity_) {
            shard.index.erase(shard.lru.back().first);
            shard.lru.pop_back();
            ++shard.evictions;
        }
    }

    /// Memoizing accessor: returns the cached value or computes, caches
    /// and returns it. See the file comment for the duplicate-compute
    /// race contract.
    template <typename Fn>
    Value
    get_or_compute(const CacheKey& key, Fn&& compute)
    {
        if (auto cached = lookup(key))
            return std::move(*cached);
        Value value = compute();
        insert(key, value);
        return value;
    }

    /// Aggregates counters across shards.
    EvalCacheStats
    stats() const
    {
        EvalCacheStats total;
        total.capacity = capacity();
        for (const auto& shard : shards_) {
            MutexLock lock(shard->mutex);
            total.hits += shard->hits;
            total.misses += shard->misses;
            total.insertions += shard->insertions;
            total.evictions += shard->evictions;
            total.entries += shard->lru.size();
        }
        return total;
    }

    /// Drops every entry (counters other than `entries` are preserved).
    void
    clear()
    {
        for (const auto& shard : shards_) {
            MutexLock lock(shard->mutex);
            shard->lru.clear();
            shard->index.clear();
        }
    }

    std::size_t shard_count() const { return shards_.size(); }

    /// Total capacity (shard capacity summed).
    std::size_t
    capacity() const
    {
        return shard_capacity_ * shards_.size();
    }

  private:
    struct Shard {
        mutable Mutex mutex;
        /// front = newest
        std::list<std::pair<CacheKey, Value>> lru
            CHRYSALIS_GUARDED_BY(mutex);
        std::unordered_map<CacheKey,
                           typename std::list<
                               std::pair<CacheKey, Value>>::iterator,
                           CacheKeyHash>
            index CHRYSALIS_GUARDED_BY(mutex);
        std::uint64_t hits CHRYSALIS_GUARDED_BY(mutex) = 0;
        std::uint64_t misses CHRYSALIS_GUARDED_BY(mutex) = 0;
        std::uint64_t insertions CHRYSALIS_GUARDED_BY(mutex) = 0;
        std::uint64_t evictions CHRYSALIS_GUARDED_BY(mutex) = 0;
    };

    Shard&
    shard_for(const CacheKey& key)
    {
        return *shards_[static_cast<std::size_t>(key.hi) % shards_.size()];
    }

    std::size_t shard_capacity_ = 1;
    std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace chrysalis::runtime

#endif  // CHRYSALIS_RUNTIME_EVAL_CACHE_HPP
