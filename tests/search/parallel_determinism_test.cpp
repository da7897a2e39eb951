/// \file
/// Determinism contract of the parallel runtime: for a fixed seed, every
/// search path (GA, random, grid, NSGA-II, bi-level explorer, campaign)
/// must produce bit-identical results at any thread count, with or
/// without the evaluation memo. This is what licenses turning on
/// `threads = hardware_concurrency()` by default.

#include <cmath>
#include <memory>
#include <mutex>
#include <sstream>

#include <gtest/gtest.h>

#include "core/campaign.hpp"
#include "core/campaign_spec.hpp"
#include "dnn/model_zoo.hpp"
#include "search/bilevel_explorer.hpp"
#include "search/nsga2.hpp"
#include "search/optimizer.hpp"

namespace chrysalis::search {
namespace {

/// Pure, thread-safe synthetic fitness with several local minima.
double
synthetic_fitness(const std::vector<double>& genes)
{
    double score = 0.0;
    for (std::size_t g = 0; g < genes.size(); ++g) {
        const double x = genes[g] - 0.3 * static_cast<double>(g + 1) / 4.0;
        score += x * x + 0.1 * std::cos(20.0 * x);
    }
    return score;
}

OptimizerOptions
small_options(int threads)
{
    OptimizerOptions opts;
    opts.population = 12;
    opts.generations = 6;
    opts.seed = 77;
    opts.threads = threads;
    return opts;
}

void
expect_identical(const OptimizeResult& serial,
                 const OptimizeResult& parallel)
{
    EXPECT_EQ(serial.evaluations, parallel.evaluations);
    EXPECT_EQ(serial.best_score, parallel.best_score);
    EXPECT_EQ(serial.best_genes, parallel.best_genes);
    ASSERT_EQ(serial.history.size(), parallel.history.size());
    for (std::size_t i = 0; i < serial.history.size(); ++i) {
        EXPECT_EQ(serial.history[i].score, parallel.history[i].score) << i;
        EXPECT_EQ(serial.history[i].genes, parallel.history[i].genes) << i;
    }
}

TEST(ParallelDeterminismTest, GeneticMatchesSerialAtFourThreads)
{
    const auto serial =
        optimize_genetic(4, small_options(1), synthetic_fitness);
    const auto parallel =
        optimize_genetic(4, small_options(4), synthetic_fitness);
    expect_identical(serial, parallel);
}

TEST(ParallelDeterminismTest, RandomMatchesSerialAtFourThreads)
{
    const auto serial =
        optimize_random(4, small_options(1), synthetic_fitness);
    const auto parallel =
        optimize_random(4, small_options(4), synthetic_fitness);
    expect_identical(serial, parallel);
}

TEST(ParallelDeterminismTest, GridMatchesSerialAtFourThreads)
{
    const auto serial =
        optimize_grid(3, small_options(1), synthetic_fitness);
    const auto parallel =
        optimize_grid(3, small_options(4), synthetic_fitness);
    expect_identical(serial, parallel);
}

TEST(ParallelDeterminismTest, IndexedFitnessSeesSequentialIndices)
{
    // Indices must be the position in history, regardless of threads.
    std::mutex mutex;
    std::vector<int> seen(12 * 6, 0);
    const IndexedFitnessFn fitness =
        [&](std::size_t index, const std::vector<double>& genes) {
            {
                std::lock_guard<std::mutex> lock(mutex);
                EXPECT_LT(index, seen.size());
                if (index < seen.size())
                    ++seen[index];
            }
            return synthetic_fitness(genes);
        };
    const auto result = optimize_genetic(4, small_options(4), fitness);
    EXPECT_EQ(result.evaluations, static_cast<int>(result.history.size()));
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(result.evaluations); ++i)
        EXPECT_EQ(seen[i], 1) << i;
}

TEST(ParallelDeterminismTest, Nsga2MatchesSerialAtFourThreads)
{
    const BiFitnessFn fitness = [](const std::vector<double>& genes) {
        return std::array<double, 2>{synthetic_fitness(genes),
                                     1.0 - genes[0]};
    };
    const auto serial = optimize_nsga2(3, small_options(1), fitness);
    const auto parallel = optimize_nsga2(3, small_options(4), fitness);
    EXPECT_EQ(serial.evaluations, parallel.evaluations);
    ASSERT_EQ(serial.front.size(), parallel.front.size());
    for (std::size_t i = 0; i < serial.front.size(); ++i) {
        EXPECT_EQ(serial.front[i].genes, parallel.front[i].genes) << i;
        EXPECT_EQ(serial.front[i].objectives,
                  parallel.front[i].objectives)
            << i;
    }
    ASSERT_EQ(serial.history.size(), parallel.history.size());
    for (std::size_t i = 0; i < serial.history.size(); ++i)
        EXPECT_EQ(serial.history[i].objectives,
                  parallel.history[i].objectives)
            << i;
}

ExplorerOptions
explorer_options(int threads, std::size_t cache_capacity)
{
    ExplorerOptions options;
    options.outer.population = 8;
    options.outer.generations = 4;
    options.outer.seed = 11;
    options.outer.threads = threads;
    options.inner.max_candidates_per_dim = 4;
    options.cache_capacity = cache_capacity;
    return options;
}

void
expect_identical_exploration(const ExplorationResult& a,
                             const ExplorationResult& b)
{
    EXPECT_EQ(a.evaluations, b.evaluations);
    EXPECT_EQ(a.best.score, b.best.score);
    EXPECT_EQ(a.best.candidate.solar_cm2, b.best.candidate.solar_cm2);
    EXPECT_EQ(a.best.candidate.capacitance_f,
              b.best.candidate.capacitance_f);
    ASSERT_EQ(a.history.size(), b.history.size());
    for (std::size_t i = 0; i < a.history.size(); ++i) {
        EXPECT_EQ(a.history[i].score, b.history[i].score) << i;
        EXPECT_EQ(a.history[i].mean_latency_s, b.history[i].mean_latency_s)
            << i;
    }
    ASSERT_EQ(a.pareto.size(), b.pareto.size());
    for (std::size_t i = 0; i < a.pareto.size(); ++i) {
        EXPECT_EQ(a.pareto[i].x, b.pareto[i].x) << i;
        EXPECT_EQ(a.pareto[i].y, b.pareto[i].y) << i;
        EXPECT_EQ(a.pareto[i].tag, b.pareto[i].tag) << i;
    }
}

TEST(ParallelDeterminismTest, ExplorerMatchesSerialAtFourThreads)
{
    const dnn::Model model = dnn::make_simple_conv();
    const Objective objective{ObjectiveKind::kLatSp, 0.0, 0.0};
    const BiLevelExplorer serial(model, DesignSpace::existing_aut(),
                                 objective, explorer_options(1, 1024));
    const BiLevelExplorer parallel(model, DesignSpace::existing_aut(),
                                   objective, explorer_options(4, 1024));
    expect_identical_exploration(serial.explore(), parallel.explore());
}

TEST(ParallelDeterminismTest, ExplorerCacheDoesNotChangeResults)
{
    const dnn::Model model = dnn::make_simple_conv();
    const Objective objective{ObjectiveKind::kLatSp, 0.0, 0.0};
    const BiLevelExplorer cached(model, DesignSpace::existing_aut(),
                                 objective, explorer_options(1, 1024));
    const BiLevelExplorer uncached(model, DesignSpace::existing_aut(),
                                   objective, explorer_options(1, 0));
    expect_identical_exploration(cached.explore(), uncached.explore());
}

TEST(ParallelDeterminismTest, ExplorerParetoMatchesSerialAtFourThreads)
{
    const dnn::Model model = dnn::make_simple_conv();
    const Objective objective{ObjectiveKind::kLatSp, 0.0, 0.0};
    const BiLevelExplorer serial(model, DesignSpace::existing_aut(),
                                 objective, explorer_options(1, 1024));
    const BiLevelExplorer parallel(model, DesignSpace::existing_aut(),
                                   objective, explorer_options(4, 1024));
    const auto front_serial = serial.explore_pareto();
    const auto front_parallel = parallel.explore_pareto();
    ASSERT_EQ(front_serial.size(), front_parallel.size());
    for (std::size_t i = 0; i < front_serial.size(); ++i) {
        EXPECT_EQ(front_serial[i].score, front_parallel[i].score) << i;
        EXPECT_EQ(front_serial[i].mean_latency_s,
                  front_parallel[i].mean_latency_s)
            << i;
    }
}

TEST(ParallelDeterminismTest, CacheHitsOnDuplicateGenomes)
{
    // Duplicate warm starts guarantee repeated genomes in the initial GA
    // population; surviving clones add more during variation.
    const dnn::Model model = dnn::make_simple_conv();
    const Objective objective{ObjectiveKind::kLatSp, 0.0, 0.0};
    const BiLevelExplorer explorer(model, DesignSpace::existing_aut(),
                                   objective, explorer_options(2, 1024));
    const auto defaults = explorer.space().defaults;
    const auto result = explorer.explore({defaults, defaults});
    EXPECT_GT(result.cache.hits, 0u);
    EXPECT_GT(result.cache.misses, 0u);
    EXPECT_GT(result.cache.hit_rate(), 0.0);
}

TEST(ParallelDeterminismTest, RepeatedExploreIsServedFromCache)
{
    // Same seed => identical genome stream => the second run's unique
    // designs are all memo hits (clone hits already occur within run 1).
    const dnn::Model model = dnn::make_simple_conv();
    const Objective objective{ObjectiveKind::kLatSp, 0.0, 0.0};
    const BiLevelExplorer explorer(model, DesignSpace::existing_aut(),
                                   objective, explorer_options(1, 4096));
    const auto first = explorer.explore();
    const auto second = explorer.explore();
    EXPECT_EQ(second.cache.misses, 0u);
    EXPECT_EQ(second.cache.hits,
              static_cast<std::uint64_t>(second.evaluations));
    expect_identical_exploration(first, second);
}

TEST(ParallelDeterminismTest, CampaignMatchesSerialAtTwoThreads)
{
    // `chrysalis_cli campaign --model kws --cases 24 --population 4
    // --generations 2`, whose case kws-sp-11 proposes a duplicate
    // candidate within one fitness batch. The base options ask for a
    // 4-thread GA: were it honoured when the campaign runs cases on the
    // caller (threads = 1), both duplicates could miss the memo, and
    // the hit/miss split — a deterministic CSV column — would depend on
    // the campaign's thread count.
    core::CampaignSpec spec;
    spec.cases = 24;
    spec.population = 4;
    spec.generations = 2;
    const std::vector<core::CampaignCase> cases =
        core::build_campaign_cases(spec, dnn::make_model(spec.model));
    std::unique_ptr<fault::FaultInjector> faults;
    ExplorerOptions base = core::build_explorer_options(spec, faults);
    base.outer.threads = 4;

    const auto serial = core::run_campaign(cases, base);
    core::CampaignOptions campaign_options;
    campaign_options.threads = 2;
    const auto parallel =
        core::run_campaign(cases, base, campaign_options);
    ASSERT_EQ(serial.entries.size(), parallel.entries.size());
    for (std::size_t i = 0; i < serial.entries.size(); ++i) {
        const auto& a = serial.entries[i];
        const auto& b = parallel.entries[i];
        EXPECT_EQ(a.label, b.label);
        EXPECT_EQ(a.solution.score, b.solution.score) << a.label;
        EXPECT_EQ(a.solution.mean_latency_s, b.solution.mean_latency_s)
            << a.label;
        EXPECT_EQ(a.solution.evaluations, b.solution.evaluations)
            << a.label;
        EXPECT_EQ(a.solution.cache_hits, b.solution.cache_hits) << a.label;
        EXPECT_EQ(a.solution.cache_misses, b.solution.cache_misses)
            << a.label;
        EXPECT_GE(b.wall_time_s, 0.0);
    }
    EXPECT_GE(parallel.wall_time_s, 0.0);

    std::ostringstream serial_csv;
    std::ostringstream parallel_csv;
    serial.write_csv(serial_csv, core::CsvColumns::kDeterministic);
    parallel.write_csv(parallel_csv, core::CsvColumns::kDeterministic);
    EXPECT_EQ(serial_csv.str(), parallel_csv.str());
}

}  // namespace
}  // namespace chrysalis::search
