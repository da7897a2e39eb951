/// \file
/// Determinism contract of the parallel runtime: for a fixed seed, every
/// search path (GA, random, grid, NSGA-II, bi-level explorer, campaign)
/// must produce bit-identical results at any thread count, with or
/// without the evaluation memo. This is what licenses turning on
/// `threads = hardware_concurrency()` by default.

#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/campaign.hpp"
#include "core/campaign_spec.hpp"
#include "dnn/model_zoo.hpp"
#include "evaluation_log.hpp"
#include "obs/trace.hpp"
#include "search/bilevel_explorer.hpp"
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

/// synthetic_fitness as the optimizers call it (the index is unused).
double
indexed_synthetic(std::size_t, const std::vector<double>& genes)
{
    return synthetic_fitness(genes);
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

/// One optimizer run and every evaluation it made, by index.
struct LoggedRun {
    OptimizeResult result;
    std::vector<LoggedEvaluation<double>> evaluations;
};

LoggedRun
run_logged(OptimizerStrategy strategy, int gene_count, int threads)
{
    EvaluationLog<double> log;
    OptimizeResult result = optimize(strategy, gene_count,
                                     small_options(threads),
                                     log.wrap(synthetic_fitness));
    return {std::move(result), log.entries()};
}

void
expect_identical(const LoggedRun& serial, const LoggedRun& parallel)
{
    EXPECT_EQ(serial.result.evaluations, parallel.result.evaluations);
    EXPECT_EQ(serial.result.best_score, parallel.result.best_score);
    EXPECT_EQ(serial.result.best_genes, parallel.result.best_genes);
    ASSERT_EQ(serial.evaluations.size(), parallel.evaluations.size());
    for (std::size_t i = 0; i < serial.evaluations.size(); ++i) {
        EXPECT_EQ(serial.evaluations[i].value, parallel.evaluations[i].value)
            << i;
        EXPECT_EQ(serial.evaluations[i].genes, parallel.evaluations[i].genes)
            << i;
    }
}

TEST(ParallelDeterminismTest, GeneticMatchesSerialAtFourThreads)
{
    expect_identical(run_logged(OptimizerStrategy::kGenetic, 4, 1),
                     run_logged(OptimizerStrategy::kGenetic, 4, 4));
}

TEST(ParallelDeterminismTest, RandomMatchesSerialAtFourThreads)
{
    expect_identical(run_logged(OptimizerStrategy::kRandom, 4, 1),
                     run_logged(OptimizerStrategy::kRandom, 4, 4));
}

TEST(ParallelDeterminismTest, GridMatchesSerialAtFourThreads)
{
    expect_identical(run_logged(OptimizerStrategy::kGrid, 3, 1),
                     run_logged(OptimizerStrategy::kGrid, 3, 4));
}

TEST(ParallelDeterminismTest, IndexedFitnessSeesSequentialIndices)
{
    // Each index from 0 to evaluations - 1 is seen exactly once,
    // regardless of threads.
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
    const auto result =
        optimize(OptimizerStrategy::kGenetic, 4, small_options(4), fitness);
    const auto evaluations = static_cast<std::size_t>(result.evaluations);
    ASSERT_LE(evaluations, seen.size());
    for (std::size_t i = 0; i < seen.size(); ++i)
        EXPECT_EQ(seen[i], i < evaluations ? 1 : 0) << i;
}

TEST(ParallelDeterminismTest, Nsga2MatchesSerialAtFourThreads)
{
    const auto fitness = [](const std::vector<double>& genes) {
        return std::array<double, 2>{synthetic_fitness(genes),
                                     1.0 - genes[0]};
    };
    EvaluationLog<std::array<double, 2>> serial_log;
    EvaluationLog<std::array<double, 2>> parallel_log;
    const auto serial =
        optimize_nsga2(3, small_options(1), serial_log.wrap(fitness));
    const auto parallel =
        optimize_nsga2(3, small_options(4), parallel_log.wrap(fitness));
    EXPECT_EQ(serial.evaluations, parallel.evaluations);
    ASSERT_EQ(serial.front.size(), parallel.front.size());
    for (std::size_t i = 0; i < serial.front.size(); ++i) {
        EXPECT_EQ(serial.front[i].genes, parallel.front[i].genes) << i;
        EXPECT_EQ(serial.front[i].objectives,
                  parallel.front[i].objectives)
            << i;
    }
    const auto& serial_points = serial_log.entries();
    const auto& parallel_points = parallel_log.entries();
    ASSERT_EQ(serial_points.size(), parallel_points.size());
    for (std::size_t i = 0; i < serial_points.size(); ++i)
        EXPECT_EQ(serial_points[i].value, parallel_points[i].value) << i;
}

TEST(PinnedOptimizerOutputTest, MatchesRecordedValuesAtSeed77)
{
    // Recorded at the commit before the GA and NSGA-II shared their
    // seeding and variation code. The determinism tests above compare
    // two runs of the same build; these values catch a change to the
    // RNG draw order, which would move every search result.
    const OptimizerOptions options = small_options(1);
    const auto ga = optimize(OptimizerStrategy::kGenetic, 4, options,
                             indexed_synthetic);
    EXPECT_EQ(ga.evaluations, 62);
    EXPECT_EQ(ga.best_score, -0.25473063141509722);
    EXPECT_EQ(ga.best_genes,
              (std::vector<double>{0.26562194908630499, 0.28304637678833672,
                                   0.35159870297612972,
                                   0.45533179107738975}));

    const auto random = optimize(OptimizerStrategy::kRandom, 4, options,
                                 indexed_synthetic);
    EXPECT_EQ(random.evaluations, 72);
    EXPECT_EQ(random.best_score, -0.07678047208155131);
    EXPECT_EQ(random.best_genes,
              (std::vector<double>{0.17881813012541725, 0.31223686251748428,
                                   0.35159870297612972,
                                   0.29894278007498132}));

    const auto grid =
        optimize(OptimizerStrategy::kGrid, 3, options, indexed_synthetic);
    EXPECT_EQ(grid.evaluations, 64);
    EXPECT_EQ(grid.best_score, -0.10818734965973731);
    EXPECT_EQ(grid.best_genes,
              (std::vector<double>{0.0, 0.0, 0.33333333333333331}));

    const IndexedBiFitnessFn bi = [](std::size_t,
                                     const std::vector<double>& genes) {
        return std::array<double, 2>{synthetic_fitness(genes),
                                     1.0 - genes[0]};
    };
    const auto nsga2 = optimize_nsga2(3, options, bi);
    EXPECT_EQ(nsga2.evaluations, 72);
    const std::vector<std::array<double, 2>> front = {
        {-0.19936634932348146, 0.74104693687309553},
        {-0.0019372967688582599, 0.64840129702387028},
        {0.023584560964306799, 0.64421007996952973},
        {0.027911075190634946, 0.63098132906239979},
        {0.053579744404800358, 0.58062672758780709},
        {0.12457724790654201, 0.55817836770318374},
        {0.60163530914478958, 0.12210247576105149},
        {0.60319321194230668, 0.095043193074626164},
        {0.60319321194230668, 0.095043193074626164},
        {0.75821612136443495, 0.020066138028833391},
        {0.75821612136443495, 0.020066138028833391},
        {0.83832872233975619, 0.0},
    };
    ASSERT_EQ(nsga2.front.size(), front.size());
    for (std::size_t i = 0; i < front.size(); ++i)
        EXPECT_EQ(nsga2.front[i].objectives, front[i]) << i;
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

/// The whole record campaigns and the CLI print: candidate, score,
/// per-layer mappings and costs, and every environment's outcome.
void
expect_identical_design(const EvaluatedDesign& a, const EvaluatedDesign& b)
{
    EXPECT_EQ(a.score, b.score);
    EXPECT_EQ(a.feasible, b.feasible);
    EXPECT_EQ(a.mean_latency_s, b.mean_latency_s);
    EXPECT_EQ(a.failure.code, b.failure.code);
    EXPECT_EQ(a.candidate.solar_cm2, b.candidate.solar_cm2);
    EXPECT_EQ(a.candidate.capacitance_f, b.candidate.capacitance_f);
    ASSERT_EQ(a.mapping.mappings.size(), b.mapping.mappings.size());
    for (std::size_t l = 0; l < a.mapping.mappings.size(); ++l) {
        const auto& ma = a.mapping.mappings[l];
        const auto& mb = b.mapping.mappings[l];
        EXPECT_EQ(ma.dataflow, mb.dataflow) << l;
        EXPECT_EQ(ma.tiles_k, mb.tiles_k) << l;
        EXPECT_EQ(ma.tiles_y, mb.tiles_y) << l;
        EXPECT_EQ(ma.tiles_n, mb.tiles_n) << l;
    }
    EXPECT_EQ(a.mapping.cost.total_energy_j(),
              b.mapping.cost.total_energy_j());
    EXPECT_EQ(a.mapping.cost.n_tile, b.mapping.cost.n_tile);
    EXPECT_EQ(a.mapping.violation_j, b.mapping.violation_j);
    ASSERT_EQ(a.per_env.size(), b.per_env.size());
    for (std::size_t e = 0; e < a.per_env.size(); ++e) {
        EXPECT_EQ(a.per_env[e].latency_s, b.per_env[e].latency_s) << e;
        EXPECT_EQ(a.per_env[e].failure.code, b.per_env[e].failure.code)
            << e;
    }
}

void
expect_identical_exploration(const ExplorationResult& a,
                             const ExplorationResult& b)
{
    EXPECT_EQ(a.evaluations, b.evaluations);
    expect_identical_design(a.best, b.best);
    ASSERT_EQ(a.history.size(), b.history.size());
    for (std::size_t i = 0; i < a.history.size(); ++i) {
        EXPECT_EQ(a.history[i]->score, b.history[i]->score) << i;
        EXPECT_EQ(a.history[i]->mean_latency_s,
                  b.history[i]->mean_latency_s)
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
    // A hit shares the memo's record; it does not copy it.
    ASSERT_EQ(first.history.size(), second.history.size());
    for (std::size_t i = 0; i < first.history.size(); ++i)
        EXPECT_EQ(first.history[i].get(), second.history[i].get()) << i;
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

/// Every depth at which \p run recorded each span name, by name.
template <typename Run>
std::map<std::string, std::set<std::uint32_t>>
traced_span_depths(const Run& run)
{
    obs::TraceSession session;
    {
        obs::ScopedTrace scope(session);
        run();
    }
    std::map<std::string, std::set<std::uint32_t>> depths;
    for (const obs::TraceEvent& event : session.merged())
        depths[event.name].insert(event.depth);
    return depths;
}

TEST(ParallelDeterminismTest, ExplorerSpanDepthsMatchSerialAtFourThreads)
{
    // A pool runner records a task's spans from the depth of the thread
    // that issued the batch, so search/inner nests under search/explore
    // and ga/generation whichever thread ran it.
    const dnn::Model model = dnn::make_simple_conv();
    const Objective objective{ObjectiveKind::kLatSp, 0.0, 0.0};
    const auto depths = [&](int threads) {
        const BiLevelExplorer explorer(model, DesignSpace::existing_aut(),
                                       objective,
                                       explorer_options(threads, 1024));
        return traced_span_depths([&] { explorer.explore(); });
    };
    const auto serial = depths(1);
    ASSERT_EQ(serial.count("search/inner"), 1u);
    EXPECT_EQ(serial.at("search/inner").size(), 1u);
    EXPECT_EQ(depths(4), serial);
}

TEST(ParallelDeterminismTest, CampaignSpanDepthsMatchSerialAtFourThreads)
{
    core::CampaignSpec spec;
    spec.cases = 8;
    spec.population = 4;
    spec.generations = 2;
    const std::vector<core::CampaignCase> cases =
        core::build_campaign_cases(spec, dnn::make_model(spec.model));
    std::unique_ptr<fault::FaultInjector> faults;
    const ExplorerOptions base = core::build_explorer_options(spec, faults);
    const auto depths = [&](int threads) {
        core::CampaignOptions campaign_options;
        campaign_options.threads = threads;
        return traced_span_depths(
            [&] { core::run_campaign(cases, base, campaign_options); });
    };
    const auto serial = depths(1);
    std::size_t case_spans = 0;
    for (const auto& [name, levels] : serial) {
        if (name.rfind("case:", 0) == 0) {
            ++case_spans;
            EXPECT_EQ(levels, (std::set<std::uint32_t>{1})) << name;
        }
    }
    EXPECT_EQ(case_spans, cases.size());
    EXPECT_EQ(depths(4), serial);
}

}  // namespace
}  // namespace chrysalis::search
