/// \file
/// Tests for the bi-level explorer: decoding, evaluation, exploration and
/// the CHRYSALIS-vs-ablation ordering the paper's Fig. 10 reports.

#include "search/bilevel_explorer.hpp"

#include <gtest/gtest.h>

#include "dnn/model_zoo.hpp"
#include "mapping_result_matchers.hpp"
#include "obs/metrics.hpp"

namespace chrysalis::search {
namespace {

ExplorerOptions
small_options(std::uint64_t seed = 1)
{
    ExplorerOptions options;
    options.outer.population = 12;
    options.outer.generations = 6;
    options.outer.seed = seed;
    options.inner.max_candidates_per_dim = 4;
    return options;
}

BiLevelExplorer
make_explorer(Objective objective = {ObjectiveKind::kLatSp, 0.0, 0.0},
              std::uint64_t seed = 1)
{
    return BiLevelExplorer(dnn::make_simple_conv(),
                           DesignSpace::existing_aut(), objective,
                           small_options(seed));
}

TEST(BiLevelDecodeTest, GenesMapIntoRanges)
{
    const auto explorer = make_explorer();
    const HwCandidate lo =
        explorer.decode({0.0, 0.0, 0.0, 0.0, 0.0});
    const HwCandidate hi =
        explorer.decode({1.0, 1.0, 1.0, 1.0, 1.0});
    EXPECT_DOUBLE_EQ(lo.solar_cm2, 1.0);
    EXPECT_DOUBLE_EQ(hi.solar_cm2, 30.0);
    EXPECT_NEAR(lo.capacitance_f, 1e-6, 1e-9);
    EXPECT_NEAR(hi.capacitance_f, 10e-3, 1e-5);
}

TEST(BiLevelDecodeTest, CapacitanceIsLogScaled)
{
    const auto explorer = make_explorer();
    const HwCandidate mid =
        explorer.decode({0.5, 0.5, 0.5, 0.5, 0.5});
    // Geometric midpoint of [1 uF, 10 mF] = 100 uF.
    EXPECT_NEAR(mid.capacitance_f, 100e-6, 1e-6);
}

TEST(BiLevelDecodeTest, AcceleratorGenesDecodeArchPeCache)
{
    BiLevelExplorer explorer(dnn::make_alexnet(),
                             DesignSpace::future_aut(),
                             {ObjectiveKind::kLatSp, 0.0, 0.0},
                             small_options());
    const HwCandidate tpu =
        explorer.decode({0.5, 0.5, 0.2, 0.5, 0.5});
    EXPECT_EQ(tpu.arch, hw::AcceleratorArch::kTpu);
    const HwCandidate eyeriss =
        explorer.decode({0.5, 0.5, 0.8, 0.5, 0.5});
    EXPECT_EQ(eyeriss.arch, hw::AcceleratorArch::kEyeriss);
    const HwCandidate max_hw =
        explorer.decode({1.0, 1.0, 1.0, 1.0, 1.0});
    EXPECT_EQ(max_hw.n_pe, 168);
    EXPECT_EQ(max_hw.cache_bytes, 2048);
}

TEST(BiLevelEvaluateTest, FeasibleCandidateGetsRealScore)
{
    const auto explorer = make_explorer();
    HwCandidate candidate;
    candidate.solar_cm2 = 8.0;
    candidate.capacitance_f = 100e-6;
    const EvaluatedDesign design = explorer.evaluate(candidate);
    ASSERT_TRUE(design.feasible);
    EXPECT_GT(design.mean_latency_s, 0.0);
    EXPECT_NEAR(design.score, design.mean_latency_s * 8.0, 1e-9);
    EXPECT_EQ(design.per_env.size(), 2u);  // brighter + darker
}

TEST(BiLevelEvaluateTest, LeakageDominatedCandidateIsInfeasible)
{
    const auto explorer = make_explorer();
    HwCandidate candidate;
    candidate.solar_cm2 = 1.0;
    candidate.capacitance_f = 10e-3;  // darker env cannot charge this
    const EvaluatedDesign design = explorer.evaluate(candidate);
    EXPECT_FALSE(design.feasible);
    EXPECT_GT(design.score, 1e9);
}

TEST(BiLevelExploreTest, FindsFeasibleDesign)
{
    const auto explorer = make_explorer();
    const ExplorationResult result = explorer.explore();
    ASSERT_TRUE(result.best.feasible);
    EXPECT_EQ(result.evaluations,
              static_cast<int>(result.history.size()));
    EXPECT_FALSE(result.pareto.empty());
    // Pareto points must come from feasible history entries.
    for (const auto& point : result.pareto) {
        EXPECT_LT(point.tag, result.history.size());
        EXPECT_TRUE(result.history[point.tag].feasible);
    }
}

TEST(BiLevelExploreTest, DeterministicForSeed)
{
    const auto a = make_explorer({ObjectiveKind::kLatSp, 0.0, 0.0}, 3)
                       .explore();
    const auto b = make_explorer({ObjectiveKind::kLatSp, 0.0, 0.0}, 3)
                       .explore();
    EXPECT_DOUBLE_EQ(a.best.score, b.best.score);
    EXPECT_DOUBLE_EQ(a.best.candidate.solar_cm2,
                     b.best.candidate.solar_cm2);
}

TEST(BiLevelExploreTest, LatencyObjectiveRespectsPanelConstraint)
{
    const auto explorer =
        make_explorer({ObjectiveKind::kLatency, 6.0, 0.0}, 11);
    const ExplorationResult result = explorer.explore();
    ASSERT_TRUE(result.best.feasible);
    EXPECT_LE(result.best.candidate.solar_cm2, 6.0 + 1e-9);
}

TEST(BiLevelExploreTest, SolarObjectiveRespectsLatencyConstraint)
{
    const auto explorer =
        make_explorer({ObjectiveKind::kSolarPanel, 0.0, 5.0}, 13);
    const ExplorationResult result = explorer.explore();
    ASSERT_TRUE(result.best.feasible);
    EXPECT_LE(result.best.mean_latency_s, 5.0 + 1e-9);
}

TEST(BiLevelExploreTest, FullSearchBeatsFrozenEnergyBaseline)
{
    // Fig. 10's headline ordering: CHRYSALIS <= wo/EA on the same budget
    // (the full search can always reproduce the frozen configuration).
    const Objective objective{ObjectiveKind::kLatSp, 0.0, 0.0};
    const dnn::Model model = dnn::make_simple_conv();

    BiLevelExplorer full(model, DesignSpace::existing_aut(), objective,
                         small_options(21));
    BiLevelExplorer frozen(
        model,
        apply_baseline(DesignSpace::existing_aut(), BaselineKind::kWoEa),
        objective, small_options(21));

    const auto full_result = full.explore();
    const auto frozen_result = frozen.explore();
    ASSERT_TRUE(full_result.best.feasible);
    // A search over a superset space should not do (meaningfully) worse.
    EXPECT_LE(full_result.best.score,
              frozen_result.best.score * 1.05);
}

TEST(BiLevelExploreTest, RandomStrategyAlsoWorks)
{
    ExplorerOptions options = small_options(31);
    options.strategy = OptimizerStrategy::kRandom;
    BiLevelExplorer explorer(dnn::make_simple_conv(),
                             DesignSpace::existing_aut(),
                             {ObjectiveKind::kLatSp, 0.0, 0.0}, options);
    const auto result = explorer.explore();
    EXPECT_TRUE(result.best.feasible);
}

TEST(BiLevelEncodeTest, EncodeDecodeRoundTripsForMsp)
{
    const auto explorer = make_explorer();
    HwCandidate candidate;
    candidate.family = HardwareFamily::kMsp430;
    candidate.solar_cm2 = 12.5;
    candidate.capacitance_f = 330e-6;
    const HwCandidate round =
        explorer.decode(explorer.encode(candidate));
    EXPECT_NEAR(round.solar_cm2, 12.5, 1e-9);
    EXPECT_NEAR(round.capacitance_f, 330e-6, 1e-9);
}

TEST(BiLevelEncodeTest, EncodeDecodeRoundTripsForAccelerator)
{
    BiLevelExplorer explorer(dnn::make_alexnet(),
                             DesignSpace::future_aut(),
                             {ObjectiveKind::kLatSp, 0.0, 0.0},
                             small_options());
    HwCandidate candidate;
    candidate.family = HardwareFamily::kAccelerator;
    candidate.solar_cm2 = 8.0;
    candidate.capacitance_f = 1e-3;
    candidate.arch = hw::AcceleratorArch::kTpu;
    candidate.n_pe = 64;
    candidate.cache_bytes = 512;
    const HwCandidate round =
        explorer.decode(explorer.encode(candidate));
    EXPECT_EQ(round.arch, hw::AcceleratorArch::kTpu);
    EXPECT_EQ(round.n_pe, 64);
    EXPECT_EQ(round.cache_bytes, 512);
    EXPECT_NEAR(round.solar_cm2, 8.0, 1e-9);
}

TEST(BiLevelExploreTest, WarmStartMakesSupersetNeverLose)
{
    // The defaults-seeded full search must score at least as well as the
    // evaluation of the defaults themselves.
    const auto explorer = make_explorer({ObjectiveKind::kLatSp, 0.0, 0.0},
                                        77);
    const ExplorationResult result = explorer.explore();
    const EvaluatedDesign defaults =
        explorer.evaluate(explorer.space().defaults);
    EXPECT_LE(result.best.score, defaults.score * (1.0 + 1e-9));
}

/// Candidates across the panel and capacitor ranges; the last cannot
/// charge its 10 mF capacitor in the darker environment.
std::vector<HwCandidate>
sweep_candidates()
{
    std::vector<HwCandidate> candidates;
    for (const auto& [cm2, cap_f] : {std::pair{1.0, 1e-6},
                                     {3.0, 100e-6},
                                     {8.0, 1e-3},
                                     {30.0, 10e-3},
                                     {12.5, 330e-6},
                                     {1.0, 10e-3}}) {
        HwCandidate candidate;
        candidate.solar_cm2 = cm2;
        candidate.capacitance_f = cap_f;
        candidates.push_back(candidate);
    }
    return candidates;
}

/// evaluate() on a shared grid must return what a per-candidate
/// search_mappings() call returns, bit for bit.
void
expect_evaluate_matches_search(const BiLevelExplorer& explorer)
{
    ASSERT_TRUE(explorer.space().fixes_hardware());
    bool saw_infeasible = false;
    for (const auto& raw : sweep_candidates()) {
        const HwCandidate candidate = explorer.space().clamp(raw);
        SCOPED_TRACE(candidate.describe());
        const EvaluatedDesign design = explorer.evaluate(candidate);
        matchers::expect_same_result(
            design.mapping,
            search_mappings(explorer.model(), *candidate.build_hardware(),
                            explorer.environments(candidate),
                            explorer.options().inner));
        saw_infeasible = saw_infeasible || !design.feasible;
    }
    EXPECT_TRUE(saw_infeasible);
}

TEST(BiLevelGridTest, ExistingAutEvaluateMatchesPerCandidateSearch)
{
    expect_evaluate_matches_search(make_explorer());
    ExplorerOptions options = small_options();
    options.inner.max_candidates_per_dim = 6;
    expect_evaluate_matches_search(
        BiLevelExplorer(dnn::make_cifar10_cnn(), DesignSpace::existing_aut(),
                        {ObjectiveKind::kLatSp, 0.0, 0.0}, options));
}

TEST(BiLevelGridTest, FrozenAcceleratorEvaluateMatchesPerCandidateSearch)
{
    expect_evaluate_matches_search(BiLevelExplorer(
        dnn::make_har_cnn(),
        apply_baseline(DesignSpace::future_aut(), BaselineKind::kWoIa),
        {ObjectiveKind::kLatSp, 0.0, 0.0}, small_options()));
}

TEST(BiLevelGridTest, ExploreAnalyzesTheGridOnce)
{
    // CIFAR-10 repeats no layer shape; its MSP430 grid at 6 candidates
    // per dim holds 334 mappings, analyzed once for the whole search.
    ExplorerOptions options = small_options(5);
    options.inner.max_candidates_per_dim = 6;
    obs::MetricsRegistry registry;
    {
        obs::ScopedMetrics scope(registry);
        const BiLevelExplorer explorer(
            dnn::make_cifar10_cnn(), DesignSpace::existing_aut(),
            {ObjectiveKind::kLatSp, 0.0, 0.0}, options);
        explorer.explore();
    }
    const std::uint64_t searches =
        registry.counter("search/inner/searches").value();
    EXPECT_GT(searches, 1u);
    EXPECT_EQ(registry.counter("search/inner/analyses").value(), 334u);
    EXPECT_EQ(registry.counter("search/inner/evaluations").value(),
              334u * searches);
}

TEST(BiLevelGridTest, GeneticInnerStrategyBuildsNoGrid)
{
    ExplorerOptions options = small_options(5);
    options.inner.strategy = MappingSearchOptions::Strategy::kGenetic;
    obs::MetricsRegistry registry;
    {
        obs::ScopedMetrics scope(registry);
        const BiLevelExplorer explorer(
            dnn::make_simple_conv(), DesignSpace::existing_aut(),
            {ObjectiveKind::kLatSp, 0.0, 0.0}, options);
        explorer.explore();
    }
    const std::uint64_t evaluations =
        registry.counter("search/inner/evaluations").value();
    EXPECT_GT(evaluations, 0u);
    EXPECT_EQ(registry.counter("search/inner/analyses").value(),
              evaluations);
}

TEST(BiLevelDeathTest, EmptyEnvironmentsAreFatal)
{
    ExplorerOptions options = small_options();
    options.k_eh_envs.clear();
    EXPECT_EXIT(BiLevelExplorer(dnn::make_simple_conv(),
                                DesignSpace::existing_aut(),
                                {ObjectiveKind::kLatSp, 0.0, 0.0},
                                options),
                ::testing::ExitedWithCode(1), "environment");
}

}  // namespace
}  // namespace chrysalis::search
