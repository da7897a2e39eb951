/// \file
/// Tests for the NSGA-II multi-objective optimizer and the explorer's
/// Pareto mode.

#include "search/optimizer.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "dnn/model_zoo.hpp"
#include "evaluation_log.hpp"
#include "search/bilevel_explorer.hpp"

namespace chrysalis::search {
namespace {

TEST(BiDominatesTest, Rules)
{
    EXPECT_TRUE(bi_dominates({1, 1}, {2, 2}));
    EXPECT_TRUE(bi_dominates({1, 2}, {2, 2}));
    EXPECT_FALSE(bi_dominates({1, 3}, {2, 2}));
    EXPECT_FALSE(bi_dominates({2, 2}, {2, 2}));
}

TEST(NonDominatedRanksTest, LayeredFronts)
{
    // Front 0: (1,4) (2,2) (4,1); front 1: (2,5) (3,3); front 2: (5,5).
    const std::vector<std::array<double, 2>> objectives = {
        {1, 4}, {2, 2}, {4, 1}, {2, 5}, {3, 3}, {5, 5},
    };
    const auto ranks = non_dominated_ranks(objectives);
    EXPECT_EQ(ranks[0], 0);
    EXPECT_EQ(ranks[1], 0);
    EXPECT_EQ(ranks[2], 0);
    EXPECT_EQ(ranks[3], 1);
    EXPECT_EQ(ranks[4], 1);
    EXPECT_EQ(ranks[5], 2);
}

TEST(NonDominatedRanksTest, AllEqualAreRankZero)
{
    const std::vector<std::array<double, 2>> objectives = {
        {1, 1}, {1, 1}, {1, 1}};
    for (int rank : non_dominated_ranks(objectives))
        EXPECT_EQ(rank, 0);
}

TEST(CrowdingDistancesTest, BoundariesAreInfinite)
{
    const std::vector<std::array<double, 2>> objectives = {
        {1, 4}, {2, 2}, {4, 1}};
    const auto distances = crowding_distances(objectives);
    EXPECT_TRUE(std::isinf(distances[0]));
    EXPECT_TRUE(std::isinf(distances[2]));
    EXPECT_FALSE(std::isinf(distances[1]));
    EXPECT_GT(distances[1], 0.0);
}

TEST(CrowdingDistancesTest, TinyFrontsAreAllInfinite)
{
    const auto one = crowding_distances({{1, 1}});
    EXPECT_TRUE(std::isinf(one[0]));
    const auto two = crowding_distances({{1, 2}, {2, 1}});
    EXPECT_TRUE(std::isinf(two[0]));
    EXPECT_TRUE(std::isinf(two[1]));
}

/// Classic convex test problem (Schaffer-like on [0,1]^1 scaled):
/// f1 = x^2, f2 = (x-1)^2; the true front is x in [0,1].
std::array<double, 2>
schaffer(std::size_t, const std::vector<double>& genes)
{
    const double x = genes[0];
    return {x * x, (x - 1.0) * (x - 1.0)};
}

TEST(Nsga2Test, RecoversSchafferFront)
{
    OptimizerOptions options;
    options.population = 24;
    options.generations = 20;
    options.seed = 3;
    EvaluationLog<std::array<double, 2>> log;
    const Nsga2Result result = optimize_nsga2(
        1, options, log.wrap([](const std::vector<double>& genes) {
            return schaffer(0, genes);
        }));
    ASSERT_GE(result.front.size(), 5u);
    // Front spans both ends of the tradeoff.
    EXPECT_LT(result.front.front().objectives[0], 0.05);
    EXPECT_LT(result.front.back().objectives[1], 0.05);
    // Each front point names its own evaluation.
    ASSERT_EQ(log.entries().size(),
              static_cast<std::size_t>(result.evaluations));
    for (const auto& point : result.front) {
        ASSERT_LT(point.index, log.entries().size());
        EXPECT_EQ(log.entries()[point.index].genes, point.genes);
        EXPECT_EQ(log.entries()[point.index].value, point.objectives);
    }
    // Sorted by f1 and mutually non-dominated.
    for (std::size_t i = 1; i < result.front.size(); ++i) {
        EXPECT_GE(result.front[i].objectives[0],
                  result.front[i - 1].objectives[0]);
        EXPECT_FALSE(bi_dominates(result.front[i].objectives,
                                  result.front[i - 1].objectives));
        EXPECT_FALSE(bi_dominates(result.front[i - 1].objectives,
                                  result.front[i].objectives));
    }
}

TEST(Nsga2Test, DeterministicForSeed)
{
    OptimizerOptions options;
    options.population = 12;
    options.generations = 8;
    options.seed = 11;
    const auto a = optimize_nsga2(1, options, schaffer);
    const auto b = optimize_nsga2(1, options, schaffer);
    ASSERT_EQ(a.front.size(), b.front.size());
    for (std::size_t i = 0; i < a.front.size(); ++i)
        EXPECT_EQ(a.front[i].objectives, b.front[i].objectives);
}

TEST(Nsga2DeathTest, ValidatesOptions)
{
    OptimizerOptions options;
    options.population = 2;
    EXPECT_EXIT(optimize_nsga2(1, options, schaffer),
                ::testing::ExitedWithCode(1), "population");
    EXPECT_EXIT(optimize_nsga2(0, OptimizerOptions{}, schaffer),
                ::testing::ExitedWithCode(1), "gene_count");
}

TEST(ExploreParetoTest, FrontIsFeasibleSortedAndNonDominated)
{
    ExplorerOptions options;
    options.outer.population = 16;
    options.outer.generations = 8;
    options.outer.seed = 5;
    options.inner.max_candidates_per_dim = 4;
    BiLevelExplorer explorer(dnn::make_simple_conv(),
                             DesignSpace::existing_aut(),
                             {ObjectiveKind::kLatSp, 0.0, 0.0}, options);
    const auto front = explorer.explore_pareto();
    ASSERT_GE(front.size(), 2u);
    for (std::size_t i = 0; i < front.size(); ++i) {
        EXPECT_TRUE(front[i].feasible);
        if (i > 0) {
            EXPECT_GE(front[i].candidate.solar_cm2,
                      front[i - 1].candidate.solar_cm2);
            EXPECT_LE(front[i].mean_latency_s,
                      front[i - 1].mean_latency_s * (1.0 + 1e-9));
        }
    }
}

}  // namespace
}  // namespace chrysalis::search
