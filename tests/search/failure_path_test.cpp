/// \file
/// Failure-path coverage for the search layer: failure codes must
/// propagate from the inner mapping search and the analytic evaluator
/// through BiLevelExplorer as graded penalties (never aborts), and
/// fault-injected searches must stay deterministic at any thread count.

#include <gtest/gtest.h>

#include "dnn/model_zoo.hpp"
#include "search/bilevel_explorer.hpp"

namespace chrysalis::search {
namespace {

ExplorerOptions
small_options(int threads = 1)
{
    ExplorerOptions options;
    options.outer.population = 8;
    options.outer.generations = 4;
    options.outer.seed = 11;
    options.outer.threads = threads;
    options.inner.max_candidates_per_dim = 4;
    return options;
}

fault::FaultSpec
storm_spec()
{
    fault::FaultSpec spec;
    spec.seed = 9;
    spec.dropout_window_s = 600.0;
    spec.dropout_probability = 0.4;
    spec.dropout_duration_s = 300.0;
    spec.mission_age_years = 5.0;
    return spec;
}

TEST(FailurePathTest, NvmCapacityFailurePropagatesToDesign)
{
    // AlexNet cannot fit the MSP430's FRAM: the evaluated design must
    // carry the structural failure code, not just "infeasible".
    ExplorerOptions options = small_options();
    options.inner.max_candidates_per_dim = 2;
    const BiLevelExplorer explorer(
        dnn::make_alexnet(), DesignSpace::existing_aut(),
        Objective{ObjectiveKind::kLatSp, 0.0, 0.0}, options);
    const EvaluatedDesign design =
        explorer.evaluate(explorer.space().defaults);
    EXPECT_FALSE(design.feasible);
    EXPECT_EQ(design.failure.code,
              fault::FailureCode::kNvmCapacityExceeded);
    // Structural failures score strictly worse than any feasible or
    // constraint-violating design (which cap below 10 * 1e9).
    EXPECT_GE(design.score, 1e10);
}

TEST(FailurePathTest, ZeroHarvestEnvironmentDegradesInsteadOfAborting)
{
    // A near-dark environment makes every candidate infeasible; the
    // search must still run to completion and return graded penalties
    // with a failure code on every design.
    ExplorerOptions options = small_options();
    options.k_eh_envs = {1e-9};
    const BiLevelExplorer explorer(
        dnn::make_kws_mlp(), DesignSpace::existing_aut(),
        Objective{ObjectiveKind::kLatSp, 0.0, 0.0}, options);
    const ExplorationResult result = explorer.explore();
    EXPECT_FALSE(result.best.feasible);
    EXPECT_TRUE(static_cast<bool>(result.best.failure));
    EXPECT_TRUE(result.pareto.empty());
    for (const auto& design : result.history) {
        EXPECT_FALSE(design->feasible);
        EXPECT_TRUE(static_cast<bool>(design->failure));
        EXPECT_GE(design->score, 1e10);
    }
}

TEST(FailurePathTest, PenaltiesDominateConstraintViolations)
{
    const Objective objective{ObjectiveKind::kLatency, 20.0, 0.0};
    // Worst graded constraint violation caps at 9 * 1e9...
    const double violating = objective.score(1.0, 1e9);
    // ...while the mildest failure penalty starts at 10 * 1e9.
    const double penalty = objective.penalty_score(
        fault::make_failure(fault::FailureCode::kTileExceedsCycle));
    EXPECT_LT(violating, penalty);
    // And penalty bands follow the code's distance from feasibility.
    const double crashed = objective.penalty_score(
        fault::make_failure(fault::FailureCode::kCrashed));
    EXPECT_LT(penalty, crashed);
    // Within a band, larger violations score worse but never cross
    // into the next band.
    const double graded = objective.penalty_score(
        fault::make_failure(fault::FailureCode::kTileExceedsCycle), 1e5);
    EXPECT_GT(graded, penalty);
    const double next_band = objective.penalty_score(
        fault::make_failure(fault::FailureCode::kTimeout));
    EXPECT_LT(graded, next_band);
}

TEST(FailurePathTest, FaultedSearchIsDeterministicAcrossThreads)
{
    const fault::FaultInjector faults(storm_spec());
    ExplorerOptions serial_options = small_options(1);
    serial_options.faults = &faults;
    ExplorerOptions parallel_options = small_options(4);
    parallel_options.faults = &faults;
    const dnn::Model model = dnn::make_simple_conv();
    const Objective objective{ObjectiveKind::kLatSp, 0.0, 0.0};
    const BiLevelExplorer serial(model, DesignSpace::existing_aut(),
                                 objective, serial_options);
    const BiLevelExplorer parallel(model, DesignSpace::existing_aut(),
                                   objective, parallel_options);
    const ExplorationResult a = serial.explore();
    const ExplorationResult b = parallel.explore();
    EXPECT_EQ(a.best.score, b.best.score);
    ASSERT_EQ(a.history.size(), b.history.size());
    for (std::size_t i = 0; i < a.history.size(); ++i) {
        EXPECT_EQ(a.history[i]->score, b.history[i]->score) << i;
        EXPECT_EQ(a.history[i]->mean_latency_s,
                  b.history[i]->mean_latency_s)
            << i;
    }
}

TEST(FailurePathTest, FaultsDegradeTheBestDesign)
{
    // The faulted search sees less harvest and an aged capacitor, so its
    // optimum cannot beat the clean search's.
    const dnn::Model model = dnn::make_simple_conv();
    const Objective objective{ObjectiveKind::kLatSp, 0.0, 0.0};
    const BiLevelExplorer clean(model, DesignSpace::existing_aut(),
                                objective, small_options());
    const fault::FaultInjector faults(storm_spec());
    ExplorerOptions faulted_options = small_options();
    faulted_options.faults = &faults;
    const BiLevelExplorer faulted(model, DesignSpace::existing_aut(),
                                  objective, faulted_options);
    const double clean_score = clean.explore().best.score;
    const double faulted_score = faulted.explore().best.score;
    EXPECT_GT(faulted_score, clean_score);
}

TEST(FailurePathTest, FaultSpecIsPartOfTheMemoKey)
{
    // A faulted and a clean explorer must never alias cache entries for
    // the same candidate.
    const dnn::Model model = dnn::make_simple_conv();
    const Objective objective{ObjectiveKind::kLatSp, 0.0, 0.0};
    const BiLevelExplorer clean(model, DesignSpace::existing_aut(),
                                objective, small_options());
    const fault::FaultInjector faults(storm_spec());
    ExplorerOptions faulted_options = small_options();
    faulted_options.faults = &faults;
    const BiLevelExplorer faulted(model, DesignSpace::existing_aut(),
                                  objective, faulted_options);
    const HwCandidate candidate = clean.space().defaults;
    EXPECT_FALSE(clean.candidate_key(candidate) ==
                 faulted.candidate_key(candidate));
}

}  // namespace
}  // namespace chrysalis::search
