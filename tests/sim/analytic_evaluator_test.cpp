/// \file
/// Tests for the closed-form evaluator (Eqs. 3, 7, 8).

#include "sim/analytic_evaluator.hpp"

#include <gtest/gtest.h>

#include "dnn/model_zoo.hpp"
#include "hw/msp430_lea.hpp"

namespace chrysalis::sim {
namespace {

EnergyEnv
make_env(double p_eh_w, double cap_f = 100e-6)
{
    EnergyEnv env;
    env.p_eh_w = p_eh_w;
    env.capacitor.capacitance_f = cap_f;
    return env;
}

dataflow::ModelCost
kws_cost(std::int64_t tiles_k = 1)
{
    const auto model = dnn::make_kws_mlp();
    const hw::Msp430Lea mcu;
    std::vector<dataflow::LayerMapping> mappings(model.layer_count());
    for (std::size_t i = 0; i < mappings.size(); ++i) {
        mappings[i].tiles_k = tiles_k;
        mappings[i].clamp_to(model.layer(i));
    }
    return dataflow::analyze_model(model, mappings, mcu.cost_params());
}

TEST(AnalyticHelpersTest, CycleStoreEnergyMatchesFormula)
{
    const EnergyEnv env = make_env(10e-3);
    // eta_dis * 1/2 C (U_on^2 - U_off^2)
    const double expected =
        0.85 * 0.5 * 100e-6 * (3.5 * 3.5 - 2.2 * 2.2);
    EXPECT_NEAR(cycle_store_energy(env), expected, 1e-12);
}

TEST(AnalyticHelpersTest, EffectivePowerDecreasesWithCapacitance)
{
    const double p_small = effective_power(make_env(10e-3, 10e-6));
    const double p_large = effective_power(make_env(10e-3, 10e-3));
    EXPECT_GT(p_small, p_large);
}

TEST(AnalyticHelpersTest, EffectivePowerNegativeWhenLeakageDominates)
{
    // 10 mF at U_on = 3.5 V leaks 0.01*0.01*12.25 = 1.2 mW; with only
    // 0.5 mW harvested the effective power is negative.
    EXPECT_LT(effective_power(make_env(0.5e-3, 10e-3)), 0.0);
}

TEST(AnalyticHelpersTest, CycleBudgetGrowsWithTileTime)
{
    const EnergyEnv env = make_env(10e-3);
    EXPECT_GT(cycle_budget(env, 1.0), cycle_budget(env, 0.0));
    EXPECT_NEAR(cycle_budget(env, 0.0), cycle_store_energy(env), 1e-12);
}

TEST(AnalyticHelpersTest, CycleBudgetTermsFloorLeakyChargingAtZero)
{
    const EnergyEnv sunny = make_env(10e-3);
    const CycleBudget terms = cycle_budget_terms(sunny);
    EXPECT_EQ(terms.store_j, cycle_store_energy(sunny));
    EXPECT_EQ(terms.p_charge_w, effective_power(sunny));
    EXPECT_EQ(terms.for_tile(0.25), cycle_budget(sunny, 0.25));

    // Leakage-dominated: only the stored swing is left per cycle.
    const EnergyEnv leaky = make_env(0.5e-3, 10e-3);
    EXPECT_EQ(cycle_budget_terms(leaky).p_charge_w, 0.0);
    EXPECT_EQ(cycle_budget(leaky, 1.0), cycle_store_energy(leaky));
}

TEST(AnalyticEvaluateTest, FeasibleCaseComputesLatency)
{
    const auto cost = kws_cost();
    const AnalyticResult result = analytic_evaluate(cost, make_env(20e-3));
    ASSERT_TRUE(result.feasible) << result.failure.message();
    EXPECT_GT(result.latency_s, 0.0);
    EXPECT_NEAR(result.e_all_j, cost.total_energy_j(), 1e-12);
    // Latency respects both bounds.
    EXPECT_GE(result.latency_s, cost.time_s * (1.0 - 1e-9));
    EXPECT_GE(result.latency_s,
              result.e_all_j / result.p_eff_w * (1.0 - 1e-9));
}

TEST(AnalyticEvaluateTest, LatencyScalesInverselyWithHarvestWhenStarved)
{
    // Tiled so every tile fits one energy cycle even at 2 mW.
    const auto cost = kws_cost(/*tiles_k=*/8);
    const AnalyticResult lo = analytic_evaluate(cost, make_env(2e-3));
    const AnalyticResult hi = analytic_evaluate(cost, make_env(4e-3));
    ASSERT_TRUE(lo.feasible);
    ASSERT_TRUE(hi.feasible);
    EXPECT_GT(lo.latency_s, hi.latency_s);
}

TEST(AnalyticEvaluateTest, ComputeBoundWhenHarvestIsAbundant)
{
    const auto cost = kws_cost();
    const AnalyticResult result =
        analytic_evaluate(cost, make_env(500e-3));
    ASSERT_TRUE(result.feasible);
    // With abundant harvest the cold start is sub-millisecond and the
    // latency collapses to the active execution time.
    EXPECT_NEAR(result.latency_s, cost.time_s + result.cold_start_s,
                1e-12);
    EXPECT_LT(result.cold_start_s, 0.01 * cost.time_s);
}

TEST(AnalyticEvaluateTest, ColdStartGrowsWithCapacitance)
{
    const auto cost = kws_cost(/*tiles_k=*/8);
    const AnalyticResult small =
        analytic_evaluate(cost, make_env(10e-3, 47e-6));
    const AnalyticResult large =
        analytic_evaluate(cost, make_env(10e-3, 4.7e-3));
    ASSERT_TRUE(small.feasible);
    ASSERT_TRUE(large.feasible);
    EXPECT_GT(large.cold_start_s, small.cold_start_s * 50.0);
    EXPECT_GT(large.latency_s, small.latency_s);
}

TEST(AnalyticEvaluateTest, InfeasibleOnLeakageDominance)
{
    const auto cost = kws_cost();
    const AnalyticResult result =
        analytic_evaluate(cost, make_env(0.1e-3, 10e-3));
    EXPECT_FALSE(result.feasible);
    EXPECT_EQ(result.failure.code,
              fault::FailureCode::kLeakageDominates);
}

TEST(AnalyticEvaluateTest, InfeasibleWhenTileExceedsCycle)
{
    // Tiny capacitor and weak harvest: an untiled KWS layer cannot fit in
    // one energy cycle.
    const auto cost = kws_cost();
    const AnalyticResult result =
        analytic_evaluate(cost, make_env(0.2e-3, 1e-6));
    EXPECT_FALSE(result.feasible);
    EXPECT_EQ(result.failure.code,
              fault::FailureCode::kTileExceedsCycle);
}

TEST(AnalyticEvaluateTest, InfeasibleCostPropagates)
{
    auto cost = kws_cost();
    cost.feasible = false;
    const AnalyticResult result = analytic_evaluate(cost, make_env(20e-3));
    EXPECT_FALSE(result.feasible);
    EXPECT_EQ(result.failure.code,
              fault::FailureCode::kMappingInfeasible);
}

TEST(MinTilesEq9Test, HarvestSufficientNeedsNoSplit)
{
    // P_eff * T_body >= E_body: the layer runs off concurrent harvest.
    const EnergyEnv env = make_env(20e-3);
    EXPECT_EQ(min_tiles_eq9(1e-3, 1.0, 1e-6, env), 1);
}

TEST(MinTilesEq9Test, StorageBridgingSetsTheBound)
{
    // Deficit of (E_body - P_eff*T) must be covered in chunks of
    // (store - ckpt) each.
    const EnergyEnv env = make_env(2e-3);
    const double store = cycle_store_energy(env);
    const double p_eff = effective_power(env);
    const double e_body = p_eff * 1.0 + 4.5 * store;  // 4.5 chunks over
    EXPECT_EQ(min_tiles_eq9(e_body, 1.0, 0.0, env), 5);
}

TEST(MinTilesEq9Test, OverheadExceedingCycleIsHopeless)
{
    const EnergyEnv env = make_env(2e-3, 10e-6);
    const double store = cycle_store_energy(env);
    EXPECT_EQ(min_tiles_eq9(1.0, 0.1, store * 1.1, env), -1);
}

TEST(MinTilesEq9Test, BoundGrowsInDarkerEnvironments)
{
    // §III-B3: "in the case of low environmental energy each layer will
    // be divided into a larger number of tiles."
    const double e_body = 5e-3;
    const double t_body = 1.0;
    const auto bright = min_tiles_eq9(e_body, t_body, 10e-6,
                                      make_env(8e-3));
    const auto dark = min_tiles_eq9(e_body, t_body, 10e-6,
                                    make_env(1e-3));
    ASSERT_GT(bright, 0);
    ASSERT_GT(dark, 0);
    EXPECT_GE(dark, bright);
}

TEST(MinTilesEq9Test, ConsistentWithCycleBudget)
{
    // Splitting by the bound makes each tile fit its cycle budget; one
    // tile fewer does not.
    const EnergyEnv env = make_env(2e-3);
    const double e_body = 20e-3;
    const double t_body = 3.0;
    const double ckpt = 20e-6;
    const auto n = min_tiles_eq9(e_body, t_body, ckpt, env);
    ASSERT_GT(n, 1);
    const auto fits = [&](std::int64_t tiles) {
        const double tile_e = e_body / static_cast<double>(tiles) + ckpt;
        const double tile_t = t_body / static_cast<double>(tiles);
        return tile_e <= cycle_budget(env, tile_t) + 1e-15;
    };
    EXPECT_TRUE(fits(n));
    EXPECT_FALSE(fits(n - 1));
}

TEST(MinTilesEq9DeathTest, NegativeInputsAreFatal)
{
    const EnergyEnv env = make_env(2e-3);
    EXPECT_EXIT(min_tiles_eq9(-1.0, 1.0, 0.0, env),
                ::testing::ExitedWithCode(1), "negative");
}

TEST(AnalyticEvaluateTest, SystemEfficiencyIsFractionOfHarvest)
{
    const auto cost = kws_cost();
    const AnalyticResult result = analytic_evaluate(cost, make_env(20e-3));
    ASSERT_TRUE(result.feasible);
    EXPECT_GT(result.system_efficiency, 0.0);
    EXPECT_LT(result.system_efficiency, 1.0);
    EXPECT_NEAR(result.e_harvest_j, 20e-3 * result.latency_s, 1e-12);
}

TEST(AnalyticEvaluateTest, BiggerPanelNeverHurtsLatency)
{
    const auto cost = kws_cost(/*tiles_k=*/8);
    double prev = 1e300;
    for (double p : {1e-3, 2e-3, 5e-3, 10e-3, 50e-3}) {
        const AnalyticResult result = analytic_evaluate(cost, make_env(p));
        ASSERT_TRUE(result.feasible) << p;
        EXPECT_LE(result.latency_s, prev * (1.0 + 1e-12));
        prev = result.latency_s;
    }
}

}  // namespace
}  // namespace chrysalis::sim
