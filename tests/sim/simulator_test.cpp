/// \file
/// Tests for the step-based intermittent simulator: completion, energy
/// cycles, exceptions, unavailability and the energy ledger.

#include "sim/intermittent_simulator.hpp"

#include <gtest/gtest.h>

#include "dnn/model_zoo.hpp"
#include "hw/msp430_lea.hpp"
#include "search/mapping_search.hpp"

namespace chrysalis::sim {
namespace {

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

energy::EnergyController
make_controller(double area_cm2, double k_eh, double cap_f,
                double v0 = 3.5)
{
    energy::Capacitor::Config cap;
    cap.capacitance_f = cap_f;
    cap.initial_voltage_v = v0;
    return energy::EnergyController(
        energy::SolarPanel(
            area_cm2,
            std::make_shared<energy::ConstantSolarEnvironment>(k_eh,
                                                               "test")),
        energy::Capacitor(cap),
        energy::PowerManagementIc{energy::PowerManagementIc::Config{}});
}

SimConfig
fast_config()
{
    SimConfig config;
    config.step_s = 0.01;
    config.exception_rate = 0.0;
    return config;
}

TEST(SimulatorTest, CompletesWithAmplePower)
{
    const auto cost = kws_cost();
    auto controller = make_controller(20.0, 2e-3, 470e-6);
    const SimResult result =
        simulate_inference(cost, controller, fast_config());
    ASSERT_TRUE(result.completed) << result.failure.message();
    EXPECT_EQ(result.tiles_executed, result.tiles_total);
    EXPECT_GT(result.latency_s, 0.0);
    EXPECT_GT(result.e_infer_j, 0.0);
}

TEST(SimulatorTest, WeakerHarvestMeansLongerLatency)
{
    // The capacitor (100 uF) cannot hold the whole inference's energy, so
    // the weak-harvest run must duty-cycle while the strong one runs
    // through.
    const auto cost = kws_cost(/*tiles_k=*/4);
    auto strong = make_controller(20.0, 2e-3, 100e-6);
    auto weak = make_controller(2.0, 2e-3, 100e-6);
    const SimResult fast =
        simulate_inference(cost, strong, fast_config());
    const SimResult slow = simulate_inference(cost, weak, fast_config());
    ASSERT_TRUE(fast.completed);
    ASSERT_TRUE(slow.completed);
    EXPECT_GT(slow.latency_s, fast.latency_s);
}

TEST(SimulatorTest, ChargeCyclesAppearWhenStarved)
{
    // Load power (~9 mW) far exceeds harvest (1 cm^2 * 0.5 mW): the
    // system must duty-cycle through charge/run cycles.
    const auto cost = kws_cost(/*tiles_k=*/4);
    auto controller = make_controller(1.0, 0.5e-3, 1e-3, 0.0);
    const SimResult result =
        simulate_inference(cost, controller, fast_config());
    ASSERT_TRUE(result.completed) << result.failure.message();
    EXPECT_GE(result.energy_cycles, 1);
    EXPECT_GT(result.latency_s, result.active_time_s);
}

TEST(SimulatorTest, UnavailableWhenLeakageBlocksTurnOn)
{
    // 10 mF leaks ~1.2 mW at U_on; harvest of 0.5 mW can never charge.
    const auto cost = kws_cost();
    auto controller = make_controller(1.0, 0.5e-3, 10e-3, 0.0);
    const SimResult result =
        simulate_inference(cost, controller, fast_config());
    EXPECT_FALSE(result.completed);
    EXPECT_EQ(result.failure.code, fault::FailureCode::kUnavailable);
}

TEST(SimulatorTest, InfeasibleCostFailsFast)
{
    auto cost = kws_cost();
    cost.feasible = false;
    auto controller = make_controller(8.0, 2e-3, 100e-6);
    const SimResult result =
        simulate_inference(cost, controller, fast_config());
    EXPECT_FALSE(result.completed);
    EXPECT_EQ(result.failure.code,
              fault::FailureCode::kMappingInfeasible);
}

TEST(SimulatorTest, ExceptionsTriggerReexecution)
{
    const auto cost = kws_cost(/*tiles_k=*/4);
    auto controller = make_controller(20.0, 2e-3, 1e-3);
    SimConfig config = fast_config();
    config.exception_rate = 0.9;
    config.seed = 7;
    const SimResult result =
        simulate_inference(cost, controller, config);
    ASSERT_TRUE(result.completed) << result.failure.message();
    EXPECT_GT(result.exceptions, 0);
    // Exceptions cost checkpoint energy.
    EXPECT_GT(result.e_ckpt_j, 0.0);
}

TEST(SimulatorTest, ExceptionsIncreaseLatency)
{
    const auto cost = kws_cost(/*tiles_k=*/4);
    SimConfig clean = fast_config();
    SimConfig flaky = fast_config();
    flaky.exception_rate = 0.9;
    flaky.seed = 11;
    auto controller_a = make_controller(5.0, 2e-3, 1e-3);
    auto controller_b = make_controller(5.0, 2e-3, 1e-3);
    const SimResult without =
        simulate_inference(cost, controller_a, clean);
    const SimResult with = simulate_inference(cost, controller_b, flaky);
    ASSERT_TRUE(without.completed);
    ASSERT_TRUE(with.completed);
    EXPECT_GT(with.latency_s, without.latency_s);
}

TEST(SimulatorTest, DeterministicForFixedSeed)
{
    const auto cost = kws_cost(/*tiles_k=*/2);
    SimConfig config = fast_config();
    config.exception_rate = 0.3;
    config.seed = 42;
    auto controller_a = make_controller(5.0, 2e-3, 470e-6);
    auto controller_b = make_controller(5.0, 2e-3, 470e-6);
    const SimResult a = simulate_inference(cost, controller_a, config);
    const SimResult b = simulate_inference(cost, controller_b, config);
    EXPECT_DOUBLE_EQ(a.latency_s, b.latency_s);
    EXPECT_EQ(a.exceptions, b.exceptions);
    EXPECT_DOUBLE_EQ(a.e_ckpt_j, b.e_ckpt_j);
}

TEST(SimulatorTest, EnergyBreakdownSumsToEAll)
{
    const auto cost = kws_cost();
    auto controller = make_controller(20.0, 2e-3, 470e-6);
    const SimResult result =
        simulate_inference(cost, controller, fast_config());
    ASSERT_TRUE(result.completed);
    EXPECT_NEAR(result.e_all_j(),
                result.e_infer_j + result.e_nvm_j + result.e_static_j +
                    result.e_ckpt_j,
                1e-15);
    // Without exceptions the body energy matches the cost model exactly.
    const double expected_body = cost.e_compute_j + cost.e_vm_j +
                                 cost.e_nvm_j + cost.e_static_j;
    EXPECT_NEAR(result.e_infer_j + result.e_nvm_j + result.e_static_j,
                expected_body, expected_body * 1e-6);
}

TEST(SimulatorTest, LedgerTracksHarvest)
{
    const auto cost = kws_cost();
    auto controller = make_controller(10.0, 2e-3, 470e-6);
    const SimResult result =
        simulate_inference(cost, controller, fast_config());
    ASSERT_TRUE(result.completed);
    // Harvested energy ~ P_eh * latency.
    EXPECT_NEAR(result.ledger.harvested_j, 20e-3 * result.latency_s,
                20e-3 * result.latency_s * 0.05);
    EXPECT_GT(result.system_efficiency(), 0.0);
}

TEST(SimulatorTest, TimeoutReportsProgress)
{
    const auto cost = kws_cost();
    auto controller = make_controller(1.0, 0.05e-3, 100e-6, 0.0);
    SimConfig config = fast_config();
    config.max_sim_time_s = 5.0;  // far too short to charge
    const SimResult result =
        simulate_inference(cost, controller, config);
    EXPECT_FALSE(result.completed);
    EXPECT_EQ(result.failure.code, fault::FailureCode::kTimeout);
}

TEST(SimulatorTest, RepeatedRunsContinueWallClock)
{
    const auto cost = kws_cost();
    auto controller = make_controller(10.0, 2e-3, 470e-6);
    const auto results =
        simulate_repeated(cost, controller, fast_config(), 3);
    ASSERT_EQ(results.size(), 3u);
    for (const auto& result : results)
        EXPECT_TRUE(result.completed);
    // Per-run ledgers are deltas, not cumulative.
    EXPECT_LT(results[2].ledger.harvested_j,
              3.0 * results[0].ledger.harvested_j + 1e-6);
}

TEST(SimulatorTest, OnDemandPolicySavesCheckpointEnergyUnderStablePower)
{
    // Stable, abundant power: no brown-outs, so the on-demand policy
    // writes no checkpoints at all while eager pays one per tile.
    const auto cost = kws_cost(/*tiles_k=*/8);
    SimConfig eager = fast_config();
    SimConfig on_demand = fast_config();
    on_demand.checkpoint_policy = CheckpointPolicy::kOnDemand;
    auto controller_a = make_controller(20.0, 2e-3, 470e-6);
    auto controller_b = make_controller(20.0, 2e-3, 470e-6);
    const SimResult with_eager =
        simulate_inference(cost, controller_a, eager);
    const SimResult with_on_demand =
        simulate_inference(cost, controller_b, on_demand);
    ASSERT_TRUE(with_eager.completed);
    ASSERT_TRUE(with_on_demand.completed);
    EXPECT_GT(with_eager.e_ckpt_j, 0.0);
    EXPECT_LT(with_on_demand.e_ckpt_j, with_eager.e_ckpt_j * 0.1);
}

TEST(SimulatorTest, OnDemandPolicyStillPaysForBrownOuts)
{
    // Starved power with a capacitor too small to hold a whole tile:
    // brown-outs force saves under both policies.
    const auto cost = kws_cost(/*tiles_k=*/4);
    SimConfig config = fast_config();
    config.checkpoint_policy = CheckpointPolicy::kOnDemand;
    auto controller = make_controller(1.0, 0.5e-3, 47e-6, 0.0);
    const SimResult result =
        simulate_inference(cost, controller, config);
    ASSERT_TRUE(result.completed) << result.failure.message();
    EXPECT_GT(result.e_ckpt_j, 0.0);
}

TEST(SimulatorTest, ProbeObservesEnergyCycles)
{
    // Starved power: the probe must see voltage swinging between the
    // thresholds and both charging and active phases.
    const auto cost = kws_cost(/*tiles_k=*/4);
    auto controller = make_controller(1.0, 0.5e-3, 470e-6, 0.0);
    SimConfig config = fast_config();
    double min_v = 1e9, max_v = -1e9;
    int charging_samples = 0, active_samples = 0;
    config.probe = [&](double, double v, bool active) {
        min_v = std::min(min_v, v);
        max_v = std::max(max_v, v);
        (active ? active_samples : charging_samples) += 1;
    };
    const SimResult result =
        simulate_inference(cost, controller, config);
    ASSERT_TRUE(result.completed) << result.failure.message();
    EXPECT_GT(charging_samples, 0);
    EXPECT_GT(active_samples, 0);
    // Voltage visits the turn-on threshold and dips below it while
    // running (periodic energy cycles).
    EXPECT_GE(max_v, 3.5 - 1e-6);
    EXPECT_LT(min_v, 3.5);
}

TEST(SimulatorDeathTest, BadConfigIsFatal)
{
    const auto cost = kws_cost();
    auto controller = make_controller(10.0, 2e-3, 470e-6);
    SimConfig config;
    config.step_s = 0.0;
    EXPECT_EXIT(simulate_inference(cost, controller, config),
                ::testing::ExitedWithCode(1), "step_s");
    EXPECT_EXIT(simulate_repeated(cost, controller, SimConfig{}, 0),
                ::testing::ExitedWithCode(1), "runs");
}

}  // namespace
}  // namespace chrysalis::sim
