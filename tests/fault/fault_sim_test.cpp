/// \file
/// Integration tests of fault injection against the energy subsystem and
/// the step simulator: deterministic replay, dropout storms, ageing,
/// checkpoint corruption and the analytic fault derating.

#include <memory>

#include <gtest/gtest.h>

#include "dnn/model_zoo.hpp"
#include "fault/fault_injector.hpp"
#include "hw/msp430_lea.hpp"
#include "sim/analytic_evaluator.hpp"
#include "sim/intermittent_simulator.hpp"

namespace chrysalis::fault {
namespace {

dataflow::ModelCost
kws_cost(std::int64_t tiles_k = 4)
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

sim::SimConfig
fast_config()
{
    sim::SimConfig config;
    config.step_s = 0.01;
    config.exception_rate = 0.0;
    return config;
}

/// Starved scenario that duty-cycles: the 47 uF capacitor cannot hold
/// one inference's energy, so brown-outs (and thus checkpoint restores)
/// happen mid-tile.
sim::SimResult
starved_run(const FaultInjector* faults,
            double max_sim_time_s = 3.0e5)
{
    const auto cost = kws_cost();
    auto controller = make_controller(1.0, 0.5e-3, 47e-6, 0.0);
    sim::SimConfig config = fast_config();
    config.faults = faults;
    config.max_sim_time_s = max_sim_time_s;
    return sim::simulate_inference(cost, controller, config);
}

TEST(FaultSimTest, InjectionIsDeterministicAcrossRuns)
{
    FaultSpec spec;
    spec.seed = 5;
    spec.dropout_window_s = 10.0;
    spec.dropout_probability = 0.3;
    spec.dropout_duration_s = 2.0;
    spec.ckpt_corruption_rate = 0.2;
    const FaultInjector faults(spec);
    const sim::SimResult a = starved_run(&faults);
    const sim::SimResult b = starved_run(&faults);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.latency_s, b.latency_s);
    EXPECT_EQ(a.tiles_executed, b.tiles_executed);
    EXPECT_EQ(a.energy_cycles, b.energy_cycles);
    EXPECT_EQ(a.ckpt_restores, b.ckpt_restores);
    EXPECT_EQ(a.ckpt_corruptions, b.ckpt_corruptions);
    EXPECT_EQ(a.e_all_j(), b.e_all_j());
}

TEST(FaultSimTest, DropoutStormStretchesLatency)
{
    // Sub-second windows so even this short run crosses many of them.
    FaultSpec spec;
    spec.seed = 3;
    spec.dropout_window_s = 1.0;
    spec.dropout_probability = 0.8;
    spec.dropout_duration_s = 0.5;  // half the window dark
    const FaultInjector faults(spec);
    const sim::SimResult clean = starved_run(nullptr);
    const sim::SimResult stormy = starved_run(&faults);
    ASSERT_TRUE(clean.completed) << clean.failure.message();
    ASSERT_TRUE(stormy.completed) << stormy.failure.message();
    EXPECT_GT(stormy.latency_s, clean.latency_s);
    // The load-side work is the same; only the charging slowed down.
    EXPECT_NEAR(stormy.e_infer_j, clean.e_infer_j,
                0.2 * clean.e_infer_j);
}

TEST(FaultSimTest, TotalBlackoutIsUnavailable)
{
    // A permanent full-depth dropout is a zero-harvest environment: the
    // simulator's turn-on reachability check must report the device
    // unavailable instead of hanging or crashing.
    FaultSpec spec;
    spec.dropout_window_s = 1e9;
    spec.dropout_probability = 1.0;
    spec.dropout_duration_s = 1e9;
    spec.dropout_depth = 0.0;
    const FaultInjector faults(spec);
    const sim::SimResult result =
        starved_run(&faults, /*max_sim_time_s=*/500.0);
    EXPECT_FALSE(result.completed);
    EXPECT_EQ(result.failure.code, FailureCode::kUnavailable);
}

TEST(FaultSimTest, CheckpointCorruptionForcesReexecution)
{
    FaultSpec spec;
    spec.seed = 11;
    spec.ckpt_corruption_rate = 0.5;
    const FaultInjector faults(spec);
    const sim::SimResult clean = starved_run(nullptr);
    const sim::SimResult corrupted = starved_run(&faults);
    ASSERT_TRUE(clean.completed) << clean.failure.message();
    ASSERT_TRUE(corrupted.completed) << corrupted.failure.message();
    EXPECT_EQ(clean.ckpt_corruptions, 0);
    ASSERT_GT(clean.ckpt_restores, 0);
    EXPECT_GT(corrupted.ckpt_corruptions, 0);
    // Every corruption re-reads a checkpoint and redoes work.
    EXPECT_GT(corrupted.ckpt_restores, clean.ckpt_restores);
    EXPECT_GT(corrupted.latency_s, clean.latency_s);
}

TEST(FaultSimTest, AlwaysCorruptedRestoreCannotLiveLock)
{
    // rate = 1.0: every restore reads garbage, so the run never makes
    // progress past its first brown-out — it must end in a timeout
    // rather than spin forever.
    FaultSpec spec;
    spec.ckpt_corruption_rate = 1.0;
    const FaultInjector faults(spec);
    const sim::SimResult result =
        starved_run(&faults, /*max_sim_time_s=*/500.0);
    EXPECT_FALSE(result.completed);
    EXPECT_EQ(result.failure.code, FailureCode::kTimeout);
    EXPECT_GT(result.ckpt_corruptions, 0);
}

TEST(FaultSimTest, AgedLeakageSlowsTheDeviceDown)
{
    // Capacitor fade alone can cut either way (a smaller charge quantum
    // wastes less in the final cycle), so isolate leakage growth: a
    // leakier aged capacitor strictly slows every charge phase.
    FaultSpec spec;
    spec.mission_age_years = 10.0;
    spec.cap_fade_per_year = 0.0;
    spec.leakage_growth_per_year = 0.3;  // 1.3^10 ~ 13.8x leakage
    const FaultInjector faults(spec);
    const sim::SimResult young = starved_run(nullptr);
    const sim::SimResult old = starved_run(&faults);
    ASSERT_TRUE(young.completed) << young.failure.message();
    ASSERT_TRUE(old.completed) << old.failure.message();
    EXPECT_GT(old.ledger.leaked_j, young.ledger.leaked_j);
    EXPECT_GT(old.latency_s, young.latency_s);
}

TEST(FaultSimTest, AnalyticDeratingTracksSimulatedStorm)
{
    // with_faults() must derate the analytic environment the same
    // direction the simulator experiences: latency grows under faults.
    const auto cost = kws_cost(1);
    sim::EnergyEnv env;
    env.p_eh_w = 8.0 * 2e-3;
    env.capacitor.capacitance_f = 470e-6;
    const sim::AnalyticResult clean = sim::analytic_evaluate(cost, env);

    FaultSpec spec;
    spec.dropout_window_s = 100.0;
    spec.dropout_probability = 0.5;
    spec.dropout_duration_s = 50.0;
    spec.mission_age_years = 5.0;
    const FaultInjector faults(spec);
    const sim::AnalyticResult derated =
        sim::analytic_evaluate(cost, sim::with_faults(env, faults));
    ASSERT_TRUE(clean.feasible) << clean.failure.message();
    ASSERT_TRUE(derated.feasible) << derated.failure.message();
    EXPECT_GT(derated.latency_s, clean.latency_s);
}

TEST(FaultSimDeathTest, ReplacingAnAttachedModelIsFatal)
{
    const FaultInjector first{FaultSpec{}};
    FaultSpec other_spec;
    other_spec.seed = 2;
    const FaultInjector second{other_spec};
    auto controller = make_controller(8.0, 2e-3, 470e-6);
    controller.attach_fault_model(&first);
    controller.attach_fault_model(&first);  // same model: idempotent
    EXPECT_EXIT(controller.attach_fault_model(&second),
                ::testing::ExitedWithCode(1), "fault model");
}

}  // namespace
}  // namespace chrysalis::fault
