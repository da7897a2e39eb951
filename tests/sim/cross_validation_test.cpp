/// \file
/// Cross-validation: the step-based simulator and the closed-form
/// analytic evaluator must agree on steady-state latency across
/// workloads, harvest levels and capacitor sizes. This is the repository's
/// analogue of the paper's Fig. 7 claim that "the latency trends in the
/// actual test results were similar to the simulated results".

#include <algorithm>
#include <tuple>

#include <gtest/gtest.h>

#include "dnn/model_zoo.hpp"
#include "hw/msp430_lea.hpp"
#include "sim/analytic_evaluator.hpp"
#include "sim/intermittent_simulator.hpp"

namespace chrysalis::sim {
namespace {

using CrossParam =
    std::tuple<std::string /*model*/, double /*area cm2*/, double /*cap F*/>;

class CrossValidationTest : public ::testing::TestWithParam<CrossParam>
{
};

TEST_P(CrossValidationTest, SteadyStateLatencyAgreesWithinTolerance)
{
    const auto& [model_name, area_cm2, cap_f] = GetParam();
    const auto model = dnn::make_model(model_name);
    const hw::Msp430Lea mcu;

    // Mildly tiled mapping so tiles fit typical cycles.
    std::vector<dataflow::LayerMapping> mappings(model.layer_count());
    for (std::size_t i = 0; i < mappings.size(); ++i) {
        mappings[i].tiles_k = 4;
        mappings[i].clamp_to(model.layer(i));
    }
    const auto cost =
        dataflow::analyze_model(model, mappings, mcu.cost_params());

    constexpr double kKeh = 2e-3;
    EnergyEnv env;
    env.p_eh_w = area_cm2 * kKeh;
    env.capacitor.capacitance_f = cap_f;
    const AnalyticResult analytic = analytic_evaluate(cost, env);
    if (!analytic.feasible)
        GTEST_SKIP() << "analytically infeasible: "
                     << analytic.failure.message();

    energy::Capacitor::Config cap_config = env.capacitor;
    cap_config.initial_voltage_v = env.pmic.v_off;
    energy::EnergyController controller(
        energy::SolarPanel(
            area_cm2,
            std::make_shared<energy::ConstantSolarEnvironment>(kKeh,
                                                               "cross")),
        energy::Capacitor(cap_config),
        energy::PowerManagementIc(env.pmic));

    SimConfig config;
    config.step_s = 0.02;
    config.exception_rate = 0.05;
    config.seed = 3;
    // Duty-cycled semantics: every run starts at U_off, matching the
    // analytic cold-start term.
    config.drain_between_runs = true;
    const auto results = simulate_repeated(cost, controller, config, 6);
    double latency_sum = 0.0;
    int completed = 0;
    for (const auto& result : results) {
        if (result.completed) {
            latency_sum += result.latency_s;
            ++completed;
        }
    }
    ASSERT_GT(completed, 0) << results.front().failure.message();
    const double mean_latency = latency_sum / completed;

    // Steady-state agreement within 35% (the analytic form ignores step
    // quantization, exception redo time and partially-used cycles).
    EXPECT_NEAR(mean_latency, analytic.latency_s,
                analytic.latency_s * 0.35)
        << model_name << " area=" << area_cm2 << " cap=" << cap_f;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CrossValidationTest,
    ::testing::Values(
        CrossParam{"simple_conv", 8.0, 100e-6},
        CrossParam{"simple_conv", 2.0, 470e-6},
        CrossParam{"kws", 8.0, 100e-6},
        CrossParam{"kws", 2.0, 1e-3},
        CrossParam{"kws", 30.0, 47e-6},
        CrossParam{"har", 8.0, 470e-6},
        CrossParam{"har", 15.0, 100e-6},
        CrossParam{"fc", 4.0, 100e-6},
        CrossParam{"cnn_s", 10.0, 470e-6}),
    [](const ::testing::TestParamInfo<CrossParam>& param_info) {
        return std::get<0>(param_info.param) + "_a" +
               std::to_string(static_cast<int>(std::get<1>(param_info.param))) +
               "_c" +
               std::to_string(
                   static_cast<int>(std::get<2>(param_info.param) * 1e6));
    });

}  // namespace
}  // namespace chrysalis::sim
