/// \file
/// Cross-module integration tests: full pipelines from workload through
/// exploration to step-simulated validation, plus the paper's headline
/// qualitative claims at reduced search budgets.

#include <gtest/gtest.h>

#include "common/math_utils.hpp"
#include "core/chrysalis.hpp"
#include "dnn/model_zoo.hpp"
#include "energy/solar_environment.hpp"

namespace chrysalis {
namespace {

search::ExplorerOptions
budget(std::uint64_t seed, int pop = 12, int gens = 6)
{
    search::ExplorerOptions options;
    options.outer.population = pop;
    options.outer.generations = gens;
    options.outer.seed = seed;
    options.inner.max_candidates_per_dim = 4;
    return options;
}

TEST(EndToEndTest, MspPipelineForEveryTableIvWorkload)
{
    for (const auto& name : dnn::table4_workloads()) {
        core::ChrysalisInputs inputs{
            dnn::make_model(name),
            search::DesignSpace::existing_aut(),
            search::Objective{search::ObjectiveKind::kLatSp, 0.0, 0.0},
            budget(1000 + static_cast<std::uint64_t>(name.size())),
        };
        const core::Chrysalis tool(std::move(inputs));
        const core::AuTSolution solution = tool.generate();
        EXPECT_TRUE(solution.feasible) << name;
        EXPECT_GT(solution.mean_latency_s, 0.0) << name;
    }
}

TEST(EndToEndTest, AcceleratorPipelineForEveryTableVWorkload)
{
    for (const auto& name : dnn::table5_workloads()) {
        core::ChrysalisInputs inputs{
            dnn::make_model(name),
            search::DesignSpace::future_aut(),
            search::Objective{search::ObjectiveKind::kLatSp, 0.0, 0.0},
            budget(2024 + name.size()),
        };
        const core::Chrysalis tool(std::move(inputs));
        const core::AuTSolution solution = tool.generate();
        ASSERT_TRUE(solution.feasible) << name;
        EXPECT_GE(solution.hardware.n_pe, 1) << name;
        EXPECT_LE(solution.hardware.n_pe, 168) << name;
        EXPECT_GE(solution.hardware.cache_bytes, 128) << name;
        EXPECT_LE(solution.hardware.cache_bytes, 2048) << name;
        EXPECT_GT(solution.mean_latency_s, 0.0) << name;
    }
}

TEST(EndToEndTest, MobilenetExtensionRunsOnBothSetups)
{
    // The depthwise-separable extension workload must survive both the
    // future-AuT accelerator pipeline and the step simulator.
    core::ChrysalisInputs inputs{
        dnn::make_mobilenet_tiny(),
        search::DesignSpace::future_aut(),
        search::Objective{search::ObjectiveKind::kLatSp, 0.0, 0.0},
        budget(555),
    };
    const core::Chrysalis tool(std::move(inputs));
    const core::AuTSolution solution = tool.generate();
    ASSERT_TRUE(solution.feasible);
    const auto validation =
        tool.validate(solution, /*k_eh=*/2e-3, sim::SimConfig{}, 4);
    EXPECT_TRUE(validation.sim.completed)
        << validation.sim.failure.message();
}

TEST(EndToEndTest, SearchedDesignBeatsIdleDefaults)
{
    // The central claim: searching the joint space improves on the frozen
    // default configuration for the same workload and objective.
    core::ChrysalisInputs inputs{
        dnn::make_har_cnn(),
        search::DesignSpace::existing_aut(),
        search::Objective{search::ObjectiveKind::kLatSp, 0.0, 0.0},
        budget(31, 16, 8),
    };
    const core::Chrysalis tool(std::move(inputs));
    const core::AuTSolution best = tool.generate();
    const core::AuTSolution reference =
        tool.evaluate_candidate(tool.inputs().space.defaults);
    ASSERT_TRUE(best.feasible);
    ASSERT_TRUE(reference.feasible);
    EXPECT_LE(best.score, reference.score);
    EXPECT_GT(relative_improvement(reference.score, best.score), 0.0);
}

TEST(EndToEndTest, SolutionSurvivesStepSimulationInBothEnvironments)
{
    core::ChrysalisInputs inputs{
        dnn::make_kws_mlp(),
        search::DesignSpace::existing_aut(),
        search::Objective{search::ObjectiveKind::kLatSp, 0.0, 0.0},
        budget(47),
    };
    const core::Chrysalis tool(std::move(inputs));
    const core::AuTSolution solution = tool.generate();
    ASSERT_TRUE(solution.feasible);
    for (double k_eh : tool.inputs().options.k_eh_envs) {
        const auto validation = tool.validate(solution, k_eh,
                                              sim::SimConfig{}, 6);
        EXPECT_TRUE(validation.sim.completed)
            << "k_eh=" << k_eh << ": "
            << validation.sim.failure.message();
    }
}

TEST(EndToEndTest, ObjectivesProduceDifferentDesignPoints)
{
    const dnn::Model model = dnn::make_cifar10_cnn();
    const auto run = [&](search::Objective objective,
                         std::uint64_t seed) {
        core::ChrysalisInputs inputs{model,
                                     search::DesignSpace::existing_aut(),
                                     objective, budget(seed, 16, 8)};
        return core::Chrysalis(std::move(inputs)).generate();
    };
    const auto lat = run({search::ObjectiveKind::kLatency, 10.0, 0.0},
                         61);
    const auto sp = run({search::ObjectiveKind::kSolarPanel, 0.0, 60.0},
                        61);
    ASSERT_TRUE(lat.feasible);
    ASSERT_TRUE(sp.feasible);
    // Latency-first buys a panel near its budget; panel-first shrinks it.
    EXPECT_GT(lat.hardware.solar_cm2, sp.hardware.solar_cm2);
    EXPECT_LE(lat.hardware.solar_cm2, 10.0 + 1e-9);
    EXPECT_LE(sp.mean_latency_s, 60.0 + 1e-9);
}

TEST(EndToEndTest, DiurnalEnvironmentDrivesRepeatedInference)
{
    // Run the simulator against a diurnal trace to exercise the
    // time-varying k_eh path end to end.
    const auto model = dnn::make_kws_mlp();
    const hw::Msp430Lea mcu;
    std::vector<dataflow::LayerMapping> mappings(model.layer_count());
    for (std::size_t i = 0; i < mappings.size(); ++i) {
        mappings[i].tiles_k = 4;
        mappings[i].clamp_to(model.layer(i));
    }
    const auto cost =
        dataflow::analyze_model(model, mappings, mcu.cost_params());

    energy::DiurnalSolarEnvironment::Config env_config;
    env_config.cloud_depth = 0.3;
    energy::Capacitor::Config cap;
    cap.capacitance_f = 470e-6;
    cap.initial_voltage_v = 3.5;
    energy::EnergyController controller(
        energy::SolarPanel(
            10.0, std::make_shared<energy::DiurnalSolarEnvironment>(
                      env_config)),
        energy::Capacitor(cap),
        energy::PowerManagementIc{energy::PowerManagementIc::Config{}});

    sim::SimConfig config;
    config.start_time_s = 9.0 * 3600;  // 9am
    config.step_s = 0.05;
    const auto results =
        sim::simulate_repeated(cost, controller, config, 4);
    for (const auto& result : results)
        EXPECT_TRUE(result.completed) << result.failure.message();
}

}  // namespace
}  // namespace chrysalis
