/// \file
/// Scenario example: an autonomous volcanic/field monitoring station
/// (the paper's §I motivates continuous volcano hazard monitoring as an
/// AuT use case). The station runs a HAR-class 1-D CNN over seismometer
/// windows and must meet a 30 s inference deadline with the smallest
/// possible solar panel; after design generation, the chosen architecture
/// is stress-tested across a full simulated day with a cloudy diurnal
/// light profile.
///
/// Run: ./build/examples/volcano_monitor

#include <cstdio>

#include "common/string_utils.hpp"
#include "core/chrysalis.hpp"
#include "core/scenarios.hpp"
#include "energy/energy_controller.hpp"
#include "energy/solar_environment.hpp"

int
main()
{
    using namespace chrysalis;

    // 1. Generate the architecture with the environment-monitor scenario
    //    (minimize solar panel subject to a 30 s latency deadline).
    core::Scenario scenario = core::make_environment_monitor_scenario();
    std::printf("Scenario: %s\n  %s\n\n", scenario.name.c_str(),
                scenario.description.c_str());
    core::Chrysalis tool(scenario.inputs);
    core::AuTSolution solution = tool.generate();
    if (!solution.feasible) {
        std::printf("no feasible design found\n");
        return 1;
    }
    std::printf("%s\n", solution.describe(tool.inputs().model).c_str());

    // 2. Stress-test across a simulated day: cloudy diurnal light, one
    //    inference attempt per hour between 7am and 5pm.
    energy::DiurnalSolarEnvironment::Config env_config;
    env_config.peak_k_eh = 1.6e-3;   // hazy mountain sun
    env_config.cloud_depth = 0.5;
    env_config.cloud_period_s = 1200;
    env_config.seed = 99;

    energy::Capacitor::Config cap_config;
    cap_config.capacitance_f = solution.hardware.capacitance_f;
    cap_config.initial_voltage_v = 0.0;  // deployed with empty storage
    energy::EnergyController controller(
        energy::SolarPanel(
            solution.hardware.solar_cm2,
            std::make_shared<energy::DiurnalSolarEnvironment>(env_config)),
        energy::Capacitor(cap_config),
        energy::PowerManagementIc{energy::PowerManagementIc::Config{}});

    std::printf("Simulated deployment day (cloudy diurnal profile):\n");
    std::printf("  %-6s %-12s %-10s %-8s %s\n", "hour", "latency",
                "cycles", "excep.", "deadline");
    int met = 0, attempted = 0;
    for (int hour = 7; hour <= 17; ++hour) {
        sim::SimConfig config;
        config.start_time_s = hour * 3600.0;
        config.step_s = 0.05;
        config.max_sim_time_s = 3600.0;  // give up after an hour
        config.seed = static_cast<std::uint64_t>(hour);
        const sim::SimResult result =
            sim::simulate_inference(solution.cost, controller, config);
        ++attempted;
        if (!result.completed) {
            std::printf("  %02d:00  %-12s %-10s %-8s %s\n", hour,
                        "-", "-", "-", result.failure.message().c_str());
            continue;
        }
        const bool ok = result.latency_s <=
                        tool.inputs().objective.lat_limit_s;
        met += ok ? 1 : 0;
        std::printf("  %02d:00  %-12s %-10lld %-8lld %s\n", hour,
                    format_si(result.latency_s, "s").c_str(),
                    static_cast<long long>(result.energy_cycles),
                    static_cast<long long>(result.exceptions),
                    ok ? "met" : "MISSED");
    }
    std::printf("\nDeadline met in %d/%d attempts across the day.\n", met,
                attempted);
    return met > 0 ? 0 : 1;
}
