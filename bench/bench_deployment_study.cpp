/// \file
/// Deployment study (beyond the paper's single-inference evaluation):
/// drives the CHRYSALIS-designed HAR node through a week of Markov
/// weather with periodic inference requests, and contrasts it against
/// the iNAS-style original configuration under identical weather. This
/// turns the paper's latency improvements into the quantity a deployer
/// cares about: inferences actually served per day.

#include <iostream>

#include "common/bench_util.hpp"
#include "common/string_utils.hpp"
#include "common/table.hpp"
#include "core/deployment.hpp"
#include "dnn/model_zoo.hpp"

int
main()
{
    using namespace chrysalis;
    bench::print_banner("Deployment study",
                        "One week of Markov weather, one HAR inference "
                        "request every 30 min: CHRYSALIS design vs the "
                        "iNAS original configuration.");

    const bench::Budget budget = bench::Budget::from_env();
    core::ChrysalisInputs inputs{
        dnn::make_har_cnn(),
        search::DesignSpace::existing_aut(),
        search::Objective{search::ObjectiveKind::kLatSp, 0.0, 0.0},
        bench::make_options(budget, 808)};
    const core::Chrysalis tool(std::move(inputs));
    const core::AuTSolution designed = tool.generate();
    const core::AuTSolution reference =
        tool.evaluate_candidate(bench::inas_reference_candidate());
    if (!designed.feasible || !reference.feasible) {
        std::cout << "search failed to produce comparable designs\n";
        return 1;
    }

    energy::MarkovWeatherEnvironment::Config weather_config;
    weather_config.diurnal.cloud_depth = 0.2;
    const energy::MarkovWeatherEnvironment weather(weather_config);

    core::DeploymentConfig study;
    study.days = 7;
    study.request_interval_s = 1800.0;
    study.deadline_s = 60.0;
    study.sim.step_s = 0.1;

    const auto designed_report = core::simulate_deployment(
        designed, weather, energy::PowerManagementIc::Config{}, study);
    const auto reference_report = core::simulate_deployment(
        reference, weather, energy::PowerManagementIc::Config{}, study);

    TextTable table({"Design", "SP (cm^2)", "C", "Completed",
                     "On time", "Harvested"});
    const auto add = [&](const char* label,
                         const core::AuTSolution& solution,
                         const core::DeploymentReport& report) {
        table.add_row({label,
                       format_fixed(solution.hardware.solar_cm2, 1),
                       format_si(solution.hardware.capacitance_f, "F", 0),
                       format_percent(report.completion_rate),
                       format_percent(report.deadline_rate),
                       format_si(report.total_harvested_j, "J")});
    };
    add("CHRYSALIS", designed, designed_report);
    add("iNAS original", reference, reference_report);
    table.print(std::cout);
    bench::headline("deadline_rate/chrysalis",
                    designed_report.deadline_rate);
    bench::headline("deadline_rate/inas", reference_report.deadline_rate);
    bench::headline("completion_rate/chrysalis",
                    designed_report.completion_rate);
    bench::headline("completion_rate/inas",
                    reference_report.completion_rate);

    std::cout << "\nPer-day service (CHRYSALIS design):\n"
              << designed_report.summary();
    std::cout << "\nShape check: the co-designed node serves at least as "
                 "large a fraction of requests within the deadline as "
                 "the iNAS configuration under identical weather.\n";
    return designed_report.deadline_rate + 1e-9 >=
                   reference_report.deadline_rate
               ? 0
               : 1;
}
