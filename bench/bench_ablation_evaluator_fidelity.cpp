/// \file
/// Ablation: analytic evaluator vs step-based simulator. The bi-level
/// search evaluates thousands of candidates with the closed-form model
/// and validates winners with the step simulator; this bench quantifies
/// both sides of that tradeoff — per-configuration latency error and the
/// evaluation-speed ratio.

#include <iostream>

#include "common/bench_util.hpp"
#include "common/math_utils.hpp"
#include "common/string_utils.hpp"
#include "common/table.hpp"
#include "dnn/model_zoo.hpp"
#include "energy/energy_controller.hpp"
#include "hw/msp430_lea.hpp"
#include "obs/trace.hpp"
#include "search/mapping_search.hpp"
#include "sim/analytic_evaluator.hpp"
#include "sim/intermittent_simulator.hpp"

namespace {

using namespace chrysalis;

}  // namespace

int
main()
{
    bench::print_banner("Ablation: evaluator fidelity",
                        "Closed-form analytic estimate vs step-based "
                        "simulation across (workload, panel, capacitor) "
                        "configurations.");

    const hw::Msp430Lea mcu;
    constexpr double kKeh = 2e-3;
    struct Case {
        const char* model;
        double panel_cm2;
        double cap_f;
    };
    static constexpr Case kCases[] = {
        {"simple_conv", 2.0, 47e-6},  {"simple_conv", 8.0, 470e-6},
        {"kws", 3.0, 100e-6},         {"kws", 15.0, 1e-3},
        {"har", 5.0, 220e-6},         {"har", 10.0, 47e-6},
        {"fc", 4.0, 100e-6},          {"cnn_s", 8.0, 470e-6},
        {"cifar10", 8.0, 470e-6},     {"cifar10", 20.0, 100e-6},
    };

    TextTable table({"Workload", "SP", "C", "Analytic lat", "Sim lat",
                     "Error", "Speed ratio"});
    std::vector<double> errors;
    double total_ratio = 0.0;
    int ratio_count = 0;

    for (const auto& test_case : kCases) {
        const dnn::Model model = dnn::make_model(test_case.model);
        sim::EnergyEnv env;
        env.p_eh_w = test_case.panel_cm2 * kKeh;
        env.capacitor.capacitance_f = test_case.cap_f;
        search::MappingSearchOptions options;
        const auto mapping =
            search_mappings(model, mcu, {env}, options);

        // Analytic timing: average over many repetitions.
        constexpr int kAnalyticReps = 2000;
        sim::AnalyticResult analytic;
        double analytic_time = 0.0;
        {
            const obs::SpanTimer timer("bench/analytic_eval");
            for (int i = 0; i < kAnalyticReps; ++i)
                analytic = sim::analytic_evaluate(mapping.cost, env);
            analytic_time = timer.elapsed_s() / kAnalyticReps;
        }

        if (!analytic.feasible) {
            table.add_row({test_case.model,
                           format_fixed(test_case.panel_cm2, 0),
                           format_si(test_case.cap_f, "F", 0),
                           "infeasible", "-", "-", "-"});
            continue;
        }

        // Step simulation (duty-cycled, mean of 4 runs).
        energy::Capacitor::Config cap_config = env.capacitor;
        cap_config.initial_voltage_v = env.pmic.v_off;
        energy::EnergyController controller(
            std::make_unique<energy::SolarPanel>(
                test_case.panel_cm2,
                std::make_shared<energy::ConstantSolarEnvironment>(
                    kKeh, "fidelity")),
            energy::Capacitor(cap_config),
            energy::PowerManagementIc(env.pmic));
        sim::SimConfig sim_config;
        sim_config.step_s = 0.02;
        sim_config.drain_between_runs = true;
        const obs::SpanTimer sim_timer("bench/step_sim");
        const auto runs = sim::simulate_repeated(mapping.cost, controller,
                                                 sim_config, 4);
        const double sim_time = sim_timer.elapsed_s() / 4.0;

        double sum = 0.0;
        int completed = 0;
        for (const auto& run : runs) {
            if (run.completed) {
                sum += run.latency_s;
                ++completed;
            }
        }
        if (completed == 0) {
            table.add_row({test_case.model,
                           format_fixed(test_case.panel_cm2, 0),
                           format_si(test_case.cap_f, "F", 0),
                           format_si(analytic.latency_s, "s"),
                           "did not complete", "-", "-"});
            continue;
        }
        const double sim_latency = sum / completed;
        const double error =
            std::abs(sim_latency - analytic.latency_s) /
            analytic.latency_s;
        errors.push_back(error);
        const double ratio = sim_time / analytic_time;
        total_ratio += ratio;
        ++ratio_count;
        table.add_row({test_case.model,
                       format_fixed(test_case.panel_cm2, 0),
                       format_si(test_case.cap_f, "F", 0),
                       format_si(analytic.latency_s, "s"),
                       format_si(sim_latency, "s"),
                       format_percent(error),
                       format_fixed(ratio, 0) + "x"});
    }
    table.print(std::cout);

    if (!errors.empty()) {
        const auto stats = summarize(errors);
        std::cout << "\nMean latency error: " << format_percent(stats.mean)
                  << " (max " << format_percent(stats.max) << ")\n";
        // The speed ratio is a timing, so it is not a headline.
        bench::headline("mean_latency_error", stats.mean);
        bench::headline("max_latency_error", stats.max);
    }
    if (ratio_count > 0) {
        std::cout << "Mean evaluation-speed advantage of the analytic "
                     "form: "
                  << format_fixed(total_ratio / ratio_count, 0)
                  << "x\n";
    }
    std::cout << "This is why the search loop uses the analytic model "
                 "and reserves step simulation for validation.\n";
    return 0;
}
