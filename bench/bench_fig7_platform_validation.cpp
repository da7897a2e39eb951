/// \file
/// Figure 7: validating the improved AuT system over iNAS "on the real
/// platform". The paper builds a PCB and measures a single convolution
/// layer with an oscilloscope; here the platform measurement is
/// substituted by the step-based intermittent simulator with
/// measurement-noise injection (see DESIGN.md substitution table) — the
/// claim being validated is *trend agreement* between the analytic model
/// and the platform, plus two speedups against the fixed iNAS design
/// point (P_in = 6 mW, C >= 1 mF):
///   - 79.7% faster with the same solar panel size;
///   - 82.3% faster with a bigger (15 cm^2) panel.

#include <cmath>
#include <iostream>

#include "common/bench_util.hpp"
#include "common/math_utils.hpp"
#include "common/rng.hpp"
#include "common/string_utils.hpp"
#include "common/table.hpp"
#include "dnn/model_zoo.hpp"
#include "energy/energy_controller.hpp"
#include "hw/msp430_lea.hpp"
#include "search/mapping_search.hpp"
#include "sim/analytic_evaluator.hpp"
#include "sim/intermittent_simulator.hpp"

namespace {

using namespace chrysalis;

constexpr double kKeh = 2e-3;  // brighter preset: 3 cm^2 -> 6 mW

/// Evaluates the single-conv workload at (panel, capacitor); returns the
/// analytic latency and a "platform-measured" latency = step simulation
/// mean with 4% gaussian measurement noise.
struct Point {
    bool feasible = false;
    double model_latency_s = 0.0;
    double measured_latency_s = 0.0;
    std::int64_t n_tile = 0;
};

Point
evaluate_point(double panel_cm2, double cap_f, Rng& noise)
{
    const dnn::Model model = dnn::make_simple_conv();
    const hw::Msp430Lea mcu;
    sim::EnergyEnv env;
    env.p_eh_w = panel_cm2 * kKeh;
    env.capacitor.capacitance_f = cap_f;

    search::MappingSearchOptions options;
    options.max_candidates_per_dim = 6;
    const auto mapping = search_mappings(model, mcu, {env}, options);
    const auto analytic = analytic_evaluate(mapping.cost, env);

    Point point;
    point.n_tile = mapping.cost.n_tile;
    if (!analytic.feasible)
        return point;
    point.feasible = true;
    point.model_latency_s = analytic.latency_s;

    energy::Capacitor::Config cap_config = env.capacitor;
    cap_config.initial_voltage_v = env.pmic.v_off;
    energy::EnergyController controller(
        energy::SolarPanel(
            panel_cm2, std::make_shared<energy::ConstantSolarEnvironment>(
                           kKeh, "platform")),
        energy::Capacitor(cap_config),
        energy::PowerManagementIc(env.pmic));
    sim::SimConfig sim_config;
    sim_config.step_s = 0.01;
    // Duty-cycled measurements: each inference starts at U_off and pays
    // the cold-start charge, as the oscilloscope traces in the paper do.
    sim_config.drain_between_runs = true;
    const auto runs =
        sim::simulate_repeated(mapping.cost, controller, sim_config, 8);
    double sum = 0.0;
    int completed = 0;
    for (const auto& run : runs) {
        if (run.completed) {
            sum += run.latency_s;
            ++completed;
        }
    }
    if (completed == 0) {
        point.feasible = false;
        return point;
    }
    // Oscilloscope-style measurement noise.
    point.measured_latency_s =
        (sum / completed) * (1.0 + noise.gaussian(0.0, 0.04));
    return point;
}

}  // namespace

int
main()
{
    bench::print_banner("Figure 7",
                        "Platform validation (simulated platform; see "
                        "DESIGN.md): single conv layer, latency vs "
                        "capacitor size, model vs measurement.");

    Rng noise(2024);
    const double caps_f[] = {47e-6, 100e-6, 220e-6, 470e-6, 1e-3, 2.2e-3,
                             4.7e-3};

    TextTable table({"C", "Model latency", "Measured latency",
                     "N_tile", "Rel. diff"});
    table.set_title("3 cm^2 panel (P_in = 6 mW):");
    std::vector<double> diffs;
    std::vector<Point> points;
    for (double cap : caps_f) {
        const Point point = evaluate_point(3.0, cap, noise);
        points.push_back(point);
        if (!point.feasible) {
            table.add_row({format_si(cap, "F", 0), "infeasible", "-", "-",
                           "-"});
            continue;
        }
        const double diff =
            std::fabs(point.measured_latency_s - point.model_latency_s) /
            point.model_latency_s;
        diffs.push_back(diff);
        table.add_row({format_si(cap, "F", 0),
                       format_si(point.model_latency_s, "s"),
                       format_si(point.measured_latency_s, "s"),
                       std::to_string(point.n_tile),
                       format_percent(diff)});
    }
    table.print(std::cout);
    if (!diffs.empty()) {
        std::cout << "mean model-vs-platform deviation: "
                  << format_percent(summarize(diffs).mean)
                  << " -> the model tracks the platform trend.\n";
        bench::headline("mean_deviation", summarize(diffs).mean);
    }

    // Speedups against the iNAS design point (C = 1 mF at 3 cm^2).
    Rng quiet(7);
    const Point inas = evaluate_point(3.0, 1e-3, quiet);
    double best_same = 1e300;
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (points[i].feasible)
            best_same = std::min(best_same, points[i].measured_latency_s);
    }
    const Point big_panel = evaluate_point(15.0, 100e-6, quiet);

    std::cout << "\nSpeedup vs iNAS point (C=1 mF, same 3 cm^2 panel): ";
    if (inas.feasible && best_same < 1e300) {
        const double speedup =
            relative_improvement(inas.measured_latency_s, best_same);
        std::cout << format_percent(speedup) << " faster (paper: 79.7%).\n";
        bench::headline("speedup_vs_inas/same_panel", speedup);
    } else {
        std::cout << "n/a\n";
    }
    // Oscilloscope view: the "periodic energy cycles" trace the paper
    // confirms with a voltmeter/oscilloscope, rendered in ASCII for one
    // duty cycle at (3 cm^2, 220 uF) in a dimmer 0.5 mW/cm^2 setting
    // (load exceeds harvest, so the voltage visibly cycles).
    {
        const dnn::Model model = dnn::make_simple_conv();
        const hw::Msp430Lea mcu;
        sim::EnergyEnv env;
        env.p_eh_w = 3.0 * 0.5e-3;
        env.capacitor.capacitance_f = 220e-6;
        search::MappingSearchOptions options;
        const auto mapping = search_mappings(model, mcu, {env}, options);
        energy::Capacitor::Config cap_config = env.capacitor;
        cap_config.initial_voltage_v = env.pmic.v_off;
        energy::EnergyController controller(
            energy::SolarPanel(
                3.0, std::make_shared<energy::ConstantSolarEnvironment>(
                         0.5e-3, "scope")),
            energy::Capacitor(cap_config),
            energy::PowerManagementIc(env.pmic));
        std::vector<std::pair<double, double>> samples;
        sim::SimConfig scope_config;
        scope_config.step_s = 0.005;
        scope_config.probe = [&](double t, double v, bool) {
            samples.emplace_back(t, v);
        };
        const auto run = sim::simulate_inference(mapping.cost, controller,
                                                 scope_config);
        if (run.completed && samples.size() > 4) {
            constexpr int kCols = 64;
            constexpr int kRows = 8;
            const double t0 = samples.front().first;
            const double t1 = samples.back().first;
            std::vector<std::string> canvas(
                kRows, std::string(kCols, ' '));
            for (const auto& [t, v] : samples) {
                const int col = std::min(
                    kCols - 1,
                    static_cast<int>((t - t0) / (t1 - t0) * kCols));
                const double frac = (v - 2.0) / (3.7 - 2.0);
                const int row = std::min(
                    kRows - 1,
                    std::max(0, static_cast<int>((1.0 - frac) * kRows)));
                canvas[static_cast<std::size_t>(row)]
                      [static_cast<std::size_t>(col)] = '*';
            }
            std::cout << "\nCapacitor voltage during one inference "
                         "(oscilloscope view, "
                      << format_si(t1 - t0, "s") << " span, 2.0-3.7 V):\n";
            for (const auto& line : canvas)
                std::cout << "  |" << line << "|\n";
            std::cout << "  (charge to U_on=3.5 V, run down toward "
                         "U_off=2.2 V, recharge - periodic energy "
                         "cycles)\n";
        }
    }

    std::cout << "Speedup with a bigger 15 cm^2 panel: ";
    if (inas.feasible && big_panel.feasible) {
        const double speedup = relative_improvement(
            inas.measured_latency_s, big_panel.measured_latency_s);
        std::cout << format_percent(speedup) << " faster (paper: 82.3%).\n";
        bench::headline("speedup_vs_inas/big_panel", speedup);
    } else {
        std::cout << "n/a\n";
    }
    return 0;
}
