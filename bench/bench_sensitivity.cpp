/// \file
/// Sensitivity analysis: how robust are CHRYSALIS's design choices to the
/// technology constants of Table II? The capacitor leakage coefficient
/// k_cap and the PMIC discharge efficiency are perturbed and the search
/// re-run; the
/// bench reports how much the chosen design point and its achieved
/// lat*sp move. Small design drift under large constant perturbations
/// indicates the methodology's conclusions do not hinge on exact
/// calibration values.

#include <iostream>
#include <string>

#include "common/bench_util.hpp"
#include "common/math_utils.hpp"
#include "common/string_utils.hpp"
#include "common/table.hpp"
#include "dnn/model_zoo.hpp"

namespace {

using namespace chrysalis;

struct Outcome {
    bool feasible = false;
    double sp_cm2 = 0.0;
    double cap_f = 0.0;
    double lat_sp = 0.0;
};

Outcome
run(const dnn::Model& model, const bench::Budget& budget,
    double k_cap_scale, double discharge_eff)
{
    search::ExplorerOptions options = bench::make_options(budget, 777);
    options.capacitor_base.k_cap = 0.01 * k_cap_scale;
    options.pmic.discharge_efficiency = discharge_eff;
    core::ChrysalisInputs inputs{
        model, search::DesignSpace::existing_aut(),
        search::Objective{search::ObjectiveKind::kLatSp, 0.0, 0.0},
        options};
    const core::Chrysalis tool(std::move(inputs));
    const core::AuTSolution solution = tool.generate();
    Outcome outcome;
    outcome.feasible = solution.feasible;
    outcome.sp_cm2 = solution.hardware.solar_cm2;
    outcome.cap_f = solution.hardware.capacitance_f;
    outcome.lat_sp = solution.lat_sp;
    return outcome;
}

}  // namespace

int
main()
{
    bench::print_banner("Sensitivity analysis",
                        "Design drift under +/-50% perturbations of "
                        "technology constants (HAR workload, lat*sp "
                        "objective).");

    const bench::Budget budget = bench::Budget::from_env();
    const dnn::Model model = dnn::make_har_cnn();

    const Outcome nominal = run(model, budget, 1.0, 0.85);
    if (!nominal.feasible) {
        std::cout << "nominal search infeasible; aborting\n";
        return 1;
    }
    // The drifts below are relative to this.
    bench::headline("nominal_lat_sp", nominal.lat_sp);

    struct Variant {
        const char* label;
        double k_cap_scale;
        double discharge_eff;
    };
    static constexpr Variant kVariants[] = {
        {"nominal", 1.0, 0.85},
        {"k_cap x0.5", 0.5, 0.85},
        {"k_cap x1.5", 1.5, 0.85},
        {"eta_dis 0.70", 1.0, 0.70},
        {"eta_dis 0.95", 1.0, 0.95},
    };

    TextTable table({"Variant", "SP (cm^2)", "C", "lat*sp",
                     "lat*sp drift"});
    for (const auto& variant : kVariants) {
        const Outcome outcome = run(model, budget, variant.k_cap_scale,
                                    variant.discharge_eff);
        if (!outcome.feasible) {
            table.add_row({variant.label, "-", "-", "-", "infeasible"});
            continue;
        }
        const double drift =
            (outcome.lat_sp - nominal.lat_sp) / nominal.lat_sp;
        table.add_row({variant.label, format_fixed(outcome.sp_cm2, 1),
                       format_si(outcome.cap_f, "F", 0),
                       format_fixed(outcome.lat_sp, 2),
                       format_percent(drift)});
        if (std::string(variant.label) != "nominal") {
            bench::headline(std::string("lat_sp_drift/") + variant.label,
                            drift);
        }
    }
    table.print(std::cout);

    std::cout << "\nExpected shape: achieved lat*sp shifts with the "
                 "perturbed constant (worse efficiency/leakage -> higher "
                 "cost), while the *chosen* design point moves smoothly "
                 "— the methodology's conclusions are not an artifact of "
                 "one calibration value.\n";
    return 0;
}
