/// \file
/// Figure 8: optimizing solar-panel size for the existing AuT at a fixed
/// 100 uF capacitor, for the four Table-IV applications. Per panel size
/// the bench reports the energy breakdown and the system efficiency
/// E_infer / E_eh.
///
/// Expected shape: small panels force many tiles -> excessive checkpoint
/// energy; beyond a certain size the total energy stabilizes but system
/// efficiency drops (extra harvest is wasted); the preferable panel
/// minimizes lat*sp.

#include <iostream>

#include "common/bench_util.hpp"
#include "common/string_utils.hpp"
#include "common/table.hpp"
#include "dnn/model_zoo.hpp"
#include "hw/msp430_lea.hpp"
#include "search/mapping_search.hpp"
#include "sim/analytic_evaluator.hpp"

int
main()
{
    using namespace chrysalis;
    bench::print_banner("Figure 8",
                        "Energy breakdown vs solar panel size "
                        "(C = 100 uF, brighter environment).");

    const hw::Msp430Lea mcu;
    constexpr double kKeh = 2e-3;
    constexpr double kCap = 100e-6;
    const double panels_cm2[] = {1, 2, 4, 8, 15, 22, 30};

    for (const auto& name : dnn::table4_workloads()) {
        const dnn::Model model = dnn::make_model(name);
        std::cout << "\n--- " << name << " ---\n";
        TextTable table({"SP (cm^2)", "N_tile", "Ckpt E", "Infer E",
                         "Data E", "Static E", "Total E", "Latency",
                         "System Eff.", "lat*sp"});

        double best_latsp = 1e300;
        double best_panel = 0.0;
        std::vector<std::vector<std::string>> rows;
        for (double panel : panels_cm2) {
            sim::EnergyEnv env;
            env.p_eh_w = panel * kKeh;
            env.capacitor.capacitance_f = kCap;

            search::MappingSearchOptions options;
            options.max_candidates_per_dim = 6;
            const auto mapping =
                search_mappings(model, mcu, {env}, options);
            const auto eval = analytic_evaluate(mapping.cost, env);
            if (!eval.feasible) {
                rows.push_back({format_fixed(panel, 0),
                                std::to_string(mapping.cost.n_tile),
                                "-", "-", "-", "-", "-", "infeasible",
                                "-", "-"});
                continue;
            }
            const double latsp = eval.latency_s * panel;
            if (latsp < best_latsp) {
                best_latsp = latsp;
                best_panel = panel;
            }
            rows.push_back(
                {format_fixed(panel, 0),
                 std::to_string(mapping.cost.n_tile),
                 format_si(mapping.cost.e_ckpt_j, "J", 1),
                 format_si(mapping.cost.e_compute_j +
                               mapping.cost.e_vm_j, "J", 1),
                 format_si(mapping.cost.e_nvm_j, "J", 1),
                 format_si(mapping.cost.e_static_j, "J", 1),
                 format_si(mapping.cost.total_energy_j(), "J", 1),
                 format_si(eval.latency_s, "s"),
                 format_percent(eval.system_efficiency),
                 format_fixed(latsp, 2)});
        }
        for (auto& row : rows) {
            if (row[0] == format_fixed(best_panel, 0))
                row[0] += " *";
            TextTable* t = &table;
            t->add_row(row);
        }
        table.print(std::cout);
        std::cout << "(* preferable panel by lat*sp)\n";
        if (best_panel > 0.0) {
            bench::headline("best_panel_cm2/" + name, best_panel);
            bench::headline("best_lat_sp/" + name, best_latsp);
        }
    }

    std::cout << "\nShape check: checkpoint energy shrinks as the panel "
                 "grows (fewer, larger tiles); system efficiency peaks "
                 "near the preferable size and decays beyond it.\n";
    return 0;
}
