/// \file
/// Figure 6: searching the existing MSP430-based AuT design space for the
/// four Table-IV applications. For each application the bench prints the
/// (solar-panel size, latency) Pareto front over the explored designs and
/// the lat*sp improvement of the best point versus the iNAS-style
/// original configuration (P_in = 6 mW, C = 1 mF).
///
/// Paper anchor: "Taking CIFAR as an example ... the final result of this
/// search shows a 50.8% improvement over the original system." The bench
/// prints CIFAR-10's own improvement beside it, and the mean over the
/// four applications on its own.

#include <iostream>
#include <optional>

#include "common/bench_util.hpp"
#include "common/math_utils.hpp"
#include "common/string_utils.hpp"
#include "common/table.hpp"
#include "dnn/model_zoo.hpp"

int
main()
{
    using namespace chrysalis;
    bench::print_banner("Figure 6",
                        "Pareto search over the existing MSP430 AuT "
                        "design space; improvement vs the iNAS original "
                        "configuration (lat*sp objective).");

    const bench::Budget budget = bench::Budget::from_env();
    const search::Objective objective{search::ObjectiveKind::kLatSp, 0.0,
                                      0.0};

    std::vector<double> improvements;
    std::optional<double> cifar10_improvement;
    for (const auto& name : dnn::table4_workloads()) {
        const dnn::Model model = dnn::make_model(name);
        core::ChrysalisInputs inputs{
            model, search::DesignSpace::existing_aut(), objective,
            bench::make_options(budget, 600 + name.size())};
        const core::Chrysalis tool(std::move(inputs));
        const core::AuTSolution best = tool.generate();
        const core::AuTSolution reference =
            tool.evaluate_candidate(bench::inas_reference_candidate());

        std::cout << "\n--- " << name << " ---\n";
        // The figure's tradeoff curve proper: a dedicated NSGA-II
        // multi-objective search over (panel size, latency).
        const search::BiLevelExplorer explorer(
            model, search::DesignSpace::existing_aut(),
            search::Objective{search::ObjectiveKind::kLatSp, 0.0, 0.0},
            bench::make_options(budget, 600 + name.size()));
        const auto nsga_front = explorer.explore_pareto();
        TextTable front({"SP (cm^2)", "Latency (s)", "lat*sp (cm^2*s)",
                         "C", "N_tile"});
        front.set_title("Pareto front (NSGA-II):");
        for (const auto& design : nsga_front) {
            front.add_row(
                {format_fixed(design.candidate.solar_cm2, 1),
                 format_fixed(design.mean_latency_s, 3),
                 format_fixed(design.candidate.solar_cm2 *
                                  design.mean_latency_s,
                              2),
                 format_si(design.candidate.capacitance_f, "F", 0),
                 std::to_string(design.mapping.cost.n_tile)});
        }
        front.print(std::cout);
        std::cout << "(single-objective search additionally evaluated "
                  << best.evaluations << " points; its by-product front "
                  << "has " << best.pareto.size() << " designs)\n";

        std::cout << "best design: " << best.hardware.describe()
                  << "\n  lat*sp = " << format_fixed(best.lat_sp, 2)
                  << " cm^2*s";
        if (reference.feasible) {
            const double gain =
                relative_improvement(reference.lat_sp, best.lat_sp);
            improvements.push_back(gain);
            if (name == "cifar10")
                cifar10_improvement = gain;
            std::cout << "  (iNAS original: "
                      << format_fixed(reference.lat_sp, 2)
                      << " cm^2*s -> improvement "
                      << format_percent(gain) << ")";
        } else {
            std::cout << "  (iNAS original configuration infeasible "
                         "here)";
        }
        std::cout << "\n";
    }

    // The paper's anchor is CIFAR-10's own gain; the mean over all
    // applications has no paper counterpart.
    if (cifar10_improvement) {
        bench::headline("cifar10_improvement", *cifar10_improvement);
        std::cout << "\nCIFAR-10 lat*sp improvement over the iNAS original"
                     " configuration: "
                  << format_percent(*cifar10_improvement)
                  << " (paper: 50.8%).\n";
    }
    if (!improvements.empty()) {
        bench::headline("mean_improvement",
                        summarize(improvements).mean);
        bench::headline("workloads",
                        static_cast<double>(improvements.size()));
        std::cout << improvements.size()
                  << "-app mean lat*sp improvement over the iNAS original"
                     " configuration: "
                  << format_percent(summarize(improvements).mean)
                  << ".\n";
    }
    return 0;
}
