/// \file
/// Headline claim (§I / §V): "the architectures obtained through
/// CHRYSALIS exhibit an average performance improvement of 56.4%".
///
/// The bench aggregates lat*sp improvements of the full CHRYSALIS search
/// over reference designs across both evaluation campaigns:
///   - existing-AuT (Table IV apps) vs the iNAS original configuration;
///   - future-AuT (Table V nets x 2 archs) vs the space's frozen defaults
///     for that arch (64 PEs, 512 B cache per PE, an 8 cm^2 panel and a
///     1 mF capacitor) under the searched mapping: a stock accelerator
///     paired with an ad-hoc energy subsystem, not a searched ablation.

#include <iostream>

#include "common/bench_util.hpp"
#include "common/math_utils.hpp"
#include "common/string_utils.hpp"
#include "common/table.hpp"
#include "core/chrysalis.hpp"
#include "dnn/model_zoo.hpp"

int
main()
{
    using namespace chrysalis;
    bench::print_banner("Headline",
                        "Average performance (lat*sp) improvement of "
                        "CHRYSALIS over non-co-designed references.");

    const bench::Budget budget = bench::Budget::from_env();
    const search::Objective objective{search::ObjectiveKind::kLatSp, 0.0,
                                      0.0};
    std::vector<double> improvements;
    TextTable table({"Scenario", "Reference lat*sp", "CHRYSALIS lat*sp",
                     "Improvement"});

    // Campaign 1: existing AuT vs the iNAS original configuration.
    std::uint64_t seed = 56400;
    for (const auto& name : dnn::table4_workloads()) {
        const dnn::Model model = dnn::make_model(name);
        core::ChrysalisInputs inputs{
            model, search::DesignSpace::existing_aut(), objective,
            bench::make_options(budget, ++seed)};
        const core::Chrysalis tool(std::move(inputs));
        const auto best = tool.generate();
        const auto reference =
            tool.evaluate_candidate(bench::inas_reference_candidate());
        if (best.feasible && reference.feasible) {
            const double gain =
                relative_improvement(reference.lat_sp, best.lat_sp);
            improvements.push_back(gain);
            table.add_row({name + " (msp430)",
                           format_fixed(reference.lat_sp, 2),
                           format_fixed(best.lat_sp, 2),
                           format_percent(gain)});
        }
    }

    // Campaign 2: future AuT vs the fixed (non-co-designed) default
    // configuration — the state-of-the-art practice of pairing a stock
    // accelerator config with an ad-hoc energy subsystem.
    for (const auto& net : dnn::table5_workloads()) {
        const dnn::Model model = dnn::make_model(net);
        for (auto arch : {hw::AcceleratorArch::kTpu,
                          hw::AcceleratorArch::kEyeriss}) {
            search::DesignSpace full = search::DesignSpace::future_aut();
            full.search_arch = false;
            full.defaults.arch = arch;

            core::ChrysalisInputs inputs{model, full, objective,
                                         bench::make_options(budget,
                                                             ++seed)};
            const core::Chrysalis tool(std::move(inputs));
            const auto best = tool.generate();
            const auto reference =
                tool.evaluate_candidate(full.defaults);
            if (best.feasible && reference.feasible) {
                const double gain = relative_improvement(
                    reference.lat_sp, best.lat_sp);
                improvements.push_back(gain);
                table.add_row({net + "/" + hw::to_string(arch),
                               format_fixed(reference.lat_sp, 2),
                               format_fixed(best.lat_sp, 2),
                               format_percent(gain)});
            }
        }
    }

    table.print(std::cout);
    if (!improvements.empty()) {
        const auto stats = summarize(improvements);
        bench::headline("mean_improvement", stats.mean);
        bench::headline("min_improvement", stats.min);
        bench::headline("max_improvement", stats.max);
        bench::headline("scenarios",
                        static_cast<double>(improvements.size()));
        std::cout << "\nAverage improvement across "
                  << improvements.size() << " scenarios: "
                  << format_percent(stats.mean)
                  << " (min " << format_percent(stats.min) << ", max "
                  << format_percent(stats.max)
                  << ").\nPaper headline: 56.4% average improvement.\n";
    }
    return 0;
}
