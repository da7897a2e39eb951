/// \file
/// Ablation: checkpoint policy. Compares eager per-tile-boundary
/// checkpointing (HAWAII-style [35]) against on-demand just-in-time
/// saves (QUICKRECALL-style [31]) on the step simulator, across harvest
/// levels and energy-exception rates.
///
/// Expected shape: under stable, abundant power the on-demand policy
/// spends (almost) nothing on checkpoints; as power weakens (frequent
/// brown-outs) the two converge, since most saves become forced.

#include <iostream>
#include <string>

#include "common/bench_util.hpp"
#include "common/string_utils.hpp"
#include "common/table.hpp"
#include "dnn/model_zoo.hpp"
#include "hw/msp430_lea.hpp"
#include "search/mapping_search.hpp"
#include "sim/intermittent_simulator.hpp"

namespace {

using namespace chrysalis;

struct PolicyResult {
    bool completed = false;
    double latency_s = 0.0;
    double e_ckpt_j = 0.0;
    std::int64_t cycles = 0;
};

PolicyResult
run_policy(const dataflow::ModelCost& cost, double panel_cm2,
           double exception_rate, sim::CheckpointPolicy policy)
{
    energy::Capacitor::Config cap_config;
    cap_config.capacitance_f = 100e-6;
    cap_config.initial_voltage_v = 2.2;  // at U_off: charge first
    energy::EnergyController controller(
        energy::SolarPanel(
            panel_cm2, std::make_shared<energy::ConstantSolarEnvironment>(
                           0.5e-3, "policy")),
        energy::Capacitor(cap_config),
        energy::PowerManagementIc{energy::PowerManagementIc::Config{}});
    sim::SimConfig config;
    config.step_s = 0.02;
    config.exception_rate = exception_rate;
    config.checkpoint_policy = policy;
    config.seed = 5;
    const sim::SimResult result =
        sim::simulate_inference(cost, controller, config);
    PolicyResult out;
    out.completed = result.completed;
    out.latency_s = result.latency_s;
    out.e_ckpt_j = result.e_ckpt_j;
    out.cycles = result.energy_cycles;
    return out;
}

}  // namespace

int
main()
{
    bench::print_banner("Ablation: checkpoint policy",
                        "Eager per-tile checkpoints (HAWAII) vs "
                        "on-demand JIT saves (QUICKRECALL), step "
                        "simulator, KWS on MSP430, C = 100 uF.");

    const hw::Msp430Lea mcu;
    const auto model = dnn::make_kws_mlp();
    sim::EnergyEnv env;
    env.p_eh_w = 8.0 * 0.5e-3;
    env.capacitor.capacitance_f = 100e-6;
    const auto mapping = search::search_mappings(
        model, mcu, {env}, search::MappingSearchOptions{});

    TextTable table({"Panel (cm^2)", "r_exc", "Policy", "Ckpt E",
                     "Latency", "Cycles"});
    const double panels[] = {30.0, 8.0, 2.0};
    const double rates[] = {0.0, 0.2};
    for (double panel : panels) {
        for (double rate : rates) {
            for (auto policy :
                 {sim::CheckpointPolicy::kEagerBoundary,
                  sim::CheckpointPolicy::kOnDemand}) {
                const PolicyResult result =
                    run_policy(mapping.cost, panel, rate, policy);
                const char* label =
                    policy == sim::CheckpointPolicy::kEagerBoundary
                        ? "eager"
                        : "on-demand";
                if (!result.completed) {
                    table.add_row({format_fixed(panel, 0),
                                   format_fixed(rate, 1), label, "-",
                                   "did not complete", "-"});
                    continue;
                }
                table.add_row({format_fixed(panel, 0),
                               format_fixed(rate, 1), label,
                               format_si(result.e_ckpt_j, "J", 1),
                               format_si(result.latency_s, "s"),
                               std::to_string(result.cycles)});
                // The shape compares the policies at the largest and
                // the smallest panel, without exceptions.
                if (rate == 0.0 && (panel == 30.0 || panel == 2.0)) {
                    bench::headline(std::string("ckpt_energy_j/") + label +
                                        "/" + format_fixed(panel, 0) +
                                        "cm2",
                                    result.e_ckpt_j);
                }
            }
        }
    }
    table.print(std::cout);
    std::cout << "\nExpected shape: on-demand checkpoint energy is near "
                 "zero at 30 cm^2 (no brown-outs) and approaches the "
                 "eager policy's as the panel shrinks; exceptions raise "
                 "both.\n";
    return 0;
}
