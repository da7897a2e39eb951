#include "sim/intermittent_simulator.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace chrysalis::sim {

namespace {

/// Static per-layer execution profile shared by that layer's tiles.
struct LayerProfile {
    double body_energy_j = 0.0;  ///< compute+vm+nvm+static per tile
    double body_time_s = 0.0;    ///< active time per tile (incl. ckpt I/O)
    double save_j = 0.0;         ///< checkpoint save energy
    double restore_j = 0.0;      ///< checkpoint restore energy
    // Fractions of body energy for the result breakdown.
    double frac_infer = 0.0;
    double frac_nvm = 0.0;
    double frac_static = 0.0;
    std::int64_t n_tile = 0;
};

LayerProfile
profile_layer(const dataflow::LayerCost& cost)
{
    LayerProfile profile;
    profile.n_tile = cost.n_tile;
    const double tiles = static_cast<double>(cost.n_tile);
    const double body =
        (cost.e_compute_j + cost.e_vm_j + cost.e_nvm_j + cost.e_static_j) /
        tiles;
    profile.body_energy_j = body;
    profile.body_time_s = cost.time_s / tiles;
    // One save+restore pair costs N_ckpt * (e_r + e_w); split evenly.
    profile.save_j = 0.5 * cost.ckpt_pair_energy_j;
    profile.restore_j = 0.5 * cost.ckpt_pair_energy_j;
    if (body > 0.0) {
        profile.frac_infer = (cost.e_compute_j + cost.e_vm_j) / tiles / body;
        profile.frac_nvm = cost.e_nvm_j / tiles / body;
        profile.frac_static = cost.e_static_j / tiles / body;
    }
    return profile;
}

/// Checks whether the harvester can ever lift the capacitor to U_on: the
/// equilibrium voltage where charge rate equals leakage must exceed the
/// turn-on threshold.
bool
can_reach_turn_on(const energy::EnergyController& controller, double t_s)
{
    const double p_in = controller.input_power_w(t_s) *
                        controller.pmic().charge_efficiency() -
                        controller.pmic().quiescent_power();
    if (p_in <= 0.0)
        return false;
    const auto& cap = controller.capacitor().config();
    if (cap.k_cap <= 0.0)
        return true;
    const double v_eq = std::sqrt(p_in / (cap.k_cap * cap.capacitance_f));
    return v_eq >= controller.pmic().v_on();
}

}  // namespace

void
validate_sim_config(const SimConfig& config)
{
    if (!(config.step_s > 0.0) || !std::isfinite(config.step_s)) {
        fatal("SimConfig: step_s must be finite and > 0, got ",
              config.step_s, " — a non-positive step never advances "
              "simulated time");
    }
    if (!(config.max_sim_time_s > 0.0)) {
        fatal("SimConfig: max_sim_time_s must be > 0, got ",
              config.max_sim_time_s, " — a non-positive horizon times "
              "out immediately");
    }
    if (!(config.start_time_s >= 0.0) ||
        !std::isfinite(config.start_time_s)) {
        fatal("SimConfig: start_time_s must be finite and >= 0, got ",
              config.start_time_s);
    }
    if (!(config.exception_rate >= 0.0 && config.exception_rate <= 1.0)) {
        fatal("SimConfig: exception_rate (r_exc) must be in [0, 1], got ",
              config.exception_rate);
    }
    // The injector's own spec was validated at construction.
}

namespace {

/// Counts one finished simulation into the global registry, if attached.
/// The run itself aggregates onto SimResult locals; this is the only
/// registry touch per inference, keeping the step loop metrics-free.
void
publish_run(const SimResult& result)
{
    obs::MetricsRegistry* registry = obs::metrics();
    if (registry == nullptr)
        return;
    const auto add = [&](std::string_view name, std::int64_t value) {
        registry->counter(name).add(static_cast<std::uint64_t>(value));
    };
    add("sim/runs", 1);
    add("sim/steps", result.steps);
    add("sim/tiles_executed", result.tiles_executed);
    add("sim/exceptions", result.exceptions);
    add("sim/energy_cycles", result.energy_cycles);
    add("sim/power_offs", result.power_offs);
    add("sim/ckpt_saves", result.ckpt_saves);
    add("sim/ckpt_restores", result.ckpt_restores);
    add("sim/ckpt_corruptions", result.ckpt_corruptions);
    add(result.completed ? "sim/completed" : "sim/failures", 1);
}

/// simulate_inference body; the public wrapper publishes metrics so that
/// every return path is counted exactly once.
SimResult
run_inference(const dataflow::ModelCost& cost,
              energy::EnergyController& controller,
              const SimConfig& config)
{
    validate_sim_config(config);
    SimResult result;
    if (!cost.feasible) {
        result.failure = fault::make_failure(
            fault::FailureCode::kMappingInfeasible);
        return result;
    }
    if (config.faults != nullptr)
        controller.attach_fault_model(config.faults);

    Rng rng(config.seed);
    double t = config.start_time_s;
    const double deadline = t + config.max_sim_time_s;

    if (!can_reach_turn_on(controller, t)) {
        result.failure =
            fault::make_failure(fault::FailureCode::kUnavailable);
        return result;
    }

    for (const auto& layer : cost.layers)
        result.tiles_total += layer.n_tile;

    // Snapshot the ledger so the result reports this inference's delta even
    // when the controller is reused across repeated runs.
    const energy::EnergyLedger ledger_before = controller.ledger();

    // Monotone restore counter feeding the corruption stream: the n-th
    // restore of a run is corrupted (or not) purely as a function of
    // (fault seed, n), so reruns replay the identical fault sequence.
    std::uint64_t restore_counter = 0;

    for (const auto& layer_cost : cost.layers) {
        const LayerProfile profile =
            profile_layer(layer_cost);
        for (std::int64_t tile = 0; tile < profile.n_tile; ++tile) {
            double progress_j = 0.0;      // body energy invested
            double restore_due_j = 0.0;   // restore cost owed before body

            // Pre-sample whether this tile hits an energy exception and at
            // what body-progress point it strikes.
            bool exception_pending = rng.bernoulli(config.exception_rate);
            double exception_at_j =
                exception_pending
                    ? rng.uniform(0.1, 0.9) * profile.body_energy_j
                    : 0.0;

            while (progress_j < profile.body_energy_j) {
                if (t >= deadline) {
                    result.failure = fault::make_failure(
                        fault::FailureCode::kTimeout);
                    result.latency_s = t - config.start_time_s;
                    return result;
                }

                const double need_j = restore_due_j +
                                      (profile.body_energy_j - progress_j);
                const double tile_power =
                    profile.body_time_s > 0.0
                        ? profile.body_energy_j / profile.body_time_s
                        : 0.0;

                if (!controller.can_run()) {
                    // Charge with the load off. The step adapts to the
                    // estimated time-to-turn-on so tiny capacitors are not
                    // penalized by step quantization.
                    double dt = config.step_s;
                    const double p_net =
                        controller.input_power_w(t) *
                            controller.pmic().charge_efficiency() -
                        controller.capacitor().leakage_power() -
                        controller.pmic().quiescent_power();
                    if (p_net > 0.0) {
                        const double needed =
                            controller.capacitor().energy_between(
                                controller.voltage(),
                                controller.pmic().v_on());
                        dt = std::clamp(needed / p_net, 1e-6,
                                        config.step_s);
                    }
                    controller.step(t, dt, 0.0);
                    ++result.steps;
                    t += dt;
                    if (config.probe)
                        config.probe(t, controller.voltage(), false);
                    continue;
                }

                // Run the load for up to one step (or less if the tile
                // finishes sooner).
                const double span = tile_power > 0.0
                    ? std::min(config.step_s, need_j / tile_power)
                    : config.step_s;
                const auto res = controller.step(t, span, tile_power);
                ++result.steps;
                t += span;
                result.active_time_s += span;
                if (config.probe)
                    config.probe(t, controller.voltage(), true);

                double delivered = res.delivered_j;
                // Restore cost is paid first after an interruption.
                const double to_restore = std::min(delivered, restore_due_j);
                restore_due_j -= to_restore;
                result.e_ckpt_j += to_restore;
                delivered -= to_restore;
                progress_j += delivered;

                // A fully paid restore may read back corrupted NVM state:
                // the tile restarts from its boundary and owes a fresh
                // restore from the last good checkpoint (extended r_exc).
                if (to_restore > 0.0 && restore_due_j == 0.0) {
                    const std::uint64_t restore_index = restore_counter++;
                    ++result.ckpt_restores;
                    if (config.faults != nullptr &&
                        config.faults->corrupt_restore(restore_index)) {
                        ++result.ckpt_corruptions;
                        progress_j = 0.0;
                        restore_due_j += profile.restore_j;
                        continue;
                    }
                }

                // Injected energy exception: progress is lost.
                if (exception_pending && progress_j >= exception_at_j) {
                    exception_pending = false;
                    ++result.exceptions;
                    progress_j = 0.0;
                    restore_due_j += profile.restore_j;
                    continue;
                }

                if (res.browned_out && progress_j < profile.body_energy_j) {
                    // Power interruption: VM state is checkpointed using
                    // the PMIC's reserve margin below U_off (not modelled
                    // as capacitor charge), and a restore is owed when
                    // power returns.
                    ++result.power_offs;
                    ++result.ckpt_saves;
                    result.e_ckpt_j += profile.save_j;
                    restore_due_j += profile.restore_j;
                }
            }

            // Tile boundary: commit outputs and, under the eager policy,
            // write the boundary checkpoint (Fig. 4 steps 5-6).
            if (config.checkpoint_policy ==
                CheckpointPolicy::kEagerBoundary) {
                ++result.ckpt_saves;
                result.e_ckpt_j += profile.save_j;
            }
            const double body = profile.body_energy_j;
            result.e_infer_j += body * profile.frac_infer;
            result.e_nvm_j += body * profile.frac_nvm;
            result.e_static_j += body * profile.frac_static;
            ++result.tiles_executed;
        }
    }

    result.completed = true;
    result.latency_s = t - config.start_time_s;
    const energy::EnergyLedger& after = controller.ledger();
    result.ledger.harvested_j = after.harvested_j - ledger_before.harvested_j;
    result.ledger.stored_j = after.stored_j - ledger_before.stored_j;
    result.ledger.wasted_j = after.wasted_j - ledger_before.wasted_j;
    result.ledger.leaked_j = after.leaked_j - ledger_before.leaked_j;
    result.ledger.delivered_j =
        after.delivered_j - ledger_before.delivered_j;
    result.ledger.quiescent_j =
        after.quiescent_j - ledger_before.quiescent_j;
    result.ledger.cycle_count =
        after.cycle_count - ledger_before.cycle_count;
    result.energy_cycles = result.ledger.cycle_count;
    return result;
}

}  // namespace

SimResult
simulate_inference(const dataflow::ModelCost& cost,
                   energy::EnergyController& controller,
                   const SimConfig& config)
{
    OBS_SPAN("sim/inference");
    SimResult result = run_inference(cost, controller, config);
    publish_run(result);
    return result;
}

std::vector<SimResult>
simulate_repeated(const dataflow::ModelCost& cost,
                  energy::EnergyController& controller,
                  const SimConfig& config, int runs)
{
    if (runs < 1)
        fatal("simulate_repeated: runs must be >= 1, got ", runs);
    validate_sim_config(config);
    std::vector<SimResult> results;
    results.reserve(static_cast<std::size_t>(runs));
    SimConfig run_config = config;
    for (int run = 0; run < runs; ++run) {
        run_config.seed = config.seed + static_cast<std::uint64_t>(run);
        if (config.drain_between_runs)
            controller.drain_to(controller.pmic().v_off());
        SimResult result = simulate_inference(cost, controller, run_config);
        run_config.start_time_s += result.latency_s;
        const bool completed = result.completed;
        results.push_back(std::move(result));
        if (!completed)
            break;
    }
    return results;
}

}  // namespace chrysalis::sim
