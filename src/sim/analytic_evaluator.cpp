#include "sim/analytic_evaluator.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "obs/metrics.hpp"

namespace chrysalis::sim {

EnergyEnv
with_faults(EnergyEnv env, const fault::FaultInjector& faults)
{
    env.p_eh_w *= faults.mean_harvest_factor();
    env.capacitor.capacitance_f *= faults.capacitance_scale();
    env.capacitor.k_cap *= faults.leakage_scale();
    env.pmic = energy::PowerManagementIc::drifted(
        env.pmic, faults.v_on_offset_v(), faults.v_off_offset_v(),
        env.capacitor.rated_voltage_v);
    return env;
}

double
cycle_store_energy(const EnergyEnv& env)
{
    const energy::PowerManagementIc pmic(env.pmic);
    const energy::Capacitor capacitor(env.capacitor);
    return pmic.load_energy_from_capacitor(
        capacitor.energy_between(pmic.v_off(), pmic.v_on()));
}

double
effective_power(const EnergyEnv& env)
{
    const energy::PowerManagementIc pmic(env.pmic);
    const double v_on = pmic.v_on();
    // Leakage at the cycle's upper voltage (the paper's simplification of
    // Eq. 3: "the leakage energy is simplified as the voltage is
    // unchanged").
    const double p_leak =
        env.capacitor.k_cap * env.capacitor.capacitance_f * v_on * v_on;
    return env.p_eh_w * pmic.charge_efficiency() *
               pmic.discharge_efficiency() -
           pmic.load_energy_from_capacitor(p_leak) -
           pmic.quiescent_power() * pmic.discharge_efficiency();
}

CycleBudget
cycle_budget_terms(const EnergyEnv& env)
{
    CycleBudget budget;
    budget.store_j = cycle_store_energy(env);
    budget.p_charge_w = std::max(0.0, effective_power(env));
    return budget;
}

double
cycle_budget(const EnergyEnv& env, double tile_time_s)
{
    return cycle_budget_terms(env).for_tile(tile_time_s);
}

std::int64_t
min_tiles_eq9(double e_body_j, double t_body_s, double e_ckpt_tile_j,
              const EnergyEnv& env)
{
    if (e_body_j < 0.0 || t_body_s < 0.0 || e_ckpt_tile_j < 0.0)
        fatal("min_tiles_eq9: negative inputs");
    const CycleBudget budget = cycle_budget_terms(env);
    const double numerator = e_body_j - budget.p_charge_w * t_body_s;
    const double denominator = budget.store_j - e_ckpt_tile_j;
    if (numerator <= 0.0)
        return 1;  // harvest alone powers the layer: no split required
    if (denominator <= 0.0)
        return -1;  // fixed per-tile overhead exceeds a whole cycle
    return std::max<std::int64_t>(
        1, static_cast<std::int64_t>(std::ceil(numerator / denominator)));
}

AnalyticResult
analytic_evaluate(const dataflow::ModelCost& cost, const EnergyEnv& env)
{
    if (obs::MetricsRegistry* registry = obs::metrics())
        registry->counter("sim/analytic_evals").add(1);
    AnalyticResult result;
    result.e_all_j = cost.total_energy_j();
    result.max_tile_energy_j = cost.max_tile_energy_j();
    result.cycle_energy_j = cycle_store_energy(env);
    result.p_eff_w = effective_power(env);

    if (!cost.feasible) {
        result.failure = fault::make_failure(
            fault::FailureCode::kMappingInfeasible);
        return result;
    }
    if (result.p_eff_w <= 0.0) {
        result.failure = fault::make_failure(
            fault::FailureCode::kLeakageDominates);
        return result;
    }

    // Per-cycle feasibility (Eq. 8): the worst tile must fit inside one
    // energy cycle; harvest continues during execution (Eq. 3's T term).
    const double budget = cycle_budget(env, cost.max_tile_time_s());
    if (result.max_tile_energy_j > budget) {
        result.failure = fault::make_failure(
            fault::FailureCode::kTileExceedsCycle);
        return result;
    }

    // E2ELat (Eq. 7): when charging dominates, latency = E_all / P_eff;
    // when the harvester out-powers the load the system runs continuously
    // and the active execution time is the floor. On top of either, a
    // request arriving at U_off must first charge the capacitor swing to
    // U_on — the cold-start charging latency, which grows with C and is
    // the mechanism behind the paper's Fig. 7 capacitor trend.
    const energy::PowerManagementIc pmic(env.pmic);
    const double v_on = pmic.v_on();
    const double v_off = pmic.v_off();
    const double p_leak =
        env.capacitor.k_cap * env.capacitor.capacitance_f * v_on * v_on;
    const double swing_j =
        0.5 * env.capacitor.capacitance_f * (v_on * v_on - v_off * v_off);
    const double p_charge_net =
        env.p_eh_w * pmic.charge_efficiency() - p_leak -
        pmic.quiescent_power();
    if (p_charge_net <= 0.0) {
        result.failure = fault::make_failure(
            fault::FailureCode::kLeakageDominates);
        return result;
    }
    result.cold_start_s = swing_j / p_charge_net;

    // The cold start pre-charges the full swing; the execution may borrow
    // that stored energy, so only the *remainder* of E_all has to be
    // gathered while running (avoids double-counting the swing when
    // E_all is small relative to the capacitor).
    const double borrowed_j =
        std::min(result.e_all_j,
                 pmic.load_energy_from_capacitor(swing_j));
    result.feasible = true;
    result.latency_s =
        std::max((result.e_all_j - borrowed_j) / result.p_eff_w,
                 cost.time_s) +
        result.cold_start_s;
    result.e_harvest_j = env.p_eh_w * result.latency_s;
    result.e_leak_j = p_leak * result.latency_s;
    const double e_infer = cost.e_compute_j + cost.e_vm_j;
    result.system_efficiency =
        result.e_harvest_j > 0.0 ? e_infer / result.e_harvest_j : 0.0;
    return result;
}

}  // namespace chrysalis::sim
