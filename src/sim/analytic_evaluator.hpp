/// \file
/// Closed-form evaluator (Eqs. 3, 5, 7, 8).
///
/// The bi-level search evaluates thousands of candidate architectures; the
/// analytic evaluator provides a fast estimate of end-to-end latency and
/// energy by combining the dataflow cost model (E_all, Eq. 5) with the
/// energy subsystem's effective charging power:
///
///   E2ELat = max(E_all / P_eff, T_active) + T_cold
///   P_eff  = P_eh * eta_chg * eta_dis - P_leak - P_quiescent
///
/// T_cold is the charging latency from U_off to U_on: the paper observes
/// that "in an AuT, the latency is mainly determined by the charging
/// latency" (§III-B3), and its Fig. 7 shows single-inference latency
/// growing with capacitor size because a request arriving after a
/// brown-out must charge the full swing before turn-on. The evaluator
/// also checks the per-cycle feasibility constraint E_tile <= E_available
/// (Eq. 8 with Eq. 3). The step simulator (simulate_inference)
/// cross-validates this estimate (see tests/sim/cross_validation_test.cpp).

#ifndef CHRYSALIS_SIM_ANALYTIC_EVALUATOR_HPP
#define CHRYSALIS_SIM_ANALYTIC_EVALUATOR_HPP

#include "dataflow/cost_model.hpp"
#include "energy/capacitor.hpp"
#include "energy/power_management.hpp"
#include "fault/failure.hpp"
#include "fault/fault_injector.hpp"

namespace chrysalis::sim {

/// Energy-subsystem parameters as seen by the analytic evaluator.
struct EnergyEnv {
    double p_eh_w = 0.0;  ///< harvester input power P_eh = A_eh * k_eh [W]
    energy::Capacitor::Config capacitor;
    energy::PowerManagementIc::Config pmic;
};

/// Returns \p env derated by \p faults so analytic evaluations see the
/// same degraded device the step simulator would: P_eh scaled by the
/// mean harvest factor of dropout storms, capacitance fade and leakage
/// growth applied to the capacitor, and threshold drift applied to the
/// PMIC (clamped against the capacitor's rated voltage, matching
/// `EnergyController::attach_fault_model`).
EnergyEnv with_faults(EnergyEnv env, const fault::FaultInjector& faults);

/// Analytic evaluation outcome.
struct AnalyticResult {
    bool feasible = false;      ///< system can finish the inference
    fault::SimFailure failure;  ///< failure code + detail when infeasible

    double latency_s = 0.0;      ///< E2ELat (Eq. 7 + cold-start charge)
    double cold_start_s = 0.0;   ///< time to charge U_off -> U_on
    double e_all_j = 0.0;        ///< load-side energy E_all (Eq. 5)
    double e_harvest_j = 0.0;    ///< harvested energy over the latency
    double e_leak_j = 0.0;       ///< capacitor leakage over the latency
    double p_eff_w = 0.0;        ///< effective charging power
    double cycle_energy_j = 0.0; ///< usable energy per cycle (Eq. 3 E_store)
    double max_tile_energy_j = 0.0;  ///< worst E_tile across layers
    double system_efficiency = 0.0;  ///< E_infer / E_eh (Fig. 8/11 metric)
};

/// Usable stored energy per energy cycle at the load side:
/// eta_dis * 1/2 C (U_on^2 - U_off^2).
double cycle_store_energy(const EnergyEnv& env);

/// Effective charging power reaching the load:
/// P_eh * eta_chg * eta_dis - eta_dis * P_leak(U_on) - eta_dis * P_q.
/// May be negative when leakage dominates.
double effective_power(const EnergyEnv& env);

/// The environment-invariant terms of the per-cycle budget (Eq. 3 + Eq. 8
/// feasibility bound), so a caller checking many tiles against one
/// environment builds them once.
struct CycleBudget {
    double store_j = 0.0;     ///< cycle_store_energy(env)
    double p_charge_w = 0.0;  ///< effective_power(env), floored at 0

    /// Budget available to a tile whose active time is \p tile_time_s.
    double for_tile(double tile_time_s) const
    {
        return store_j + p_charge_w * tile_time_s;
    }
};

/// Builds the CycleBudget of \p env.
CycleBudget cycle_budget_terms(const EnergyEnv& env);

/// Per-cycle energy budget available to a tile whose active time is
/// \p tile_time_s: cycle_budget_terms(env).for_tile(tile_time_s).
double cycle_budget(const EnergyEnv& env, double tile_time_s);

/// Evaluates a model cost against an energy environment.
AnalyticResult analytic_evaluate(const dataflow::ModelCost& cost,
                                 const EnergyEnv& env);

}  // namespace chrysalis::sim

#endif  // CHRYSALIS_SIM_ANALYTIC_EVALUATOR_HPP
