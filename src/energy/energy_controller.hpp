/// \file
/// Energy-subsystem controller: the step-based state machine that ties
/// harvester, capacitor and PMIC together (Eq. 3 and the "energy cycle"
/// behaviour of §III-B1).
///
/// The controller exposes the interface the inference subsystem uses
/// ("energy controller interface", §III-D): step the subsystem forward,
/// query whether the load may run, and draw energy for computation. It also
/// keeps the cumulative energy ledger needed by the evaluation figures
/// (harvested / leaked / delivered / wasted energy, cycle count).

#ifndef CHRYSALIS_ENERGY_ENERGY_CONTROLLER_HPP
#define CHRYSALIS_ENERGY_ENERGY_CONTROLLER_HPP

#include <cstdint>

#include "energy/capacitor.hpp"
#include "energy/fault_hooks.hpp"
#include "energy/harvester.hpp"
#include "energy/power_management.hpp"

namespace chrysalis::energy {

/// Operating state of the energy subsystem.
enum class PowerState {
    kCharging,  ///< below U_on (or browned out); load is off
    kActive,    ///< between U_off and U_on after turn-on; load may run
};

/// Cumulative energy ledger, in joules at the points noted.
struct EnergyLedger {
    double harvested_j = 0.0;  ///< produced by the harvester (pre-PMIC)
    double stored_j = 0.0;     ///< accepted into the capacitor
    double wasted_j = 0.0;     ///< harvest lost to a full capacitor or PMIC
    double leaked_j = 0.0;     ///< capacitor leakage (Eq. 2)
    double delivered_j = 0.0;  ///< delivered to the load (post-regulator)
    double quiescent_j = 0.0;  ///< PMIC self-consumption
    std::int64_t cycle_count = 0;  ///< completed charge->active transitions
};

/// Result of advancing the subsystem by one step.
struct EnergyStepResult {
    PowerState state = PowerState::kCharging;
    bool browned_out = false;  ///< voltage crossed U_off during this step
    double delivered_j = 0.0;  ///< load energy actually supplied this step
};

/// Owns the energy-domain components and advances them in lock-step with
/// the inference controller.
class EnergyController
{
  public:
    /// \param panel ambient-energy source (Eq. 1).
    /// \param capacitor storage element (taken by value; the controller
    ///        owns its state).
    /// \param pmic threshold/efficiency model.
    EnergyController(SolarPanel panel, Capacitor capacitor,
                     PowerManagementIc pmic);

    /// Attaches an optional fault model (non-owning; may be null to
    /// detach). Static degradations — capacitance fade, leakage growth,
    /// PMIC threshold drift — are applied to the owned components once,
    /// at attach time; the time-varying harvest factor is consulted on
    /// every step. Re-attaching the same model is a no-op; replacing one
    /// non-null model with a different one is a user error (the earlier
    /// derating cannot be undone) and fatal()s.
    void attach_fault_model(const PowerFaultModel* model);

    /// Panel output power at \p t_s after the fault model's harvest
    /// factor [W]. All charging math (including the simulator's
    /// time-to-turn-on estimate) must use this, not the raw panel.
    double input_power_w(double t_s) const;

    /// Advances time by \p dt_s while the load requests \p load_power_w.
    /// Harvest, leakage and quiescent draw are applied; load energy is
    /// supplied only in the kActive state and only while voltage stays
    /// above U_off.
    EnergyStepResult step(double t_s, double dt_s, double load_power_w);

    /// True when the load is allowed to run.
    bool can_run() const { return state_ == PowerState::kActive; }

    /// Current capacitor voltage [V].
    double voltage() const { return capacitor_.voltage(); }

    /// Energy the load could draw before brown-out, through the regulator.
    double available_load_energy() const;

    /// Closed-form available energy per Eq. 3 for an execution lasting
    /// \p exec_time_s under the harvester's current-time power:
    /// E = 1/2 C (U_on^2 - U_off^2) + T (k_eh A_eh - k_cap C U_on^2).
    double available_energy_eq3(double t_s, double exec_time_s) const;

    /// Cumulative ledger since construction.
    const EnergyLedger& ledger() const { return ledger_; }

    /// Resets voltage to zero, state to charging, and clears the ledger.
    void reset();

    /// Drains the capacitor down to \p voltage_v (no-op if already lower)
    /// and returns to the charging state. Models idle self-discharge
    /// between duty-cycled inference requests; the drained energy is
    /// booked as leakage.
    void drain_to(double voltage_v);

    const Capacitor& capacitor() const { return capacitor_; }
    const PowerManagementIc& pmic() const { return pmic_; }

  private:
    SolarPanel panel_;
    Capacitor capacitor_;
    PowerManagementIc pmic_;
    PowerState state_ = PowerState::kCharging;
    EnergyLedger ledger_;
    const PowerFaultModel* fault_ = nullptr;  ///< non-owning
};

}  // namespace chrysalis::energy

#endif  // CHRYSALIS_ENERGY_ENERGY_CONTROLLER_HPP
