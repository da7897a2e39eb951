#include "energy/energy_controller.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace chrysalis::energy {

EnergyController::EnergyController(SolarPanel panel, Capacitor capacitor,
                                   PowerManagementIc pmic)
    : panel_(std::move(panel)), capacitor_(std::move(capacitor)),
      pmic_(std::move(pmic))
{
    if (pmic_.v_on() > capacitor_.config().rated_voltage_v) {
        fatal("EnergyController: PMIC turn-on threshold ", pmic_.v_on(),
              " V exceeds capacitor rated voltage ",
              capacitor_.config().rated_voltage_v, " V");
    }
    state_ = capacitor_.voltage() >= pmic_.v_on() ? PowerState::kActive
                                                  : PowerState::kCharging;
}

void
EnergyController::attach_fault_model(const PowerFaultModel* model)
{
    if (model == fault_)
        return;
    if (fault_ != nullptr && model != nullptr) {
        fatal("EnergyController::attach_fault_model: a different fault "
              "model is already attached; its static derating cannot be "
              "undone — build a fresh controller instead");
    }
    fault_ = model;
    if (model == nullptr)
        return;
    capacitor_.derate(model->capacitance_scale(), model->leakage_scale());
    pmic_.apply_threshold_drift(model->v_on_offset_v(),
                                model->v_off_offset_v(),
                                capacitor_.config().rated_voltage_v);
    // Threshold drift can move the operating point across U_on.
    state_ = capacitor_.voltage() >= pmic_.v_on() ? PowerState::kActive
                                                  : PowerState::kCharging;
}

double
EnergyController::input_power_w(double t_s) const
{
    const double raw = panel_.power(t_s);
    return fault_ ? raw * fault_->harvest_factor(t_s) : raw;
}

EnergyStepResult
EnergyController::step(double t_s, double dt_s, double load_power_w)
{
    if (dt_s < 0.0)
        panic("EnergyController::step: negative dt ", dt_s);
    if (load_power_w < 0.0)
        panic("EnergyController::step: negative load power ", load_power_w);

    EnergyStepResult result;

    // 1. Harvest through the charger onto the storage bus. The PMIC can
    //    feed the load directly from harvest within the step; only the
    //    surplus/deficit goes through (comes from) the capacitor.
    const double harvested = input_power_w(t_s) * dt_s;
    ledger_.harvested_j += harvested;
    double bus_energy = harvested * pmic_.charge_efficiency();

    // 2. Capacitor leakage (Eq. 2) and PMIC quiescent draw (preferably
    //    served from the incoming harvest).
    ledger_.leaked_j += capacitor_.apply_leakage(dt_s);
    const double quiescent_need = pmic_.quiescent_power() * dt_s;
    const double quiescent_direct = std::min(quiescent_need, bus_energy);
    bus_energy -= quiescent_direct;
    const double quiescent_stored =
        capacitor_.discharge(quiescent_need - quiescent_direct);
    ledger_.quiescent_j += quiescent_direct + quiescent_stored;

    // 3. Load supply (only in the active state).
    if (state_ == PowerState::kActive && load_power_w > 0.0) {
        const double requested = load_power_w * dt_s;
        const double bus_need = pmic_.capacitor_energy_for_load(requested);
        const double direct = std::min(bus_need, bus_energy);
        bus_energy -= direct;
        // Bridge the deficit from storage, down to U_off.
        const double stored_budget = std::max(
            0.0, capacitor_.stored_energy() -
                     capacitor_.energy_between(0.0, pmic_.v_off()));
        const double from_cap =
            capacitor_.discharge(std::min(bus_need - direct,
                                          stored_budget));
        result.delivered_j =
            pmic_.load_energy_from_capacitor(direct + from_cap);
        ledger_.delivered_j += result.delivered_j;
        if (result.delivered_j + 1e-15 < requested) {
            // Could not satisfy the load within this step: brown-out.
            state_ = PowerState::kCharging;
            result.browned_out = true;
        }
    }

    // 4. Absorb the remaining harvest into the capacitor; overflow beyond
    //    the rated voltage is wasted.
    const double absorbed = capacitor_.charge(bus_energy);
    ledger_.stored_j += absorbed;
    ledger_.wasted_j += (bus_energy - absorbed) / pmic_.charge_efficiency();

    // 5. State transitions.
    if (state_ == PowerState::kCharging &&
        capacitor_.voltage() >= pmic_.v_on()) {
        state_ = PowerState::kActive;
        ++ledger_.cycle_count;
    } else if (state_ == PowerState::kActive &&
               capacitor_.voltage() < pmic_.v_off()) {
        state_ = PowerState::kCharging;
        result.browned_out = true;
    }

    result.state = state_;
    return result;
}

double
EnergyController::available_load_energy() const
{
    const double usable = std::max(
        0.0, capacitor_.stored_energy() -
                 capacitor_.energy_between(0.0, pmic_.v_off()));
    return pmic_.load_energy_from_capacitor(usable);
}

double
EnergyController::available_energy_eq3(double t_s, double exec_time_s) const
{
    const double v_on = pmic_.v_on();
    const double v_off = pmic_.v_off();
    const double c = capacitor_.config().capacitance_f;
    const double k_cap = capacitor_.config().k_cap;
    const double e_store = 0.5 * c * (v_on * v_on - v_off * v_off);
    const double p_eh = input_power_w(t_s);
    const double p_leak = k_cap * c * v_on * v_on;
    return e_store + exec_time_s * (p_eh - p_leak);  // Eq. 3
}

void
EnergyController::drain_to(double voltage_v)
{
    if (voltage_v < 0.0 || voltage_v > capacitor_.config().rated_voltage_v)
        fatal("EnergyController::drain_to: voltage ", voltage_v,
              " out of range");
    if (capacitor_.voltage() > voltage_v) {
        const double excess =
            capacitor_.stored_energy() -
            capacitor_.energy_between(0.0, voltage_v);
        ledger_.leaked_j += capacitor_.discharge(excess);
    }
    state_ = PowerState::kCharging;
}

void
EnergyController::reset()
{
    capacitor_.set_voltage(0.0);
    state_ = PowerState::kCharging;
    ledger_ = EnergyLedger{};
}

}  // namespace chrysalis::energy
