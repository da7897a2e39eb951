/// \file
/// The energy harvester (Eq. 1 of the paper): a solar panel converting
/// the ambient light of a SolarEnvironment into electrical input power,
/// P_eh = A_eh * k_eh.

#ifndef CHRYSALIS_ENERGY_HARVESTER_HPP
#define CHRYSALIS_ENERGY_HARVESTER_HPP

#include <memory>
#include <string>

#include "energy/solar_environment.hpp"

namespace chrysalis::energy {

/// Photovoltaic panel: P_eh = A_eh * k_eh(t) (Eq. 1).
class SolarPanel
{
  public:
    /// \param area_cm2 panel area [cm^2]; must be > 0.
    /// \param environment ambient-light model; must not be null.
    SolarPanel(double area_cm2,
               std::shared_ptr<const SolarEnvironment> environment);

    /// Electrical power produced at time \p t_s [W].
    double power(double t_s) const
    {
        return area_cm2_ * environment_->k_eh(t_s);  // Eq. 1
    }

    /// Panel footprint [cm^2] — the dominant SWaP size term (§III-B3).
    double area_cm2() const { return area_cm2_; }

    /// Human-readable name for reports.
    std::string name() const;

  private:
    double area_cm2_;
    std::shared_ptr<const SolarEnvironment> environment_;
};

}  // namespace chrysalis::energy

#endif  // CHRYSALIS_ENERGY_HARVESTER_HPP
