#include "energy/harvester.hpp"

#include "common/logging.hpp"

namespace chrysalis::energy {

SolarPanel::SolarPanel(double area_cm2,
                       std::shared_ptr<const SolarEnvironment> environment)
    : area_cm2_(area_cm2), environment_(std::move(environment))
{
    if (area_cm2_ <= 0.0)
        fatal("SolarPanel: area must be > 0 cm^2, got ", area_cm2_);
    if (!environment_)
        fatal("SolarPanel: environment must not be null");
}

std::string
SolarPanel::name() const
{
    return "solar-panel(" + environment_->name() + ")";
}

}  // namespace chrysalis::energy
