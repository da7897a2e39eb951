#include "search/design_space.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

#include "common/logging.hpp"
#include "common/string_utils.hpp"

namespace chrysalis::search {

std::unique_ptr<hw::InferenceHardware>
HwCandidate::build_hardware() const
{
    switch (family) {
      case HardwareFamily::kMsp430:
        return std::make_unique<hw::Msp430Lea>();
      case HardwareFamily::kAccelerator: {
        hw::ReconfigurableAccelerator::Config config;
        config.arch = arch;
        config.n_pe = n_pe;
        config.cache_bytes_per_pe = cache_bytes;
        return std::make_unique<hw::ReconfigurableAccelerator>(config);
      }
    }
    panic("HwCandidate::build_hardware: invalid family");
}

std::string
HwCandidate::describe() const
{
    std::ostringstream os;
    os << "sp=" << format_fixed(solar_cm2, 1) << "cm2 C="
       << format_si(capacitance_f, "F", 0);
    if (family == HardwareFamily::kAccelerator) {
        os << " " << hw::to_string(arch) << " pe=" << n_pe << " cache="
           << cache_bytes << "B";
    } else {
        os << " msp430";
    }
    return os.str();
}

DesignSpace
DesignSpace::existing_aut()
{
    DesignSpace space;
    space.family = HardwareFamily::kMsp430;
    space.defaults.family = HardwareFamily::kMsp430;
    // iNAS-style reference point: P_in = 6 mW at ~2 mW/cm^2 needs ~3 cm^2;
    // the paper replicates iNAS with C >= 1 mF.
    space.defaults.solar_cm2 = 3.0;
    space.defaults.capacitance_f = 1e-3;
    return space;
}

DesignSpace
DesignSpace::future_aut()
{
    DesignSpace space;
    space.family = HardwareFamily::kAccelerator;
    space.search_arch = true;
    space.search_pe = true;
    space.search_cache = true;
    space.defaults.family = HardwareFamily::kAccelerator;
    space.defaults.solar_cm2 = 8.0;
    space.defaults.capacitance_f = 1e-3;
    space.defaults.arch = hw::AcceleratorArch::kEyeriss;
    space.defaults.n_pe = 64;
    space.defaults.cache_bytes = 512;
    return space;
}

HwCandidate
DesignSpace::clamp(HwCandidate candidate) const
{
    candidate.family = family;
    if (search_solar) {
        candidate.solar_cm2 =
            std::clamp(candidate.solar_cm2, solar_min_cm2, solar_max_cm2);
    } else {
        candidate.solar_cm2 = defaults.solar_cm2;
    }
    if (search_capacitor) {
        candidate.capacitance_f =
            std::clamp(candidate.capacitance_f, cap_min_f, cap_max_f);
    } else {
        candidate.capacitance_f = defaults.capacitance_f;
    }
    if (family == HardwareFamily::kAccelerator) {
        if (search_arch) {
            // nothing to clamp: enum already valid
        } else {
            candidate.arch = defaults.arch;
        }
        if (search_pe)
            candidate.n_pe = std::clamp(candidate.n_pe, pe_min, pe_max);
        else
            candidate.n_pe = defaults.n_pe;
        if (search_cache) {
            candidate.cache_bytes = std::clamp(
                candidate.cache_bytes, cache_min_bytes, cache_max_bytes);
        } else {
            candidate.cache_bytes = defaults.cache_bytes;
        }
    } else {
        candidate.arch = defaults.arch;
        candidate.n_pe = 1;
        candidate.cache_bytes = defaults.cache_bytes;
    }
    return candidate;
}

int
DesignSpace::searchable_knob_count() const
{
    int count = 0;
    count += search_solar ? 1 : 0;
    count += search_capacitor ? 1 : 0;
    if (family == HardwareFamily::kAccelerator) {
        count += search_arch ? 1 : 0;
        count += search_pe ? 1 : 0;
        count += search_cache ? 1 : 0;
    }
    return count;
}

bool
DesignSpace::fixes_hardware() const
{
    return family == HardwareFamily::kMsp430 ||
           (!search_arch && !search_pe && !search_cache);
}

std::string
to_string(BaselineKind kind)
{
    switch (kind) {
      case BaselineKind::kFull: return "CHRYSALIS";
      case BaselineKind::kWoCap: return "wo/Cap";
      case BaselineKind::kWoSp: return "wo/SP";
      case BaselineKind::kWoEa: return "wo/EA";
      case BaselineKind::kWoPe: return "wo/PE";
      case BaselineKind::kWoCache: return "wo/Cache";
      case BaselineKind::kWoIa: return "wo/IA";
    }
    return "?";
}

const std::vector<BaselineKind>&
all_baselines()
{
    static const std::vector<BaselineKind> kAll = {
        BaselineKind::kWoCap, BaselineKind::kWoSp, BaselineKind::kWoEa,
        BaselineKind::kWoPe,  BaselineKind::kWoCache, BaselineKind::kWoIa,
        BaselineKind::kFull,
    };
    return kAll;
}

DesignSpace
apply_baseline(DesignSpace space, BaselineKind kind)
{
    switch (kind) {
      case BaselineKind::kFull:
        break;
      case BaselineKind::kWoCap:
        space.search_capacitor = false;
        break;
      case BaselineKind::kWoSp:
        space.search_solar = false;
        break;
      case BaselineKind::kWoEa:
        space.search_capacitor = false;
        space.search_solar = false;
        break;
      case BaselineKind::kWoPe:
        space.search_pe = false;
        break;
      case BaselineKind::kWoCache:
        space.search_cache = false;
        break;
      case BaselineKind::kWoIa:
        space.search_pe = false;
        space.search_cache = false;
        space.search_arch = false;
        break;
    }
    return space;
}

}  // namespace chrysalis::search
