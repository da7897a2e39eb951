/// \file
/// Design-space definitions (Tables IV and V) and candidate encoding.
///
/// A HwCandidate is one point in the joint EA/IA design space: the energy
/// subsystem's solar-panel area and capacitor size plus — for the future
/// AuT setup — the accelerator architecture, PE count and per-PE cache
/// size. The DesignSpace describes which knobs are searchable (ablation
/// baselines of Table VI freeze subsets) and their ranges.

#ifndef CHRYSALIS_SEARCH_DESIGN_SPACE_HPP
#define CHRYSALIS_SEARCH_DESIGN_SPACE_HPP

#include <cstdint>
#include <memory>
#include <string>

#include "hw/accelerator.hpp"
#include "hw/msp430_lea.hpp"

namespace chrysalis::search {

/// Which inference hardware family the space targets.
enum class HardwareFamily {
    kMsp430,       ///< existing AuT setup (Table IV): fixed MCU+LEA
    kAccelerator,  ///< future AuT setup (Table V): reconfigurable
};

/// One candidate architecture (the outer-level genome).
struct HwCandidate {
    HardwareFamily family = HardwareFamily::kMsp430;
    double solar_cm2 = 8.0;        ///< A_eh
    double capacitance_f = 100e-6; ///< C
    hw::AcceleratorArch arch = hw::AcceleratorArch::kEyeriss;
    std::int64_t n_pe = 64;             ///< accelerator only
    std::int64_t cache_bytes = 512;     ///< accelerator only (per PE)

    /// Instantiates the inference hardware this candidate describes.
    std::unique_ptr<hw::InferenceHardware> build_hardware() const;

    /// Short description, e.g. "sp=8.0cm2 C=100uF eyeriss pe=64 cache=512".
    std::string describe() const;
};

/// Searchable ranges and frozen defaults.
struct DesignSpace {
    HardwareFamily family = HardwareFamily::kMsp430;

    // Energy subsystem (Table IV/V shared rows).
    bool search_solar = true;
    double solar_min_cm2 = 1.0;
    double solar_max_cm2 = 30.0;
    bool search_capacitor = true;
    double cap_min_f = 1e-6;
    double cap_max_f = 10e-3;

    // Inference subsystem (Table V rows; ignored for kMsp430).
    bool search_arch = false;
    bool search_pe = false;
    std::int64_t pe_min = 1;
    std::int64_t pe_max = 168;
    bool search_cache = false;
    std::int64_t cache_min_bytes = 128;
    std::int64_t cache_max_bytes = 2048;

    // Defaults used when a knob is frozen (the wo/* baselines of
    /// Table VI fix knobs at these values).
    HwCandidate defaults;

    /// Table IV space: MSP430 platform, EH + tiling searched.
    static DesignSpace existing_aut();

    /// Table V space: reconfigurable accelerator, all five knobs searched.
    static DesignSpace future_aut();

    /// Returns a candidate with every frozen knob at its default and every
    /// searchable knob clamped into range.
    HwCandidate clamp(HwCandidate candidate) const;

    /// Number of continuous/int/categorical knobs currently searchable.
    int searchable_knob_count() const;

    /// True when every candidate runs on the same inference hardware:
    /// the MSP430 family, or an accelerator whose architecture, PE count
    /// and cache size are all frozen (Table VI's wo/IA).
    bool fixes_hardware() const;
};

/// Ablation baselines of Table VI: each disables part of the search.
enum class BaselineKind {
    kFull,     ///< CHRYSALIS: everything searched
    kWoCap,    ///< capacitor frozen
    kWoSp,     ///< solar panel frozen (iNAS-style [49])
    kWoEa,     ///< whole energy subsystem frozen ([24], [35])
    kWoPe,     ///< PE count frozen
    kWoCache,  ///< cache size frozen
    kWoIa,     ///< whole inference subsystem frozen
};

/// Short label, e.g. "wo/Cap", "CHRYSALIS".
std::string to_string(BaselineKind kind);

/// All baselines in Table VI order (wo/* first, CHRYSALIS last).
const std::vector<BaselineKind>& all_baselines();

/// Applies a baseline to a design space: freezes the corresponding knobs.
DesignSpace apply_baseline(DesignSpace space, BaselineKind kind);

}  // namespace chrysalis::search

#endif  // CHRYSALIS_SEARCH_DESIGN_SPACE_HPP
