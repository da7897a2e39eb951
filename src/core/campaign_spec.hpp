/// \file
/// Campaign description, the input of `chrysalis_cli campaign` and of
/// perfbench's Table-IV campaign.
///
/// A `CampaignSpec` captures everything that shapes a campaign's
/// *results* — workload, design space, objective cycle, GA budget,
/// seeds, environments, fault spec — as flat scalar fields, expanded
/// into `CampaignCase`s + `ExplorerOptions` and run through
/// `run_campaign`. Execution knobs that never change results (thread
/// counts, timeouts, journal paths) are deliberately *not* part of the
/// spec.
///
/// A spec is the campaign front end's input: \p cases search cases over
/// one workload, objectives cycling latsp/lat/sp, per-case seeds
/// decorrelated by `run_campaign`'s index offset. `chrysalis_cli`'s
/// single-design mode reads the same result-shaping fields.

#ifndef CHRYSALIS_CORE_CAMPAIGN_SPEC_HPP
#define CHRYSALIS_CORE_CAMPAIGN_SPEC_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "fault/fault_injector.hpp"

namespace chrysalis::core {

/// Result-shaping description of one campaign. validate() fatals on
/// out-of-range fields.
struct CampaignSpec {
    std::string model = "kws";       ///< model-zoo name (or .model path)
    std::string space = "existing";  ///< "existing" | "future"
    int cases = 6;                   ///< objectives cycle latsp/lat/sp
    double sp_limit_cm2 = 20.0;      ///< panel budget (lat objective)
    double lat_limit_s = 10.0;       ///< deadline (sp objective)
    int population = 24;             ///< HW-level GA population
    int generations = 16;            ///< HW-level GA generations
    std::uint64_t seed = 1;          ///< base search seed
    double bright_w_cm2 = 2.0e-3;    ///< brighter environment k_eh
    double dark_w_cm2 = 0.5e-3;      ///< darker environment k_eh
    double fault_dropout = 0.0;      ///< harvester dropout probability
    double fault_age_years = 0.0;    ///< capacitor mission age
    double fault_ckpt = 0.0;         ///< checkpoint corruption rate

    void validate() const;
};

/// Objective kind of case \p index: "latsp", "lat", "sp", cycling.
const char* campaign_case_kind(std::size_t index);

/// Objective of \p kind ("lat", "sp", "latsp" or "lat*sp", any case)
/// with the spec's panel budget (lat) or deadline (sp); fatal() on any
/// other kind.
search::Objective campaign_objective(const CampaignSpec& spec,
                                     const std::string& kind);

/// Label of case \p index: "<model-name>-<kind>-<index>".
std::string campaign_case_label(const std::string& model_name,
                                std::size_t index);

/// Builds case \p index over \p model (resolved by the caller, so runs
/// may use file-loaded models as well as `spec.model` from the zoo).
CampaignCase build_campaign_case(const CampaignSpec& spec,
                                 const dnn::Model& model,
                                 std::size_t index);

/// All spec.cases cases, in index order.
std::vector<CampaignCase> build_campaign_cases(const CampaignSpec& spec,
                                               const dnn::Model& model);

/// ExplorerOptions the spec describes: defaults + GA budget, seed,
/// environments and — when any fault knob is active — an injector
/// (owned via \p faults, which must outlive the returned options).
search::ExplorerOptions
build_explorer_options(const CampaignSpec& spec,
                       std::unique_ptr<fault::FaultInjector>& faults);

}  // namespace chrysalis::core

#endif  // CHRYSALIS_CORE_CAMPAIGN_SPEC_HPP
