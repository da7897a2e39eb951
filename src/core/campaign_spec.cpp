#include "core/campaign_spec.hpp"

#include <cmath>

#include "common/logging.hpp"
#include "common/string_utils.hpp"
#include "search/optimizer.hpp"

namespace chrysalis::core {

namespace {

/// Probability knobs must be finite and within [0, 1].
void
check_probability(const char* name, double value)
{
    if (!(value >= 0.0 && value <= 1.0) || !std::isfinite(value))
        fatal("CampaignSpec: ", name, " must be in [0, 1], got ", value);
}

}  // namespace

void
CampaignSpec::validate() const
{
    if (model.empty())
        fatal("CampaignSpec: model must not be empty");
    const std::string space_key = to_lower(space);
    if (space_key != "existing" && space_key != "future")
        fatal("CampaignSpec: space must be 'existing' or 'future', got '",
              space, "'");
    if (cases < 1)
        fatal("CampaignSpec: cases must be >= 1, got ", cases);
    if (!(sp_limit_cm2 > 0.0) || !std::isfinite(sp_limit_cm2))
        fatal("CampaignSpec: sp_limit_cm2 must be finite and > 0, got ",
              sp_limit_cm2);
    if (!(lat_limit_s > 0.0) || !std::isfinite(lat_limit_s))
        fatal("CampaignSpec: lat_limit_s must be finite and > 0, got ",
              lat_limit_s);
    if (population < search::kMinGaPopulation)
        fatal("CampaignSpec: population must be >= ",
              search::kMinGaPopulation, ", got ", population);
    if (generations < 1)
        fatal("CampaignSpec: generations must be >= 1, got ", generations);
    if (!(bright_w_cm2 > 0.0) || !std::isfinite(bright_w_cm2))
        fatal("CampaignSpec: bright_w_cm2 must be finite and > 0, got ",
              bright_w_cm2);
    if (!(dark_w_cm2 > 0.0) || !std::isfinite(dark_w_cm2))
        fatal("CampaignSpec: dark_w_cm2 must be finite and > 0, got ",
              dark_w_cm2);
    check_probability("fault_dropout", fault_dropout);
    check_probability("fault_ckpt", fault_ckpt);
    if (!(fault_age_years >= 0.0) || !std::isfinite(fault_age_years))
        fatal("CampaignSpec: fault_age_years must be finite and >= 0, "
              "got ", fault_age_years);
}

const char*
campaign_case_kind(std::size_t index)
{
    static const char* const kKinds[] = {"latsp", "lat", "sp"};
    return kKinds[index % 3];
}

std::string
campaign_case_label(const std::string& model_name, std::size_t index)
{
    return model_name + "-" + campaign_case_kind(index) + "-" +
           std::to_string(index);
}

search::Objective
campaign_objective(const CampaignSpec& spec, const std::string& kind)
{
    const std::string key = to_lower(kind);
    if (key == "lat")
        return {search::ObjectiveKind::kLatency, spec.sp_limit_cm2, 0.0};
    if (key == "sp")
        return {search::ObjectiveKind::kSolarPanel, 0.0, spec.lat_limit_s};
    if (key == "latsp" || key == "lat*sp")
        return {search::ObjectiveKind::kLatSp, 0.0, 0.0};
    fatal("unknown objective '", kind, "'");
}

CampaignCase
build_campaign_case(const CampaignSpec& spec, const dnn::Model& model,
                    std::size_t index)
{
    return {campaign_case_label(model.name(), index), model,
            to_lower(spec.space) == "future"
                ? search::DesignSpace::future_aut()
                : search::DesignSpace::existing_aut(),
            campaign_objective(spec, campaign_case_kind(index))};
}

std::vector<CampaignCase>
build_campaign_cases(const CampaignSpec& spec, const dnn::Model& model)
{
    spec.validate();
    std::vector<CampaignCase> cases;
    cases.reserve(static_cast<std::size_t>(spec.cases));
    for (int i = 0; i < spec.cases; ++i)
        cases.push_back(
            build_campaign_case(spec, model, static_cast<std::size_t>(i)));
    return cases;
}

search::ExplorerOptions
build_explorer_options(const CampaignSpec& spec,
                       std::unique_ptr<fault::FaultInjector>& faults)
{
    spec.validate();
    search::ExplorerOptions options;
    options.outer.population = spec.population;
    options.outer.generations = spec.generations;
    options.outer.seed = spec.seed;
    options.k_eh_envs = {spec.bright_w_cm2, spec.dark_w_cm2};
    faults.reset();
    if (spec.fault_dropout > 0.0 || spec.fault_age_years > 0.0 ||
        spec.fault_ckpt > 0.0) {
        fault::FaultSpec fault_spec;
        fault_spec.seed = spec.seed;
        fault_spec.dropout_probability = spec.fault_dropout;
        fault_spec.mission_age_years = spec.fault_age_years;
        fault_spec.ckpt_corruption_rate = spec.fault_ckpt;
        faults = std::make_unique<fault::FaultInjector>(fault_spec);
    }
    options.faults = faults.get();
    return options;
}

}  // namespace chrysalis::core
