#include "search/mapping_search.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <utility>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "dataflow/tiling.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace chrysalis::search {

namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// The Eq. 8 budget terms of every environment, built once per search.
///
/// They are built when the first feasible layer cost is checked, walking
/// the environments in order and stopping at the first leakage-dominated
/// one: exactly as far as a check that rebuilt them per candidate would
/// walk, so hoisting validates no environment that check would not reach.
/// A ranking pass owns its budgets; a shared MappingGrid never stores
/// them.
class EnvBudgets
{
  public:
    explicit EnvBudgets(const std::vector<sim::EnergyEnv>& envs)
        : envs_(envs)
    {
    }

    /// Worst-case Eq. 8 overshoot of a layer's tiles across all
    /// environments; 0 when the layer is feasible everywhere.
    double
    violation(const AnalyzedMapping& candidate)
    {
        if (!candidate.cost.feasible)
            return kInfinity;
        if (!built_)
            build();
        if (leakage_dominated_)
            return kInfinity;
        double worst = 0.0;
        for (const auto& budget : budgets_) {
            worst = std::max(worst,
                             candidate.tile_energy_j -
                                 budget.for_tile(candidate.tile_time_s));
        }
        return std::max(0.0, worst);
    }

  private:
    void
    build()
    {
        built_ = true;
        for (const auto& env : envs_) {
            if (sim::effective_power(env) <= 0.0) {
                leakage_dominated_ = true;
                return;
            }
            budgets_.push_back(sim::cycle_budget_terms(env));
        }
    }

    const std::vector<sim::EnergyEnv>& envs_;
    std::vector<sim::CycleBudget> budgets_;
    bool built_ = false;
    bool leakage_dominated_ = false;
};

AnalyzedMapping
analyze(const dnn::Layer& layer, const dataflow::LayerMapping& mapping,
        const dataflow::CostParams& params)
{
    AnalyzedMapping analyzed;
    analyzed.mapping = mapping;
    analyzed.cost = dataflow::analyze_layer(layer, mapping, params);
    analyzed.total_energy_j = analyzed.cost.total_energy_j();
    analyzed.tile_energy_j = analyzed.cost.tile_energy_j();
    analyzed.tile_time_s = analyzed.cost.tile_time_s();
    return analyzed;
}

/// What both strategies rank a candidate by, read from its
/// AnalyzedMapping under one set of Eq. 8 budgets.
struct Score {
    double violation;
    double total_energy_j;
    std::int64_t n_tile;

    Score(const AnalyzedMapping& candidate, EnvBudgets& budgets)
        : violation(budgets.violation(candidate)),
          total_energy_j(candidate.total_energy_j),
          n_tile(candidate.cost.n_tile)
    {
    }

    bool
    better_than(const Score& other) const
    {
        // Feasible dominates infeasible; then lower violation; then lower
        // energy; then fewer tiles (less checkpoint pressure headroom).
        if ((violation == 0.0) != (other.violation == 0.0))
            return violation == 0.0;
        if (violation != other.violation)
            return violation < other.violation;
        if (total_energy_j != other.total_energy_j)
            return total_energy_j < other.total_energy_j;
        return n_tile < other.n_tile;
    }
};

/// Takes \p chosen as the next layer's mapping: its cost joins the model
/// cost, and an Eq. 8 violation fails the search.
void
take_layer(MappingSearchResult& result, const AnalyzedMapping& chosen,
           double violation)
{
    if (violation > 0.0) {
        result.feasible = false;
        result.violation_j += std::isfinite(violation) ? violation : 1e6;
        if (!result.failure) {
            result.failure = fault::make_failure(
                fault::FailureCode::kTileExceedsCycle,
                "layer " + std::to_string(result.mappings.size()) +
                    ": no mapping satisfies Eq. 8 in every environment");
        }
    }
    result.mappings.push_back(chosen.mapping);
    result.cost.add_layer(chosen.cost);
}

/// NVM capacity: weights, the worst inter-layer activation pair and the
/// largest checkpoint must all reside in non-volatile storage.
void
check_nvm_capacity(MappingSearchResult& result, std::int64_t capacity,
                   std::int64_t weight_bytes,
                   std::int64_t peak_activation_bytes)
{
    if (capacity <= 0)
        return;
    std::int64_t peak_ckpt = 0;
    for (const auto& layer : result.cost.layers)
        peak_ckpt = std::max(peak_ckpt, layer.ckpt_bytes);
    const std::int64_t footprint =
        weight_bytes + peak_activation_bytes + peak_ckpt;
    if (footprint > capacity) {
        result.feasible = false;
        // NVM capacity is the structural failure: it overrides any Eq. 8
        // note because no tiling can fix a model that does not fit
        // non-volatile storage.
        result.failure = fault::make_failure(
            fault::FailureCode::kNvmCapacityExceeded,
            "model footprint " + std::to_string(footprint) +
                " B exceeds NVM capacity " + std::to_string(capacity) +
                " B");
    }
}

void
publish_search(std::int64_t evaluations)
{
    if (obs::MetricsRegistry* registry = obs::metrics()) {
        registry->counter("search/inner/searches").add(1);
        registry->counter("search/inner/evaluations")
            .add(static_cast<std::uint64_t>(evaluations));
    }
}

std::vector<dataflow::Dataflow>
supported_dataflows(const hw::InferenceHardware& hardware)
{
    auto dataflows = hardware.supported_dataflows();
    if (dataflows.empty())
        panic("mapping search: ", hardware.name(),
              " supports no dataflows");
    return dataflows;
}

/// One member of the genetic strategy's population.
struct Individual {
    AnalyzedMapping analyzed;
    Score score;
};

Individual
search_layer_genetic(const dnn::Layer& layer,
                     const std::vector<dataflow::Dataflow>& dataflows,
                     const dataflow::CostParams& params, EnvBudgets& budgets,
                     const MappingSearchOptions& options,
                     std::int64_t& evaluations, Rng& rng)
{
    // GAMMA-style: individuals are (dataflow index, chunk-count exponents).
    const auto random_mapping = [&]() {
        dataflow::LayerMapping mapping;
        mapping.dataflow = dataflows[static_cast<std::size_t>(
            rng.uniform_int(0,
                            static_cast<std::int64_t>(dataflows.size()) -
                                1))];
        mapping.tiles_k = rng.uniform_int(1, layer.dims.k);
        mapping.tiles_y = rng.uniform_int(1, layer.dims.y);
        mapping.tiles_n = rng.uniform_int(1, layer.dims.n);
        return mapping;
    };
    const auto mutate = [&](dataflow::LayerMapping mapping) {
        switch (rng.uniform_int(0, 3)) {
          case 0:
            mapping.dataflow = dataflows[static_cast<std::size_t>(
                rng.uniform_int(
                    0, static_cast<std::int64_t>(dataflows.size()) - 1))];
            break;
          case 1:
            mapping.tiles_k = std::max<std::int64_t>(
                1, static_cast<std::int64_t>(
                       std::llround(static_cast<double>(mapping.tiles_k) *
                                    rng.uniform(0.5, 2.0))));
            break;
          case 2:
            mapping.tiles_y = std::max<std::int64_t>(
                1, static_cast<std::int64_t>(
                       std::llround(static_cast<double>(mapping.tiles_y) *
                                    rng.uniform(0.5, 2.0))));
            break;
          default:
            mapping.tiles_n = std::max<std::int64_t>(
                1, static_cast<std::int64_t>(
                       std::llround(static_cast<double>(mapping.tiles_n) *
                                    rng.uniform(0.5, 2.0))));
            break;
        }
        mapping.clamp_to(layer);
        return mapping;
    };

    const auto evaluate = [&](const dataflow::LayerMapping& mapping) {
        AnalyzedMapping analyzed = analyze(layer, mapping, params);
        const Score score(analyzed, budgets);
        ++evaluations;
        return Individual{std::move(analyzed), score};
    };

    std::vector<Individual> population;
    population.reserve(static_cast<std::size_t>(options.ga_population));
    for (int i = 0; i < options.ga_population; ++i)
        population.push_back(evaluate(random_mapping()));
    const auto better = [](const Individual& a, const Individual& b) {
        return a.score.better_than(b.score);
    };
    for (int gen = 1; gen < options.ga_generations; ++gen) {
        std::sort(population.begin(), population.end(), better);
        const std::size_t keep = population.size() / 2;
        for (std::size_t i = keep; i < population.size(); ++i) {
            const auto& parent =
                population[static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(keep) - 1))];
            population[i] = evaluate(mutate(parent.analyzed.mapping));
        }
    }
    return *std::min_element(population.begin(), population.end(), better);
}

}  // namespace

MappingGrid::MappingGrid(const dnn::Model& model,
                         const hw::InferenceHardware& hardware,
                         std::size_t max_candidates_per_dim)
{
    const dataflow::CostParams params = hardware.cost_params();
    const auto dataflows = supported_dataflows(hardware);

    // The grid depends on a layer only through its shape, so a layer
    // repeating an earlier shape shares that shape's grid.
    std::vector<const dnn::Layer*> firsts;  // first layer of each shape
    std::int64_t analyses = 0;
    layer_shape_.reserve(model.layer_count());
    for (std::size_t i = 0; i < model.layer_count(); ++i) {
        const dnn::Layer& layer = model.layer(i);
        auto first = std::find_if(
            firsts.begin(), firsts.end(), [&](const dnn::Layer* seen) {
                return dnn::same_shape(*seen, layer);
            });
        if (first == firsts.end()) {
            const auto mappings = dataflow::enumerate_mappings(
                layer, dataflows, max_candidates_per_dim);
            if (mappings.empty())
                panic("MappingGrid: no candidates for ", layer.name);
            std::vector<AnalyzedMapping> candidates;
            candidates.reserve(mappings.size());
            for (const auto& mapping : mappings)
                candidates.push_back(analyze(layer, mapping, params));
            analyses += static_cast<std::int64_t>(candidates.size());
            shapes_.push_back(std::move(candidates));
            firsts.push_back(&layer);
            first = std::prev(firsts.end());
        }
        layer_shape_.push_back(
            static_cast<std::size_t>(first - firsts.begin()));
    }

    nvm_capacity_bytes_ = hardware.nvm_capacity_bytes();
    weight_bytes_ = model.total_weight_bytes();
    peak_activation_bytes_ = model.peak_activation_bytes();
    if (obs::MetricsRegistry* registry = obs::metrics()) {
        registry->counter("search/inner/analyses")
            .add(static_cast<std::uint64_t>(analyses));
    }
}

MappingSearchResult
MappingGrid::rank(const std::vector<sim::EnergyEnv>& envs) const
{
    if (envs.empty())
        fatal("MappingGrid::rank: at least one energy environment required");

    // Rank each shape's grid once, in first-occurrence order: the order
    // in which a per-layer walk meets the candidates, so the budgets are
    // built at the same candidate. Among equals the first candidate in
    // enumerate_mappings() order wins.
    EnvBudgets budgets(envs);
    std::vector<std::pair<std::size_t, double>> chosen;  // (index, violation)
    chosen.reserve(shapes_.size());
    for (const auto& candidates : shapes_) {
        std::size_t best = 0;
        Score best_score(candidates.front(), budgets);
        for (std::size_t c = 1; c < candidates.size(); ++c) {
            const Score score(candidates[c], budgets);
            if (score.better_than(best_score)) {
                best = c;
                best_score = score;
            }
        }
        chosen.emplace_back(best, best_score.violation);
    }

    MappingSearchResult result;
    result.feasible = true;
    result.mappings.reserve(layer_shape_.size());
    result.cost.layers.reserve(layer_shape_.size());
    for (const std::size_t shape : layer_shape_) {
        const auto& [best, violation] = chosen[shape];
        take_layer(result, shapes_[shape][best], violation);
        result.evaluations +=
            static_cast<std::int64_t>(shapes_[shape].size());
    }
    check_nvm_capacity(result, nvm_capacity_bytes_, weight_bytes_,
                       peak_activation_bytes_);
    publish_search(result.evaluations);
    return result;
}

MappingSearchResult
search_mappings(const dnn::Model& model,
                const hw::InferenceHardware& hardware,
                const std::vector<sim::EnergyEnv>& envs,
                const MappingSearchOptions& options)
{
    if (envs.empty())
        fatal("search_mappings: at least one energy environment required");
    OBS_SPAN("search/inner");
    if (options.strategy == MappingSearchOptions::Strategy::kExhaustive) {
        return MappingGrid(model, hardware, options.max_candidates_per_dim)
            .rank(envs);
    }

    // The genetic strategy draws one RNG stream layer by layer, so it
    // searches every layer, repeated shapes included.
    const dataflow::CostParams params = hardware.cost_params();
    const auto dataflows = supported_dataflows(hardware);
    EnvBudgets budgets(envs);
    Rng rng(options.seed);
    MappingSearchResult result;
    result.feasible = true;
    result.mappings.reserve(model.layer_count());
    result.cost.layers.reserve(model.layer_count());
    for (std::size_t i = 0; i < model.layer_count(); ++i) {
        const Individual best =
            search_layer_genetic(model.layer(i), dataflows, params, budgets,
                                 options, result.evaluations, rng);
        take_layer(result, best.analyzed, best.score.violation);
    }
    check_nvm_capacity(result, hardware.nvm_capacity_bytes(),
                       model.total_weight_bytes(),
                       model.peak_activation_bytes());
    publish_search(result.evaluations);
    if (obs::MetricsRegistry* registry = obs::metrics()) {
        registry->counter("search/inner/analyses")
            .add(static_cast<std::uint64_t>(result.evaluations));
    }
    return result;
}

}  // namespace chrysalis::search
