#include "search/mapping_search.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "dataflow/tiling.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace chrysalis::search {

namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// The Eq. 8 budget terms of every environment, built once per call.
///
/// They are built when the first feasible layer cost is checked, walking
/// the environments in order and stopping at the first leakage-dominated
/// one: exactly as far as a check that rebuilt them per candidate would
/// walk, so hoisting validates no environment that check would not reach.
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
    violation(const dataflow::LayerCost& cost)
    {
        if (!cost.feasible)
            return kInfinity;
        if (!built_)
            build();
        if (leakage_dominated_)
            return kInfinity;
        const double tile_energy_j = cost.tile_energy_j();
        const double tile_time_s = cost.tile_time_s();
        double worst = 0.0;
        for (const auto& budget : budgets_) {
            worst = std::max(worst,
                             tile_energy_j - budget.for_tile(tile_time_s));
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

/// Scores one (layer, mapping): first by feasibility, then by energy.
struct ScoredMapping {
    dataflow::LayerMapping mapping;
    dataflow::LayerCost cost;
    double violation = kInfinity;

    bool
    better_than(const ScoredMapping& other) const
    {
        // Feasible dominates infeasible; then lower violation; then lower
        // energy; then fewer tiles (less checkpoint pressure headroom).
        if ((violation == 0.0) != (other.violation == 0.0))
            return violation == 0.0;
        if (violation != other.violation)
            return violation < other.violation;
        const double mine = cost.total_energy_j();
        const double theirs = other.cost.total_energy_j();
        if (mine != theirs)
            return mine < theirs;
        return cost.n_tile < other.cost.n_tile;
    }
};

ScoredMapping
score_mapping(const dnn::Layer& layer, const dataflow::LayerMapping& mapping,
              const dataflow::CostParams& params, EnvBudgets& budgets)
{
    ScoredMapping scored;
    scored.mapping = mapping;
    scored.cost = dataflow::analyze_layer(layer, mapping, params);
    scored.violation = budgets.violation(scored.cost);
    return scored;
}

/// The exhaustive choice for one layer shape.
struct RankedShape {
    const dnn::Layer* layer = nullptr;  ///< first layer of this shape
    ScoredMapping best;
    std::int64_t candidates = 0;  ///< size of the shape's mapping grid
};

/// Ranks the whole mapping grid of \p layer; among equals the first
/// candidate in enumerate_mappings() order wins.
RankedShape
rank_exhaustive(const dnn::Layer& layer,
                const std::vector<dataflow::Dataflow>& dataflows,
                const dataflow::CostParams& params, EnvBudgets& budgets,
                const MappingSearchOptions& options)
{
    const auto candidates = dataflow::enumerate_mappings(
        layer, dataflows, options.max_candidates_per_dim);
    if (candidates.empty())
        panic("rank_exhaustive: no candidates for ", layer.name);
    RankedShape ranked;
    ranked.layer = &layer;
    ranked.candidates = static_cast<std::int64_t>(candidates.size());
    ranked.best = score_mapping(layer, candidates.front(), params, budgets);
    for (std::size_t c = 1; c < candidates.size(); ++c) {
        ScoredMapping scored =
            score_mapping(layer, candidates[c], params, budgets);
        if (scored.better_than(ranked.best))
            ranked.best = std::move(scored);
    }
    return ranked;
}

ScoredMapping
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

    std::vector<ScoredMapping> population;
    population.reserve(static_cast<std::size_t>(options.ga_population));
    for (int i = 0; i < options.ga_population; ++i) {
        population.push_back(
            score_mapping(layer, random_mapping(), params, budgets));
        ++evaluations;
    }
    const auto better = [](const ScoredMapping& a, const ScoredMapping& b) {
        return a.better_than(b);
    };
    for (int gen = 1; gen < options.ga_generations; ++gen) {
        std::sort(population.begin(), population.end(), better);
        const std::size_t keep = population.size() / 2;
        for (std::size_t i = keep; i < population.size(); ++i) {
            const auto& parent =
                population[static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(keep) - 1))];
            population[i] =
                score_mapping(layer, mutate(parent.mapping), params, budgets);
            ++evaluations;
        }
    }
    return *std::min_element(population.begin(), population.end(), better);
}

}  // namespace

MappingSearchResult
search_mappings(const dnn::Model& model,
                const hw::InferenceHardware& hardware,
                const std::vector<sim::EnergyEnv>& envs,
                const MappingSearchOptions& options)
{
    if (envs.empty())
        fatal("search_mappings: at least one energy environment required");
    OBS_SPAN("search/inner");

    const dataflow::CostParams params = hardware.cost_params();
    const auto dataflows = hardware.supported_dataflows();
    if (dataflows.empty())
        panic("search_mappings: hardware supports no dataflows");

    EnvBudgets budgets(envs);
    Rng rng(options.seed);
    MappingSearchResult result;
    result.mappings.reserve(model.layer_count());
    result.feasible = true;

    // The exhaustive choice depends on a layer only through its shape, so
    // a layer repeating an earlier shape takes that shape's choice. The
    // genetic strategy draws one RNG stream layer by layer and ranks
    // every layer.
    std::vector<RankedShape> shapes;
    std::int64_t reused = 0;  // evaluations taken over, not analyzed
    for (std::size_t i = 0; i < model.layer_count(); ++i) {
        const dnn::Layer& layer = model.layer(i);
        ScoredMapping best;
        if (options.strategy ==
            MappingSearchOptions::Strategy::kExhaustive) {
            auto shape = std::find_if(
                shapes.begin(), shapes.end(), [&](const RankedShape& seen) {
                    return dnn::same_shape(*seen.layer, layer);
                });
            if (shape == shapes.end()) {
                shapes.push_back(rank_exhaustive(layer, dataflows, params,
                                                 budgets, options));
                shape = std::prev(shapes.end());
            } else {
                reused += shape->candidates;
            }
            best = shape->best;
            result.evaluations += shape->candidates;
        } else {
            best = search_layer_genetic(layer, dataflows, params, budgets,
                                        options, result.evaluations, rng);
        }
        if (best.violation > 0.0) {
            result.feasible = false;
            result.violation_j += std::isfinite(best.violation)
                ? best.violation
                : 1e6;
            if (!result.failure) {
                result.failure = fault::make_failure(
                    fault::FailureCode::kTileExceedsCycle,
                    "layer " + std::to_string(i) +
                        ": no mapping satisfies Eq. 8 in every "
                        "environment");
            }
        }
        result.mappings.push_back(best.mapping);
    }

    result.cost = dataflow::analyze_model(model, result.mappings, params);

    // NVM capacity: weights, the worst inter-layer activation pair and
    // the largest checkpoint must all reside in non-volatile storage.
    const std::int64_t capacity = hardware.nvm_capacity_bytes();
    if (capacity > 0) {
        std::int64_t peak_ckpt = 0;
        for (const auto& layer : result.cost.layers)
            peak_ckpt = std::max(peak_ckpt, layer.ckpt_bytes);
        const std::int64_t footprint = model.total_weight_bytes() +
                                       model.peak_activation_bytes() +
                                       peak_ckpt;
        if (footprint > capacity) {
            result.feasible = false;
            // NVM capacity is the structural failure: it overrides any
            // Eq. 8 note because no tiling can fix a model that does not
            // fit non-volatile storage.
            result.failure = fault::make_failure(
                fault::FailureCode::kNvmCapacityExceeded,
                "model footprint " + std::to_string(footprint) +
                    " B exceeds NVM capacity " + std::to_string(capacity) +
                    " B");
        }
    }
    if (obs::MetricsRegistry* registry = obs::metrics()) {
        registry->counter("search/inner/searches").add(1);
        registry->counter("search/inner/evaluations")
            .add(static_cast<std::uint64_t>(result.evaluations));
        registry->counter("search/inner/analyses")
            .add(static_cast<std::uint64_t>(result.evaluations - reused));
    }
    return result;
}

}  // namespace chrysalis::search
