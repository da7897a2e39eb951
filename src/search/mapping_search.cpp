#include "search/mapping_search.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <utility>

#include "common/logging.hpp"
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
    violation(const CandidateScore& candidate)
    {
        if (!candidate.feasible)
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

/// What the ranking reads of \p cost.
CandidateScore
score_of(const dataflow::LayerCost& cost)
{
    return {cost.feasible, cost.n_tile, cost.total_energy_j(),
            cost.tile_energy_j(), cost.tile_time_s()};
}

/// What a ranking orders candidates by, read from a CandidateScore
/// under one set of Eq. 8 budgets.
struct Score {
    double violation;
    double total_energy_j;
    std::int64_t n_tile;

    Score(const CandidateScore& candidate, EnvBudgets& budgets)
        : violation(budgets.violation(candidate)),
          total_energy_j(candidate.total_energy_j),
          n_tile(candidate.n_tile)
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

/// The best candidate so far, seeded with the first one: a later
/// candidate replaces it only when it ranks strictly better, so among
/// equals the first wins. Seeded rather than empty: an emptiness test on
/// every candidate let the compiler turn the rare update into
/// conditional moves, chaining each comparison to the one before.
struct RunningBest {
    std::size_t index;
    Score score;

    /// True when the best is feasible and cheaper than \p total_energy_j:
    /// then a candidate of that E_all ranks below it whatever its Eq. 8
    /// violation, which need not be computed. The budgets are already
    /// built then, since only a built, non-leaky check returns zero.
    bool
    outranks(double total_energy_j) const
    {
        return score.violation == 0.0 &&
               total_energy_j > score.total_energy_j;
    }

    void
    offer(std::size_t candidate, const Score& candidate_score)
    {
        if (candidate_score.better_than(score)) {
            index = candidate;
            score = candidate_score;
        }
    }
};

/// What one distinct shape's ranking chose for every layer of that
/// shape.
struct Choice {
    dataflow::LayerMapping mapping;
    dataflow::LayerCost cost;
    double violation = 0.0;
    std::int64_t ranked = 0;  ///< candidates compared per layer
};

/// The layers of a search whose shapes made the choices \p chosen: per
/// layer, its shape's mapping and cost, and its grid's size in
/// evaluations. A layer that violates Eq. 8 fails the search.
MappingSearchResult
take_choices(const std::vector<Choice>& chosen,
             const std::vector<std::size_t>& layer_shape)
{
    MappingSearchResult result;
    result.feasible = true;
    result.mappings.reserve(layer_shape.size());
    result.cost.layers.reserve(layer_shape.size());
    for (const std::size_t shape : layer_shape) {
        const Choice& choice = chosen[shape];
        if (choice.violation > 0.0) {
            result.feasible = false;
            result.violation_j +=
                std::isfinite(choice.violation) ? choice.violation : 1e6;
            if (!result.failure) {
                result.failure = fault::make_failure(
                    fault::FailureCode::kTileExceedsCycle,
                    "layer " + std::to_string(result.mappings.size()) +
                        ": no mapping satisfies Eq. 8 in every environment");
            }
        }
        result.mappings.push_back(choice.mapping);
        result.cost.add_layer(choice.cost);
        result.evaluations += choice.ranked;
    }
    return result;
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

void
publish_analyses(std::int64_t analyses)
{
    if (obs::MetricsRegistry* registry = obs::metrics()) {
        registry->counter("search/inner/analyses")
            .add(static_cast<std::uint64_t>(analyses));
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

/// Calls \p add_shape(layer) for the first layer of each distinct
/// shape of \p model, in order; \returns each layer's shape index. The
/// cost model depends on a layer only through its shape
/// (dnn::same_shape), so a layer repeating an earlier shape shares that
/// shape's grid.
template <class AddShape>
std::vector<std::size_t>
distinct_shapes(const dnn::Model& model, AddShape&& add_shape)
{
    std::vector<const dnn::Layer*> firsts;  // first layer of each shape
    std::vector<std::size_t> layer_shape;
    layer_shape.reserve(model.layer_count());
    for (std::size_t i = 0; i < model.layer_count(); ++i) {
        const dnn::Layer& layer = model.layer(i);
        auto first = std::find_if(
            firsts.begin(), firsts.end(), [&](const dnn::Layer* seen) {
                return dnn::same_shape(*seen, layer);
            });
        if (first == firsts.end()) {
            add_shape(layer);
            firsts.push_back(&layer);
            first = std::prev(firsts.end());
        }
        layer_shape.push_back(
            static_cast<std::size_t>(first - firsts.begin()));
    }
    return layer_shape;
}

/// Runs the hardware pass of \p dataflow over the \p count geometry
/// records at \p geometry, calling visit(i, LayerCost) for the i-th: one
/// switch per block, so the block's loop inlines one pass.
template <class Visit>
void
run_block(dataflow::Dataflow dataflow, const dataflow::LayerGeometry* geometry,
          std::size_t count, const dataflow::HardwareTerms& terms,
          Visit&& visit)
{
    dataflow::with_dataflow(dataflow, [&](auto tag) {
        for (std::size_t i = 0; i < count; ++i) {
            visit(i, dataflow::hardware_pass<decltype(tag)::value>(
                         geometry[i], terms));
        }
    });
}

}  // namespace

GeometryTable::GeometryTable(const dnn::Model& model,
                             const std::vector<dataflow::Dataflow>& dataflows,
                             std::size_t max_candidates_per_dim)
    : dataflows_(dataflows), weight_bytes_(model.total_weight_bytes()),
      peak_activation_bytes_(model.peak_activation_bytes())
{
    if (dataflows_.empty())
        panic("GeometryTable: no dataflows");
    layer_shape_ = distinct_shapes(model, [&](const dnn::Layer& layer) {
        Shape shape;
        shape.mappings = dataflow::enumerate_mappings(
            layer, dataflows_, max_candidates_per_dim);
        if (shape.mappings.empty())
            panic("GeometryTable: no candidates for ", layer.name);
        shape.block = shape.mappings.size() / dataflows_.size();
        shape.geometry.reserve(shape.mappings.size());
        for (const auto& mapping : shape.mappings)
            shape.geometry.push_back(dataflow::geometry(layer, mapping));
        shapes_.push_back(std::move(shape));
    });
}

std::size_t
GeometryTable::block_of(dataflow::Dataflow dataflow) const
{
    const auto it = std::find(dataflows_.begin(), dataflows_.end(), dataflow);
    if (it == dataflows_.end())
        panic("GeometryTable: no geometry for dataflow ",
              dataflow::to_string(dataflow));
    return static_cast<std::size_t>(it - dataflows_.begin());
}

MappingSearchResult
GeometryTable::rank(const hw::InferenceHardware& hardware,
                    const std::vector<sim::EnergyEnv>& envs) const
{
    if (envs.empty())
        fatal("GeometryTable::rank: at least one energy environment "
              "required");
    const dataflow::HardwareTerms terms(hardware.cost_params());
    const auto dataflows = supported_dataflows(hardware);

    // Rank each shape's grid once, in first-occurrence order and the
    // hardware's dataflow order: the order in which a per-layer walk
    // meets the candidates, so the budgets are built at the same
    // candidate and among equals the first in enumerate_mappings() order
    // wins. The ranking reads only a CandidateScore of each pass, so
    // the pass computes little more; the chosen candidate's full cost
    // comes from running it again.
    EnvBudgets budgets(envs);
    std::vector<Choice> chosen;
    chosen.reserve(shapes_.size());
    std::int64_t analyses = 0;
    for (const Shape& shape : shapes_) {
        // The hardware's first candidate seeds the ranking and is then
        // offered again, which never displaces it.
        const std::size_t seed = block_of(dataflows.front()) * shape.block;
        RunningBest best{
            seed,
            Score(score_of(dataflow::hardware_pass(shape.geometry[seed],
                                                   terms)),
                  budgets)};
        for (const dataflow::Dataflow dataflow : dataflows) {
            const std::size_t block = block_of(dataflow) * shape.block;
            run_block(dataflow, &shape.geometry[block], shape.block, terms,
                      [&](std::size_t i, const dataflow::LayerCost& cost) {
                          if (!best.outranks(cost.total_energy_j())) {
                              best.offer(block + i,
                                         Score(score_of(cost), budgets));
                          }
                      });
        }
        const auto ranked =
            static_cast<std::int64_t>(shape.block * dataflows.size());
        analyses += ranked;
        chosen.push_back(
            {shape.mappings[best.index],
             dataflow::hardware_pass(shape.geometry[best.index], terms),
             best.score.violation, ranked});
    }
    publish_analyses(analyses);

    MappingSearchResult result = take_choices(chosen, layer_shape_);
    check_nvm_capacity(result, hardware.nvm_capacity_bytes(), weight_bytes_,
                       peak_activation_bytes_);
    publish_search(result.evaluations);
    return result;
}

MappingGrid::MappingGrid(const dnn::Model& model,
                         const hw::InferenceHardware& hardware,
                         std::size_t max_candidates_per_dim)
    : nvm_capacity_bytes_(hardware.nvm_capacity_bytes()),
      weight_bytes_(model.total_weight_bytes()),
      peak_activation_bytes_(model.peak_activation_bytes())
{
    const dataflow::HardwareTerms terms(hardware.cost_params());
    const auto dataflows = supported_dataflows(hardware);
    std::int64_t analyses = 0;
    layer_shape_ = distinct_shapes(model, [&](const dnn::Layer& layer) {
        // The grid runs each pass once, so it keeps no geometry.
        Shape shape;
        shape.mappings = dataflow::enumerate_mappings(layer, dataflows,
                                                      max_candidates_per_dim);
        if (shape.mappings.empty())
            panic("MappingGrid: no candidates for ", layer.name);
        shape.costs.reserve(shape.mappings.size());
        const std::size_t block = shape.mappings.size() / dataflows.size();
        for (std::size_t b = 0; b < dataflows.size(); ++b) {
            dataflow::with_dataflow(dataflows[b], [&](auto tag) {
                for (std::size_t i = b * block; i < (b + 1) * block; ++i) {
                    shape.costs.push_back(
                        dataflow::hardware_pass<decltype(tag)::value>(
                            dataflow::geometry(layer, shape.mappings[i]),
                            terms));
                }
            });
        }
        shape.scores.reserve(shape.costs.size());
        for (const dataflow::LayerCost& cost : shape.costs)
            shape.scores.push_back(score_of(cost));
        analyses += static_cast<std::int64_t>(shape.mappings.size());
        shapes_.push_back(std::move(shape));
    });
    publish_analyses(analyses);
}

MappingSearchResult
MappingGrid::rank(const std::vector<sim::EnergyEnv>& envs) const
{
    if (envs.empty())
        fatal("MappingGrid::rank: at least one energy environment required");

    // Rank each shape's grid once, in first-occurrence order, as
    // GeometryTable::rank() does.
    EnvBudgets budgets(envs);
    std::vector<Choice> chosen;
    chosen.reserve(shapes_.size());
    for (const Shape& shape : shapes_) {
        RunningBest best{0, Score(shape.scores.front(), budgets)};
        for (std::size_t c = 1; c < shape.scores.size(); ++c) {
            const CandidateScore& candidate = shape.scores[c];
            if (!best.outranks(candidate.total_energy_j))
                best.offer(c, Score(candidate, budgets));
        }
        chosen.push_back({shape.mappings[best.index],
                          shape.costs[best.index], best.score.violation,
                          static_cast<std::int64_t>(shape.scores.size())});
    }
    MappingSearchResult result = take_choices(chosen, layer_shape_);
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
    return GeometryTable(model, supported_dataflows(hardware),
                         options.max_candidates_per_dim)
        .rank(hardware, envs);
}

}  // namespace chrysalis::search
