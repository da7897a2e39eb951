/// \file
/// SW-level mapping search (the inner level of the bi-level strategy,
/// §III-C).
///
/// Given a model, an inference hardware configuration and one or more
/// energy environments, finds per-layer intermittent mappings (dataflow
/// taxonomy + InterTempMap chunk counts) minimizing total energy E_all —
/// which, by Eq. 7, also minimizes end-to-end latency — subject to the
/// per-cycle feasibility constraint E_tile <= E_available (Eq. 8) holding
/// in *every* supplied environment (the paper requires the system to run
/// in both the brighter and the darker environment).
///
/// Two strategies are provided: bounded exhaustive enumeration per layer
/// and a GAMMA-style per-layer genetic search for very large tiling
/// spaces. The exhaustive strategy splits in two: a MappingGrid analyzes
/// each distinct layer shape's tiling grid once for one hardware (Eqs.
/// 4-6 do not depend on the environments), and a ranking pass applies
/// Eq. 8 for one set of environments. search_mappings() builds a grid
/// and ranks it; a caller whose hardware never changes builds one grid
/// and ranks it per environment set.

#ifndef CHRYSALIS_SEARCH_MAPPING_SEARCH_HPP
#define CHRYSALIS_SEARCH_MAPPING_SEARCH_HPP

#include <cstdint>
#include <vector>

#include "dataflow/cost_model.hpp"
#include "dnn/model.hpp"
#include "fault/failure.hpp"
#include "hw/inference_hardware.hpp"
#include "sim/analytic_evaluator.hpp"

namespace chrysalis::search {

/// Controls for the SW-level search.
struct MappingSearchOptions {
    enum class Strategy { kExhaustive, kGenetic };

    Strategy strategy = Strategy::kExhaustive;
    std::size_t max_candidates_per_dim = 6;  ///< exhaustive bound
    int ga_population = 16;                  ///< genetic strategy only
    int ga_generations = 8;
    std::uint64_t seed = 1;
};

/// Result of the SW-level search.
struct MappingSearchResult {
    bool feasible = false;  ///< all layers satisfy Eq. 8 in all envs,
                            ///< and the model fits the hardware's NVM
    std::vector<dataflow::LayerMapping> mappings;  ///< one per layer
    dataflow::ModelCost cost;   ///< cost under the chosen mappings
    double violation_j = 0.0;   ///< total Eq. 8 overshoot when infeasible
    fault::SimFailure failure;  ///< why the search failed, when infeasible
    /// (layer, candidate) pairs ranked: every layer's whole grid, also
    /// when a layer repeats an earlier layer's shape or the grid was
    /// analyzed by an earlier call, so the count does not depend on
    /// either. The metrics counter `search/inner/analyses` counts the
    /// cost-model calls actually made.
    std::int64_t evaluations = 0;
};

/// One (layer, mapping) pair analyzed by the cost model, with the Eq. 4/5
/// values the ranking compares, each computed once from that cost.
struct AnalyzedMapping {
    dataflow::LayerMapping mapping;
    dataflow::LayerCost cost;
    double total_energy_j = 0.0;  ///< cost.total_energy_j(), E_all
    double tile_energy_j = 0.0;   ///< cost.tile_energy_j(), E_tile
    double tile_time_s = 0.0;     ///< cost.tile_time_s()
};

/// The exhaustive strategy's cost table for one (model, hardware, grid
/// width): every candidate of every distinct layer shape, in
/// dataflow::enumerate_mappings() order, analyzed once.
///
/// Ranking is const and keeps its Eq. 8 budgets on its own stack, so
/// several threads may rank one grid at once. The grid holds no pointer
/// into the model or the hardware; it copies the NVM-footprint terms the
/// capacity check needs.
class MappingGrid
{
  public:
    /// Analyzes the grid of every distinct layer shape (dnn::same_shape)
    /// at \p max_candidates_per_dim, counting the cost-model calls in
    /// `search/inner/analyses`.
    MappingGrid(const dnn::Model& model,
                const hw::InferenceHardware& hardware,
                std::size_t max_candidates_per_dim);

    /// The exhaustive search's result against \p envs: per layer, the
    /// candidate of its shape's grid that ranks first (feasible in every
    /// environment, then lowest Eq. 8 violation, lowest E_all, fewest
    /// tiles; among equals the first in enumeration order). Counts one
    /// `search/inner/searches` and the grid's size per layer in
    /// `search/inner/evaluations`. \p envs must not be empty.
    MappingSearchResult rank(const std::vector<sim::EnergyEnv>& envs) const;

  private:
    /// Candidates of each distinct shape, in first-occurrence order.
    std::vector<std::vector<AnalyzedMapping>> shapes_;
    std::vector<std::size_t> layer_shape_;  ///< per layer, into shapes_
    std::int64_t nvm_capacity_bytes_ = 0;  ///< 0 = unlimited
    std::int64_t weight_bytes_ = 0;
    std::int64_t peak_activation_bytes_ = 0;
};

/// Runs the SW-level mapping search. The exhaustive strategy builds a
/// MappingGrid and ranks it.
/// \param envs environments the design must run in (feasibility must hold
///        in each; typically the brighter and darker presets).
MappingSearchResult search_mappings(const dnn::Model& model,
                                    const hw::InferenceHardware& hardware,
                                    const std::vector<sim::EnergyEnv>& envs,
                                    const MappingSearchOptions& options);

}  // namespace chrysalis::search

#endif  // CHRYSALIS_SEARCH_MAPPING_SEARCH_HPP
