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
/// The search is exact: it ranks every candidate of a bounded tiling grid
/// per layer. It splits the cost model in two (see
/// dataflow/hardware_pass.hpp). A GeometryTable holds the hardware-free
/// geometry of each distinct layer shape's tiling grid; ranking it runs
/// the hardware pass of every candidate fused with Eq. 8 for one
/// hardware and one set of environments, except for the candidates an
/// exact energy floor rules out first. search_mappings() builds a
/// table and ranks it once; an explorer that searches the hardware
/// builds one table and ranks it per candidate. A MappingGrid, for a
/// caller whose hardware never changes, runs the hardware pass once and
/// ranks the stored scores per environment set.

#ifndef CHRYSALIS_SEARCH_MAPPING_SEARCH_HPP
#define CHRYSALIS_SEARCH_MAPPING_SEARCH_HPP

#include <cstdint>
#include <vector>

#include "dataflow/cost_model.hpp"
#include "dataflow/hardware_pass.hpp"
#include "dnn/model.hpp"
#include "fault/failure.hpp"
#include "hw/inference_hardware.hpp"
#include "sim/analytic_evaluator.hpp"

namespace chrysalis::search {

/// Controls for the SW-level search.
struct MappingSearchOptions {
    /// Tiling grid width: chunk counts tried per loop dimension
    /// (dataflow::enumerate_mappings()).
    std::size_t max_candidates_per_dim = 6;
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
    /// scored by an earlier call, so the count does not depend on
    /// either. The metrics counter `search/inner/analyses` counts the
    /// candidates of each distinct shape actually ranked, and
    /// `search/inner/bounded` those of them a GeometryTable ruled out
    /// by their energy floor, without a hardware pass.
    std::int64_t evaluations = 0;
};

/// What the ranking reads of one candidate's LayerCost: feasibility,
/// N_tile, and the Eq. 4/5 energies and tile time, each computed once.
struct CandidateScore {
    bool feasible = false;
    std::int64_t n_tile = 1;
    double total_energy_j = 0.0;  ///< LayerCost::total_energy_j(), E_all
    double tile_energy_j = 0.0;   ///< LayerCost::tile_energy_j(), E_tile
    double tile_time_s = 0.0;     ///< LayerCost::tile_time_s()
};

/// The search's hardware-free table for one (model, grid width,
/// dataflow list): the dataflow::LayerGeometry and the
/// dataflow::FloorGeometry of every candidate of every distinct layer
/// shape (dnn::same_shape), in dataflow::enumerate_mappings() order, so
/// one block of candidates per dataflow. Built once; each ranking runs
/// only the hardware pass, and skips it for a candidate whose energy
/// floor already exceeds a feasible best's E_all.
///
/// Ranking is const and keeps its Eq. 8 budgets on its own stack, so
/// several threads may rank one table at once. The table holds no
/// pointer into the model; it copies the NVM-footprint terms the
/// capacity check needs.
class GeometryTable
{
  public:
    /// Builds the geometry of every distinct layer shape's grid at
    /// \p max_candidates_per_dim, over \p dataflows.
    GeometryTable(const dnn::Model& model,
                  const std::vector<dataflow::Dataflow>& dataflows,
                  std::size_t max_candidates_per_dim);

    /// search_mappings()'s result for \p hardware against \p envs: every
    /// candidate of the hardware's dataflows, walked in its
    /// supported_dataflows() order and counted in
    /// `search/inner/analyses`, ranked as its hardware pass is run. Once
    /// the best so far is feasible, a candidate whose
    /// dataflow::EnergyFloor exceeds the best's E_all is ruled out
    /// without its pass and counted in `search/inner/bounded`; its pass
    /// could only have shown it ranks lower, so the result is the same.
    /// The table must hold each of those dataflows (panic() otherwise);
    /// \p envs must not be empty.
    MappingSearchResult rank(const hw::InferenceHardware& hardware,
                             const std::vector<sim::EnergyEnv>& envs) const;

  private:
    /// One distinct layer shape's grid.
    struct Shape {
        std::vector<dataflow::LayerMapping> mappings;
        std::vector<dataflow::LayerGeometry> geometry;  ///< per mapping
        std::vector<dataflow::FloorGeometry> floors;    ///< per mapping
        std::size_t block = 0;  ///< candidates per dataflow
    };

    /// Position of \p dataflow's block in every shape's grid.
    std::size_t block_of(dataflow::Dataflow dataflow) const;

    std::vector<dataflow::Dataflow> dataflows_;
    std::vector<Shape> shapes_;  ///< in first-occurrence order
    std::vector<std::size_t> layer_shape_;  ///< per layer, into shapes_
    std::int64_t weight_bytes_ = 0;
    std::int64_t peak_activation_bytes_ = 0;
};

/// The search's cost table for one fixed (model, hardware, grid width):
/// the grid of every distinct layer shape over the hardware's dataflows,
/// in GeometryTable order, with the hardware pass run once per candidate
/// at construction. Per candidate the grid keeps
/// the CandidateScore the ranking reads (40 B), and apart from it the
/// mapping and LayerCost a chosen candidate contributes.
///
/// Ranking is const, runs no cost model and keeps its Eq. 8 budgets on
/// its own stack, so several threads may rank one grid at once. The grid
/// holds no pointer into the model or the hardware.
class MappingGrid
{
  public:
    /// Runs the hardware pass over the grid of every distinct layer
    /// shape at \p max_candidates_per_dim, counting it in
    /// `search/inner/analyses`.
    MappingGrid(const dnn::Model& model,
                const hw::InferenceHardware& hardware,
                std::size_t max_candidates_per_dim);

    /// The search's result against \p envs: per layer, the candidate of
    /// its shape's grid that ranks first (feasible in every environment,
    /// then lowest Eq. 8 violation, lowest E_all, fewest tiles; among
    /// equals the first in enumeration order). Counts one
    /// `search/inner/searches` and the grid's size per layer in
    /// `search/inner/evaluations`. \p envs must not be empty.
    MappingSearchResult rank(const std::vector<sim::EnergyEnv>& envs) const;

  private:
    /// One distinct layer shape's candidates, in GeometryTable order.
    struct Shape {
        std::vector<CandidateScore> scores;  ///< what the ranking reads
        std::vector<dataflow::LayerMapping> mappings;
        std::vector<dataflow::LayerCost> costs;
    };

    std::vector<Shape> shapes_;  ///< in first-occurrence order
    std::vector<std::size_t> layer_shape_;  ///< per layer, into shapes_
    std::int64_t nvm_capacity_bytes_ = 0;  ///< 0 = unlimited
    std::int64_t weight_bytes_ = 0;
    std::int64_t peak_activation_bytes_ = 0;
};

/// Runs the SW-level mapping search: builds a GeometryTable over the
/// hardware's dataflows and ranks it once.
/// \param envs environments the design must run in (feasibility must hold
///        in each; typically the brighter and darker presets).
MappingSearchResult search_mappings(const dnn::Model& model,
                                    const hw::InferenceHardware& hardware,
                                    const std::vector<sim::EnergyEnv>& envs,
                                    const MappingSearchOptions& options);

}  // namespace chrysalis::search

#endif  // CHRYSALIS_SEARCH_MAPPING_SEARCH_HPP
