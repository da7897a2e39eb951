/// \file
/// Analytical per-layer cost model for intermittent inference (Eqs. 4-6).
///
/// Abstraction level: pre-RTL, MAESTRO-style. For each intermittent tile
/// the model derives
///   - compute time from MAC count, PE count and spatial utilization
///     (Eq. 6: T = T_df / N_PE, refined with utilization);
///   - volatile-memory (VM) traffic from per-taxonomy reuse factors;
///   - non-volatile-memory (NVM) traffic from the tile's input halo,
///     weight slice and output footprint, with re-streaming multipliers
///     when the taxonomy's *stationary* operand does not fit in the
///     per-PE cache (this is how N_mem enters the design space);
///   - checkpoint overhead per Eq. 5's
///     N_tile * (1 + r_exc) * N_ckpt * (e_r + e_w) term.
///
/// The reuse factors are deliberately simple, documented at the
/// definition site, and validated by monotonicity property tests (more
/// cache never hurts, more PEs never slow a layer down, more intermittent
/// tiles never reduce NVM traffic).

#ifndef CHRYSALIS_DATAFLOW_COST_MODEL_HPP
#define CHRYSALIS_DATAFLOW_COST_MODEL_HPP

#include <cstdint>
#include <vector>

#include "dataflow/mapping.hpp"
#include "dataflow/tiling.hpp"
#include "dnn/model.hpp"

namespace chrysalis::dataflow {

/// Technology/architecture constants consumed by the cost model. Hardware
/// models (src/hw) produce one of these for a given configuration.
struct CostParams {
    // Compute.
    double e_mac_j = 1e-12;          ///< energy per MAC [J]
    double macs_per_s_per_pe = 1e8;  ///< per-PE throughput [MAC/s]
    std::int64_t n_pe = 1;           ///< number of processing elements

    // Volatile memory (per-PE cache / scratchpad).
    std::int64_t vm_bytes_per_pe = 512;  ///< N_mem per PE [bytes]
    double e_vm_byte_j = 0.1e-12;        ///< VM access energy [J/byte]
    double p_mem_w_per_byte = 1e-9;      ///< VM static power p_mem [W/byte]

    // Non-volatile memory.
    double e_nvm_read_byte_j = 5e-12;    ///< e_r [J/byte]
    double e_nvm_write_byte_j = 15e-12;  ///< e_w [J/byte]
    double nvm_bytes_per_s = 8e6;        ///< NVM streaming bandwidth [B/s]

    // Misc.
    double p_pe_static_w = 1e-6;     ///< per-PE static power while on [W]
    int element_bytes = 1;           ///< bytes per tensor element
    bool overlap_transfers = true;   ///< DMA overlaps compute
    double exception_rate = 0.05;    ///< r_exc of Eq. 5
    double ckpt_fixed_bytes = 64.0;  ///< control state per checkpoint
    /// Pooling windows cost compare/accumulate ops, not full MACs; this
    /// scales both their energy and their issue rate relative to a MAC.
    double pool_op_scale = 0.3;

    /// Aggregate VM capacity across PEs [bytes].
    std::int64_t vm_total_bytes() const { return vm_bytes_per_pe * n_pe; }
};

/// Full energy/latency/traffic accounting for one layer under one mapping.
struct LayerCost {
    bool feasible = true;       ///< false if the mapping cannot run at all

    std::int64_t macs = 0;
    std::int64_t n_tile = 1;            ///< N_tile of Eq. 5
    std::int64_t ckpt_bytes = 0;        ///< N_ckpt of Eq. 5 [bytes]
    double ckpt_pair_energy_j = 0.0;    ///< one save+restore pair:
                                        ///< N_ckpt * (e_r + e_w)
    std::int64_t nvm_read_bytes = 0;    ///< total NVM bytes read
    std::int64_t nvm_write_bytes = 0;   ///< total NVM bytes written
    std::int64_t vm_required_bytes = 0; ///< minimum aggregate VM needed
    double utilization = 1.0;           ///< PE array spatial utilization

    double compute_time_s = 0.0;  ///< MAC execution time
    double nvm_time_s = 0.0;      ///< NVM streaming time
    double ckpt_time_s = 0.0;     ///< checkpoint save/restore time
    double time_s = 0.0;          ///< active execution time of the layer

    double e_compute_j = 0.0;  ///< MAC energy (part of E_infer)
    double e_vm_j = 0.0;       ///< local buffer traffic energy
    double e_nvm_j = 0.0;      ///< NVM data movement energy (N_data * e_r..)
    double e_static_j = 0.0;   ///< static energy T * N_mem * p_mem + PEs
    double e_ckpt_j = 0.0;     ///< Eq. 5 checkpoint term

    /// Total energy E_all for this layer (Eq. 5).
    double total_energy_j() const
    {
        return e_compute_j + e_vm_j + e_nvm_j + e_static_j + e_ckpt_j;
    }

    /// Energy of one tile, E_tile = E_all / N_tile (Eq. 4).
    double tile_energy_j() const
    {
        return total_energy_j() / static_cast<double>(n_tile);
    }

    /// Active time of one tile.
    double tile_time_s() const
    {
        return time_s / static_cast<double>(n_tile);
    }
};

/// Whole-model cost: the per-layer breakdown plus totals.
struct ModelCost {
    bool feasible = true;
    std::vector<LayerCost> layers;

    double time_s = 0.0;
    double e_compute_j = 0.0;
    double e_vm_j = 0.0;
    double e_nvm_j = 0.0;
    double e_static_j = 0.0;
    double e_ckpt_j = 0.0;
    std::int64_t n_tile = 0;         ///< total tiles across all layers
    std::int64_t nvm_read_bytes = 0;
    std::int64_t nvm_write_bytes = 0;

    double total_energy_j() const
    {
        return e_compute_j + e_vm_j + e_nvm_j + e_static_j + e_ckpt_j;
    }

    /// Appends the next layer's cost and adds it into the totals. The
    /// totals are floating-point sums, so callers add in layer order.
    void add_layer(LayerCost cost);

    /// Largest single-tile energy across layers — the quantity that must
    /// fit in one energy cycle (Eq. 8: E_tile <= E_available).
    double max_tile_energy_j() const;

    /// Largest single-tile active time across layers.
    double max_tile_time_s() const;
};

/// Analyzes one layer under one mapping: validates \p params and
/// \p mapping (fatal() otherwise), then runs the pass of the mapping's
/// dataflow over the pair's hardware-free geometry (both steps in
/// dataflow/hardware_pass.hpp, for callers that run one geometry on
/// many hardware configurations).
LayerCost analyze_layer(const dnn::Layer& layer, const LayerMapping& mapping,
                        const CostParams& params);

/// Analyzes a whole model; \p mappings must have one entry per layer.
ModelCost analyze_model(const dnn::Model& model,
                        const std::vector<LayerMapping>& mappings,
                        const CostParams& params);

/// Convenience: analyzes a model with the same untiled mapping (single
/// tile, given taxonomy) on every layer — the non-intermittent baseline.
ModelCost analyze_model_untiled(const dnn::Model& model, Dataflow dataflow,
                                const CostParams& params);

}  // namespace chrysalis::dataflow

#endif  // CHRYSALIS_DATAFLOW_COST_MODEL_HPP
