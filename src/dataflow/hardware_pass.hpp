/// \file
/// The two steps of analyze_layer() (Eqs. 4-6), for callers that run one
/// (layer, mapping) pair on many hardware configurations.
///
///   - geometry() is hardware-free: the tile's element counts, the
///     spatial extent, and every quotient whose operands are all element
///     counts. It depends on the layer shape and the mapping only.
///   - hardware_pass<D>() turns one geometry record and a hardware's
///     HardwareTerms into a LayerCost. PE count enters only through the
///     PEs used, the waves, the utilization and the reuse plan; cache
///     size only through the pass count, the chunked sweeps, the
///     live-bytes clamp, the feasibility check and static energy.
///
/// analyze_layer() is geometry() followed by the pass of the mapping's
/// dataflow, so the pass is the only copy of the Eq. 4-6 arithmetic.
/// Every floating-point expression keeps the operand order and grouping
/// of the single-step model, and HardwareTerms hoists only whole
/// sub-expressions C++ evaluates before the expression containing them,
/// so both steps together are bit-identical to analyzing in one step.

#ifndef CHRYSALIS_DATAFLOW_HARDWARE_PASS_HPP
#define CHRYSALIS_DATAFLOW_HARDWARE_PASS_HPP

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <type_traits>

#include "common/logging.hpp"
#include "common/math_utils.hpp"
#include "dataflow/cost_model.hpp"
#include "dataflow/mapping.hpp"
#include "dataflow/tiling.hpp"
#include "dnn/layer.hpp"

namespace chrysalis::dataflow {

/// The hardware-free half of one (layer, mapping) analysis, in element
/// counts. Each dataflow's pass reads only the fields its taxonomy uses.
struct LayerGeometry {
    dnn::LayerKind kind = dnn::LayerKind::kConv2d;
    Dataflow dataflow = Dataflow::kWeightStationary;
    std::int64_t n_tile = 1;     ///< N_tile of Eq. 5
    std::int64_t macs = 0;       ///< the layer's MACs
    std::int64_t sp_extent = 1;  ///< PEs one tile could occupy at once

    double input_elems = 0.0;   ///< one tile's inputs, with halo
    double weight_elems = 0.0;  ///< one tile's weights
    double output_elems = 0.0;  ///< one tile's outputs
    double c_r = 0.0;           ///< C*R, streamed into live state
    double s_in_w = 0.0;        ///< S*in_w, RS's input-row window
    /// Minimum VM to run at all: the streaming buffer, min(C*R*S, 512)
    /// + min(K-tile, 64); one table row for an embedding.
    double vm_required_elems = 0.0;

    /// The hardware-free cap on the multicast operand's reuse: WS's
    /// K-tile and OS's outputs per channel, each at least 1.
    double multicast_reuse = 1.0;
    /// VM reads of the operands whose reuse is hardware-free: MACs over
    /// WS's weight reuse, over OS's input reuse, and for IS and RS the
    /// sum of the input and the weight quotients.
    double fixed_reads = 0.0;
    /// 2*MACs / max(1, C*R*S): partial-sum VM accesses per residency
    /// pass.
    double psum_accesses = 0.0;

    // Embedding lookups stream from NVM and read only these.
    double embedding_read_elems = 0.0;  ///< table elements looked up
    double layer_output_elems = 0.0;    ///< the layer's outputs
};

/// The geometry step: \p mapping must be valid for \p layer (fatal()
/// otherwise, as in tile_shape()). Inline, so a caller that runs the
/// pass right after keeps the record in registers.
[[gnu::always_inline]] inline LayerGeometry
geometry(const dnn::Layer& layer, const LayerMapping& mapping)
{
    const TileShape tile = tile_shape(layer, mapping);
    const auto& d = layer.dims;

    LayerGeometry geometry;
    geometry.kind = layer.kind;
    geometry.dataflow = mapping.dataflow;
    geometry.n_tile = mapping.tile_count();
    geometry.macs = layer.macs();

    // Embedding lookups read one table row per token.
    if (layer.kind == dnn::LayerKind::kEmbedding) {
        geometry.embedding_read_elems =
            static_cast<double>(layer.param_count()) /
            static_cast<double>(d.c) * static_cast<double>(d.n);
        geometry.layer_output_elems =
            static_cast<double>(layer.output_elems());
        geometry.vm_required_elems = static_cast<double>(d.k);
        return geometry;
    }

    // Real mappers fold several loop dimensions onto the PE array; the
    // spatial extent is therefore a dim *product* per taxonomy, and the
    // primary spatial dim only determines multicast opportunities.
    switch (mapping.dataflow) {
      case Dataflow::kWeightStationary:
        geometry.sp_extent = tile.k * d.c;  // systolic K x C grid
        break;
      case Dataflow::kOutputStationary:
        geometry.sp_extent = tile.n * tile.k * tile.y * tile.x;  // per output
        break;
      case Dataflow::kInputStationary:
        geometry.sp_extent = d.c * tile.y;  // channel x row ownership
        break;
      case Dataflow::kRowStationary:
        geometry.sp_extent = tile.y * d.r * tile.k;  // Eyeriss PE sets
        break;
    }

    geometry.input_elems = static_cast<double>(tile.input_elems);
    geometry.weight_elems = static_cast<double>(tile.weight_elems);
    geometry.output_elems = static_cast<double>(tile.output_elems);
    geometry.c_r = static_cast<double>(d.c * d.r);
    geometry.s_in_w = static_cast<double>(d.s * layer.in_w);
    // Streaming needs a double-buffered chunk of the reduction plus a few
    // output registers — not the whole reduction resident.
    geometry.vm_required_elems =
        static_cast<double>(std::min<std::int64_t>(d.c * d.r * d.s, 512)) +
        static_cast<double>(std::min<std::int64_t>(tile.k, 64));

    // Reuse per taxonomy. Each MAC nominally needs one input read, one
    // weight read and one partial-sum update against local (VM) storage.
    // A taxonomy keeps one operand *stationary* (near-zero traffic while
    // it fits in the per-PE cache) and amortizes the others through
    // temporal or spatial (multicast) reuse; VM reads = MACs / reuse.
    // Spatial reuse is capped by the PEs in use, so those quotients wait
    // for the hardware pass.
    const double macs = static_cast<double>(geometry.macs);
    const double outputs_per_chan =
        static_cast<double>(tile.n * tile.y * tile.x);
    switch (mapping.dataflow) {
      case Dataflow::kWeightStationary:
        // Every weight is reused across all output positions of the tile;
        // inputs are multicast across the K-mapped PE columns; psums
        // accumulate in PE registers across the reduction.
        geometry.multicast_reuse = static_cast<double>(
            std::max<std::int64_t>(1, tile.k));
        geometry.fixed_reads = macs / std::max(1.0, outputs_per_chan);
        break;
      case Dataflow::kOutputStationary: {
        // One PE per output; each weight is multicast to every PE
        // computing the same output channel; inputs enjoy halo overlap
        // reuse.
        const double stride2 =
            static_cast<double>(layer.stride * layer.stride);
        geometry.multicast_reuse = std::max(1.0, outputs_per_chan);
        geometry.fixed_reads =
            macs / std::max(1.0, static_cast<double>(d.r * d.s) /
                                     std::max(1.0, stride2));
        break;
      }
      case Dataflow::kInputStationary:
        // Input channels mapped spatially; each input is reused across
        // the tile's output channels; weights stream with no sharing
        // (reuse 1: each PE owns distinct channels); psums reduce across
        // the array.
        geometry.fixed_reads =
            macs / std::max<double>(1.0, static_cast<double>(tile.k)) +
            macs / 1.0;
        break;
      case Dataflow::kRowStationary:
        // Eyeriss-style 1-D row primitives: inputs reused across a filter
        // column, weights across an output row.
        geometry.fixed_reads =
            macs / std::max<double>(1.0, static_cast<double>(d.r)) +
            macs / std::max<double>(1.0, static_cast<double>(tile.x));
        break;
    }
    geometry.psum_accesses =
        2.0 * macs /
        std::max(1.0, static_cast<double>(d.c * d.r * d.s));
    return geometry;
}

/// A hardware's CostParams plus the whole sub-expressions of Eqs. 4-6
/// that read nothing else, built once per hardware. Every pass and
/// ranking builds one, so the hardware is checked here: fatal() unless
/// n_pe and vm_bytes_per_pe are both >= 1.
struct HardwareTerms {
    explicit HardwareTerms(const CostParams& cost_params)
        : params(cost_params),
          elem(static_cast<double>(cost_params.element_bytes)),
          vm_bytes_per_pe(static_cast<double>(cost_params.vm_bytes_per_pe)),
          vm_total_bytes(cost_params.vm_total_bytes()),
          vm_total(static_cast<double>(vm_total_bytes)),
          pe_throughput(cost_params.macs_per_s_per_pe *
                        static_cast<double>(cost_params.n_pe)),
          static_power_w(vm_total * cost_params.p_mem_w_per_byte +
                         static_cast<double>(cost_params.n_pe) *
                             cost_params.p_pe_static_w),
          exception_factor(1.0 + cost_params.exception_rate),
          nvm_pair_energy_j(cost_params.e_nvm_read_byte_j +
                            cost_params.e_nvm_write_byte_j)
    {
        if (cost_params.n_pe < 1)
            fatal("cost model: n_pe must be >= 1, got ", cost_params.n_pe);
        if (cost_params.vm_bytes_per_pe < 1)
            fatal("cost model: vm_bytes_per_pe must be >= 1, got ",
                  cost_params.vm_bytes_per_pe);
    }

    CostParams params;
    double elem;                  ///< bytes per element
    double vm_bytes_per_pe;       ///< N_mem per PE
    std::int64_t vm_total_bytes;  ///< aggregate VM
    double vm_total;              ///< aggregate VM, as a double
    double pe_throughput;         ///< macs_per_s_per_pe * n_pe [MAC/s]
    double static_power_w;        ///< VM leakage plus PE static power
    double exception_factor;      ///< 1 + r_exc of Eq. 5
    double nvm_pair_energy_j;     ///< e_r + e_w per byte [J]
};

/// The hardware step for a geometry record of dataflow \p D. Every
/// candidate of one dataflow runs the same instantiation, so a caller
/// that keeps only some fields lets the compiler drop the rest.
template <Dataflow D>
inline LayerCost
hardware_pass(const LayerGeometry& geometry, const HardwareTerms& terms)
{
    const CostParams& params = terms.params;
    const double elem = terms.elem;
    LayerCost cost;
    cost.macs = geometry.macs;
    cost.n_tile = geometry.n_tile;

    // Embedding lookups have no MACs: model pure NVM streaming.
    if (geometry.kind == dnn::LayerKind::kEmbedding) {
        const double bytes = geometry.embedding_read_elems * elem;
        cost.nvm_read_bytes = static_cast<std::int64_t>(bytes);
        cost.nvm_write_bytes =
            static_cast<std::int64_t>(geometry.layer_output_elems * elem);
        cost.e_nvm_j =
            bytes * params.e_nvm_read_byte_j +
            static_cast<double>(cost.nvm_write_bytes) *
                params.e_nvm_write_byte_j;
        cost.nvm_time_s =
            static_cast<double>(cost.nvm_read_bytes + cost.nvm_write_bytes) /
            params.nvm_bytes_per_s;
        cost.time_s = cost.nvm_time_s;
        cost.ckpt_bytes = static_cast<std::int64_t>(params.ckpt_fixed_bytes);
        cost.vm_required_bytes =
            static_cast<std::int64_t>(geometry.vm_required_elems * elem);
        cost.feasible = cost.vm_required_bytes <= terms.vm_total_bytes;
        return cost;
    }

    // --- Spatial mapping ---------------------------------------------------
    // The spatial extent folds onto the array in waves; the last wave may
    // be partially filled.
    const std::int64_t pes_used = std::min(params.n_pe, geometry.sp_extent);
    const std::int64_t waves = ceil_div(geometry.sp_extent, params.n_pe);
    cost.utilization = static_cast<double>(geometry.sp_extent) /
                       static_cast<double>(waves * params.n_pe);

    // --- Reuse plan and pass count -----------------------------------------
    // Each taxonomy keeps one operand stationary in the per-PE cache (see
    // geometry() for the reuse each one gets). If a PE's stationary share
    // does not fit its cache, partial sums spill once per extra pass.
    const double spatial =
        static_cast<double>(std::max<std::int64_t>(1, pes_used));
    double stationary_bytes_per_pe = 0.0;
    double vm_reads = 0.0;
    const double macs = static_cast<double>(cost.macs);
    if constexpr (D == Dataflow::kWeightStationary) {
        // Weights pinned; inputs multicast across the K-mapped columns.
        stationary_bytes_per_pe = geometry.weight_elems * elem / spatial;
        vm_reads = macs / std::min(spatial, geometry.multicast_reuse) +
                   geometry.fixed_reads;
    } else if constexpr (D == Dataflow::kOutputStationary) {
        // Psums pinned; each weight multicast to the PEs of its channel.
        stationary_bytes_per_pe = geometry.output_elems * elem / spatial;
        vm_reads = geometry.fixed_reads +
                   macs / std::min(spatial, geometry.multicast_reuse);
    } else if constexpr (D == Dataflow::kInputStationary) {
        // Inputs pinned; both reuse factors are hardware-free.
        stationary_bytes_per_pe = geometry.input_elems * elem / spatial;
        vm_reads = geometry.fixed_reads;
    } else {
        // Row stationary: a filter row and an input-row window per PE.
        stationary_bytes_per_pe =
            (geometry.weight_elems / spatial + geometry.s_in_w) * elem;
        vm_reads = geometry.fixed_reads;
    }
    const double passes = std::max(
        1.0, std::ceil(stationary_bytes_per_pe / terms.vm_bytes_per_pe));

    // --- Per-tile NVM traffic -----------------------------------------------
    // A tile's operands stream from NVM through the aggregate on-chip VM.
    // If one operand is held resident in chunks, the other is re-swept
    // once per chunk. The mapper picks the cheaper orientation (weights
    // resident vs inputs resident); outputs are written exactly once.
    const double vm_total = terms.vm_total;
    const double input_bytes = geometry.input_elems * elem;
    const double weight_bytes = geometry.weight_elems * elem;
    const auto chunked_sweeps = [vm_total](double resident_bytes) {
        return std::max(1.0, std::ceil(resident_bytes / vm_total));
    };
    const double reads_weights_resident =
        input_bytes * chunked_sweeps(weight_bytes) + weight_bytes;
    const double reads_inputs_resident =
        weight_bytes * chunked_sweeps(input_bytes) + input_bytes;
    const double tile_read_bytes =
        std::min(reads_weights_resident, reads_inputs_resident);
    const double tile_write_bytes = geometry.output_elems * elem;
    const double n_tile = static_cast<double>(geometry.n_tile);

    cost.nvm_read_bytes =
        static_cast<std::int64_t>(tile_read_bytes * n_tile);
    cost.nvm_write_bytes =
        static_cast<std::int64_t>(tile_write_bytes * n_tile);

    // --- VM traffic (whole layer) -------------------------------------------
    // Partial sums accumulate in PE registers across the reduction and
    // spill to VM once per residency pass; output-stationary pins them by
    // construction and never spills.
    const double psum_spills =
        D == Dataflow::kOutputStationary ? 1.0 : passes;
    const double vm_accesses =
        vm_reads + geometry.psum_accesses * psum_spills;
    const double vm_bytes = vm_accesses * elem;

    // --- Checkpoint footprint -----------------------------------------------
    // On an interruption everything live in VM plus control state must be
    // saved (Fig. 4 step 6); live state is the stationary share across the
    // used PEs plus a streaming buffer, clamped to physical VM.
    const double live_bytes = std::min(
        vm_total, stationary_bytes_per_pe * static_cast<double>(pes_used) +
                      geometry.c_r * elem);
    cost.ckpt_bytes =
        static_cast<std::int64_t>(live_bytes + params.ckpt_fixed_bytes);

    // --- Minimum VM to run at all -------------------------------------------
    cost.vm_required_bytes =
        static_cast<std::int64_t>(geometry.vm_required_elems * elem);
    cost.feasible = cost.vm_required_bytes <= terms.vm_total_bytes;

    // Pooling windows issue cheaper compare/accumulate ops than MACs.
    const double op_scale = geometry.kind == dnn::LayerKind::kPool
        ? params.pool_op_scale
        : 1.0;

    // --- Time ---------------------------------------------------------------
    cost.compute_time_s =
        macs * op_scale / (terms.pe_throughput * cost.utilization);
    cost.nvm_time_s =
        static_cast<double>(cost.nvm_read_bytes + cost.nvm_write_bytes) /
        params.nvm_bytes_per_s;
    const double ckpt_round_trips = n_tile * terms.exception_factor * 2.0 *
                                    static_cast<double>(cost.ckpt_bytes);
    cost.ckpt_time_s = ckpt_round_trips / params.nvm_bytes_per_s;
    const double body = params.overlap_transfers
        ? std::max(cost.compute_time_s, cost.nvm_time_s)
        : cost.compute_time_s + cost.nvm_time_s;
    cost.time_s = body + cost.ckpt_time_s;

    // --- Energy (Eq. 5 decomposition) ---------------------------------------
    cost.e_compute_j = macs * op_scale * params.e_mac_j;
    cost.e_vm_j = vm_bytes * params.e_vm_byte_j;
    cost.e_nvm_j =
        static_cast<double>(cost.nvm_read_bytes) * params.e_nvm_read_byte_j +
        static_cast<double>(cost.nvm_write_bytes) *
            params.e_nvm_write_byte_j;
    cost.e_static_j = cost.time_s * terms.static_power_w;
    // E_ckpt = N_tile * (1 + r_exc) * N_ckpt * (e_r + e_w)   (Eq. 5)
    cost.ckpt_pair_energy_j =
        static_cast<double>(cost.ckpt_bytes) * terms.nvm_pair_energy_j;
    cost.e_ckpt_j =
        n_tile * terms.exception_factor * cost.ckpt_pair_energy_j;
    return cost;
}

/// Calls \p fn with `std::integral_constant<Dataflow, dataflow>{}`: the
/// one switch between a run-time dataflow and its hardware_pass<D>().
template <class Fn>
decltype(auto)
with_dataflow(Dataflow dataflow, Fn&& fn)
{
    switch (dataflow) {
      case Dataflow::kWeightStationary:
        return fn(std::integral_constant<Dataflow,
                                         Dataflow::kWeightStationary>{});
      case Dataflow::kOutputStationary:
        return fn(std::integral_constant<Dataflow,
                                         Dataflow::kOutputStationary>{});
      case Dataflow::kInputStationary:
        return fn(std::integral_constant<Dataflow,
                                         Dataflow::kInputStationary>{});
      case Dataflow::kRowStationary:
        return fn(std::integral_constant<Dataflow,
                                         Dataflow::kRowStationary>{});
    }
    panic("with_dataflow: invalid dataflow");
}

/// hardware_pass() of the geometry record's own dataflow.
inline LayerCost
hardware_pass(const LayerGeometry& geometry, const HardwareTerms& terms)
{
    return with_dataflow(geometry.dataflow, [&](auto dataflow) {
        return hardware_pass<decltype(dataflow)::value>(geometry, terms);
    });
}

}  // namespace chrysalis::dataflow

#endif  // CHRYSALIS_DATAFLOW_HARDWARE_PASS_HPP
