#include "dataflow/cost_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "common/math_utils.hpp"

namespace chrysalis::dataflow {

namespace {

/// Per-taxonomy reuse description for one tile.
///
/// The abstraction: each MAC nominally needs one input read, one weight
/// read and one partial-sum update against local (VM) storage. A taxonomy
/// keeps one operand *stationary* (near-zero traffic while it fits in the
/// per-PE cache) and amortizes the others through temporal or spatial
/// (multicast) reuse. When the stationary operand's per-PE share exceeds
/// the per-PE cache, the work splits into `passes` and the re-streamed
/// operands pay NVM traffic once per pass.
struct ReusePlan {
    double input_reuse = 1.0;    ///< VM input reads = MACs / input_reuse
    double weight_reuse = 1.0;   ///< VM weight reads = MACs / weight_reuse
    double stationary_bytes_per_pe = 0.0;  ///< must fit in the PE cache
};

/// Builds the reuse plan for a (layer, tile, taxonomy) triple.
ReusePlan
make_plan(Dataflow dataflow, const dnn::Layer& layer, const TileShape& tile,
          const CostParams& params, std::int64_t pes_used)
{
    const auto& d = layer.dims;
    const double elem = params.element_bytes;
    const double spatial = static_cast<double>(std::max<std::int64_t>(
        1, pes_used));
    const double outputs_per_chan =
        static_cast<double>(tile.n * tile.y * tile.x);
    const double stride2 = static_cast<double>(layer.stride * layer.stride);

    ReusePlan plan;
    switch (dataflow) {
      case Dataflow::kWeightStationary:
        // Weights pinned per PE; every weight is reused across all output
        // positions of the tile; inputs are multicast across the K-mapped
        // PE columns; psums accumulate in PE registers across the
        // reduction.
        plan.weight_reuse = std::max(1.0, outputs_per_chan);
        plan.input_reuse = std::min(
            spatial, static_cast<double>(std::max<std::int64_t>(
                         1, tile.k)));
        plan.stationary_bytes_per_pe =
            static_cast<double>(tile.weight_elems) * elem / spatial;
        break;
      case Dataflow::kOutputStationary:
        // Psums pinned per PE (one PE per output); each weight is
        // multicast to every PE computing the same output channel; inputs
        // enjoy halo overlap reuse.
        plan.weight_reuse = std::min(
            spatial, std::max(1.0, outputs_per_chan));
        plan.input_reuse = std::max(1.0,
            static_cast<double>(d.r * d.s) / std::max(1.0, stride2));
        plan.stationary_bytes_per_pe =
            static_cast<double>(tile.output_elems) * elem / spatial;
        break;
      case Dataflow::kInputStationary:
        // Inputs pinned per PE (input channels mapped spatially); each
        // input is reused across the tile's output channels; weights
        // stream with no sharing (each PE owns distinct channels); psums
        // reduce across the array.
        plan.input_reuse = std::max<double>(
            1.0, static_cast<double>(tile.k));
        plan.weight_reuse = 1.0;
        plan.stationary_bytes_per_pe =
            static_cast<double>(tile.input_elems) * elem / spatial;
        break;
      case Dataflow::kRowStationary:
        // Eyeriss-style: 1-D row primitives keep a filter row and an
        // input-row window per PE; all three tensors get moderate reuse.
        plan.weight_reuse = std::max<double>(
            1.0, static_cast<double>(tile.x));
        plan.input_reuse = std::max<double>(
            1.0, static_cast<double>(d.r));
        plan.stationary_bytes_per_pe =
            (static_cast<double>(tile.weight_elems) / spatial +
             static_cast<double>(d.s * layer.in_w)) * elem;
        break;
    }
    return plan;
}

}  // namespace

LayerCost
analyze_layer(const dnn::Layer& layer, const LayerMapping& mapping,
              const CostParams& params)
{
    if (params.n_pe < 1)
        fatal("analyze_layer: n_pe must be >= 1, got ", params.n_pe);
    if (params.vm_bytes_per_pe < 1)
        fatal("analyze_layer: vm_bytes_per_pe must be >= 1");
    if (!mapping.valid_for(layer))
        fatal("analyze_layer: mapping invalid for layer ", layer.name);

    const TileShape tile = tile_shape(layer, mapping);
    const std::int64_t n_tile = mapping.tile_count();
    const double elem = params.element_bytes;

    LayerCost cost;
    cost.macs = layer.macs();
    cost.n_tile = n_tile;

    // Embedding lookups have no MACs: model pure NVM streaming.
    if (layer.kind == dnn::LayerKind::kEmbedding) {
        const double bytes =
            static_cast<double>(layer.param_count()) /
                static_cast<double>(layer.dims.c) *
                static_cast<double>(layer.dims.n) * elem;
        cost.nvm_read_bytes = static_cast<std::int64_t>(bytes);
        cost.nvm_write_bytes = static_cast<std::int64_t>(
            static_cast<double>(layer.output_elems()) * elem);
        cost.e_nvm_j =
            bytes * params.e_nvm_read_byte_j +
            static_cast<double>(cost.nvm_write_bytes) *
                params.e_nvm_write_byte_j;
        cost.nvm_time_s =
            static_cast<double>(cost.nvm_read_bytes + cost.nvm_write_bytes) /
            params.nvm_bytes_per_s;
        cost.time_s = cost.nvm_time_s;
        cost.ckpt_bytes = static_cast<std::int64_t>(params.ckpt_fixed_bytes);
        cost.vm_required_bytes = static_cast<std::int64_t>(
            static_cast<double>(layer.dims.k) * elem);
        cost.feasible =
            cost.vm_required_bytes <= params.vm_total_bytes();
        return cost;
    }

    // --- Spatial mapping ---------------------------------------------------
    // Real mappers fold several loop dimensions onto the PE array; the
    // spatial extent is therefore a dim *product* per taxonomy, and the
    // primary spatial dim only determines multicast opportunities.
    std::int64_t sp_extent = 1;
    switch (mapping.dataflow) {
      case Dataflow::kWeightStationary:
        sp_extent = tile.k * layer.dims.c;  // systolic K x C grid
        break;
      case Dataflow::kOutputStationary:
        sp_extent = tile.n * tile.k * tile.y * tile.x;  // one PE per output
        break;
      case Dataflow::kInputStationary:
        sp_extent = layer.dims.c * tile.y;  // channel x row ownership
        break;
      case Dataflow::kRowStationary:
        sp_extent = tile.y * layer.dims.r * tile.k;  // Eyeriss PE sets
        break;
    }
    const std::int64_t pes_used = std::min<std::int64_t>(params.n_pe,
                                                         sp_extent);
    // Folding: if the spatial extent exceeds the array, it wraps; the last
    // wave may be partially filled.
    const std::int64_t waves = ceil_div(sp_extent, params.n_pe);
    cost.utilization =
        static_cast<double>(sp_extent) /
        static_cast<double>(waves * params.n_pe);

    // --- Reuse plan and pass count -----------------------------------------
    const ReusePlan plan =
        make_plan(mapping.dataflow, layer, tile, params, pes_used);
    // Local (per-PE) residency passes: if a PE's stationary share does not
    // fit its cache, partial sums spill once per extra pass.
    const double passes = std::max(
        1.0, std::ceil(plan.stationary_bytes_per_pe /
                       static_cast<double>(params.vm_bytes_per_pe)));

    // --- Per-tile NVM traffic ------------------------------------------------
    // A tile's operands stream from NVM through the aggregate on-chip VM.
    // If one operand is held resident in chunks, the other is re-swept
    // once per chunk. The mapper picks the cheaper orientation (weights
    // resident vs inputs resident); outputs are written exactly once.
    const double vm_total = static_cast<double>(params.vm_total_bytes());
    const double input_bytes =
        static_cast<double>(tile.input_elems) * elem;
    const double weight_bytes =
        static_cast<double>(tile.weight_elems) * elem;
    const auto chunked_sweeps = [vm_total](double resident_bytes) {
        return std::max(1.0, std::ceil(resident_bytes / vm_total));
    };
    const double reads_weights_resident =
        input_bytes * chunked_sweeps(weight_bytes) + weight_bytes;
    const double reads_inputs_resident =
        weight_bytes * chunked_sweeps(input_bytes) + input_bytes;
    const double tile_read_bytes =
        std::min(reads_weights_resident, reads_inputs_resident);
    const double tile_write_bytes =
        static_cast<double>(tile.output_elems) * elem;

    cost.nvm_read_bytes = static_cast<std::int64_t>(
        tile_read_bytes * static_cast<double>(n_tile));
    cost.nvm_write_bytes = static_cast<std::int64_t>(
        tile_write_bytes * static_cast<double>(n_tile));

    // --- VM traffic (whole layer) -------------------------------------------
    // Partial sums accumulate in PE registers across the reduction and
    // spill to VM once per residency pass; output-stationary pins them by
    // construction and never spills.
    const double macs = static_cast<double>(cost.macs);
    const double reduction = static_cast<double>(
        layer.dims.c * layer.dims.r * layer.dims.s);
    const double psum_spills =
        mapping.dataflow == Dataflow::kOutputStationary ? 1.0 : passes;
    const double vm_accesses =
        macs / plan.input_reuse + macs / plan.weight_reuse +
        2.0 * macs / std::max(1.0, reduction) * psum_spills;
    const double vm_bytes = vm_accesses * elem;

    // --- Checkpoint footprint -------------------------------------------------
    // On an interruption everything live in VM plus control state must be
    // saved (Fig. 4 step 6); live state is the stationary share across the
    // used PEs plus a streaming buffer, clamped to physical VM.
    const double live_bytes = std::min(
        static_cast<double>(params.vm_total_bytes()),
        plan.stationary_bytes_per_pe * static_cast<double>(pes_used) +
            static_cast<double>(layer.dims.c * layer.dims.r) * elem);
    cost.ckpt_bytes =
        static_cast<std::int64_t>(live_bytes + params.ckpt_fixed_bytes);

    // --- Minimum VM to run at all ---------------------------------------------
    // Streaming needs a double-buffered chunk of the reduction plus a few
    // output registers — not the whole reduction resident.
    const double stream_buffer =
        (static_cast<double>(std::min<std::int64_t>(
             layer.dims.c * layer.dims.r * layer.dims.s, 512)) +
         static_cast<double>(std::min<std::int64_t>(tile.k, 64))) * elem;
    cost.vm_required_bytes = static_cast<std::int64_t>(stream_buffer);
    cost.feasible = cost.vm_required_bytes <= params.vm_total_bytes();

    // Pooling windows issue cheaper compare/accumulate ops than MACs.
    const double op_scale =
        layer.kind == dnn::LayerKind::kPool ? params.pool_op_scale : 1.0;

    // --- Time ---------------------------------------------------------------
    cost.compute_time_s =
        macs * op_scale / (params.macs_per_s_per_pe *
                           static_cast<double>(params.n_pe) *
                           cost.utilization);
    cost.nvm_time_s =
        static_cast<double>(cost.nvm_read_bytes + cost.nvm_write_bytes) /
        params.nvm_bytes_per_s;
    const double ckpt_round_trips =
        static_cast<double>(n_tile) * (1.0 + params.exception_rate) * 2.0 *
        static_cast<double>(cost.ckpt_bytes);
    cost.ckpt_time_s = ckpt_round_trips / params.nvm_bytes_per_s;
    const double body = params.overlap_transfers
        ? std::max(cost.compute_time_s, cost.nvm_time_s)
        : cost.compute_time_s + cost.nvm_time_s;
    cost.time_s = body + cost.ckpt_time_s;

    // --- Energy (Eq. 5 decomposition) ----------------------------------------
    cost.e_compute_j = macs * op_scale * params.e_mac_j;
    cost.e_vm_j = vm_bytes * params.e_vm_byte_j;
    cost.e_nvm_j =
        static_cast<double>(cost.nvm_read_bytes) * params.e_nvm_read_byte_j +
        static_cast<double>(cost.nvm_write_bytes) *
            params.e_nvm_write_byte_j;
    cost.e_static_j =
        cost.time_s * (static_cast<double>(params.vm_total_bytes()) *
                           params.p_mem_w_per_byte +
                       static_cast<double>(params.n_pe) *
                           params.p_pe_static_w);
    // E_ckpt = N_tile * (1 + r_exc) * N_ckpt * (e_r + e_w)   (Eq. 5)
    cost.ckpt_pair_energy_j =
        static_cast<double>(cost.ckpt_bytes) *
        (params.e_nvm_read_byte_j + params.e_nvm_write_byte_j);
    cost.e_ckpt_j = static_cast<double>(n_tile) *
                    (1.0 + params.exception_rate) *
                    cost.ckpt_pair_energy_j;

    return cost;
}

ModelCost
analyze_model(const dnn::Model& model,
              const std::vector<LayerMapping>& mappings,
              const CostParams& params)
{
    if (mappings.size() != model.layer_count())
        fatal("analyze_model: ", mappings.size(), " mappings for ",
              model.layer_count(), " layers");

    ModelCost total;
    total.layers.reserve(model.layer_count());
    for (std::size_t i = 0; i < model.layer_count(); ++i)
        total.add_layer(analyze_layer(model.layer(i), mappings[i], params));
    return total;
}

ModelCost
analyze_model_untiled(const dnn::Model& model, Dataflow dataflow,
                      const CostParams& params)
{
    std::vector<LayerMapping> mappings(model.layer_count());
    for (auto& mapping : mappings)
        mapping.dataflow = dataflow;
    return analyze_model(model, mappings, params);
}

void
ModelCost::add_layer(LayerCost cost)
{
    feasible = feasible && cost.feasible;
    time_s += cost.time_s;
    e_compute_j += cost.e_compute_j;
    e_vm_j += cost.e_vm_j;
    e_nvm_j += cost.e_nvm_j;
    e_static_j += cost.e_static_j;
    e_ckpt_j += cost.e_ckpt_j;
    n_tile += cost.n_tile;
    nvm_read_bytes += cost.nvm_read_bytes;
    nvm_write_bytes += cost.nvm_write_bytes;
    layers.push_back(std::move(cost));
}

double
ModelCost::max_tile_energy_j() const
{
    double peak = 0.0;
    for (const auto& layer : layers)
        peak = std::max(peak, layer.tile_energy_j());
    return peak;
}

double
ModelCost::max_tile_time_s() const
{
    double peak = 0.0;
    for (const auto& layer : layers)
        peak = std::max(peak, layer.tile_time_s());
    return peak;
}

}  // namespace chrysalis::dataflow
