/// \file
/// Oracle test for the two-step cost model (dataflow/hardware_pass.hpp):
/// analyze_layer() and the per-dataflow hardware pass the mapping search
/// ranks with must both match the single-step model they replace, field
/// for field and bit for bit.

#include "dataflow/hardware_pass.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/math_utils.hpp"
#include "dataflow/tiling.hpp"
#include "dnn/model_zoo.hpp"
#include "hw/accelerator.hpp"
#include "hw/msp430_lea.hpp"

namespace chrysalis::dataflow {
namespace {

// --- Oracle: the single-step analyze_layer, kept as the reference --------

namespace oracle {

struct ReusePlan {
    double input_reuse = 1.0;
    double weight_reuse = 1.0;
    double stationary_bytes_per_pe = 0.0;
};

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
        plan.weight_reuse = std::max(1.0, outputs_per_chan);
        plan.input_reuse = std::min(
            spatial, static_cast<double>(std::max<std::int64_t>(
                         1, tile.k)));
        plan.stationary_bytes_per_pe =
            static_cast<double>(tile.weight_elems) * elem / spatial;
        break;
      case Dataflow::kOutputStationary:
        plan.weight_reuse = std::min(
            spatial, std::max(1.0, outputs_per_chan));
        plan.input_reuse = std::max(1.0,
            static_cast<double>(d.r * d.s) / std::max(1.0, stride2));
        plan.stationary_bytes_per_pe =
            static_cast<double>(tile.output_elems) * elem / spatial;
        break;
      case Dataflow::kInputStationary:
        plan.input_reuse = std::max<double>(
            1.0, static_cast<double>(tile.k));
        plan.weight_reuse = 1.0;
        plan.stationary_bytes_per_pe =
            static_cast<double>(tile.input_elems) * elem / spatial;
        break;
      case Dataflow::kRowStationary:
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

LayerCost
analyze_layer(const dnn::Layer& layer, const LayerMapping& mapping,
              const CostParams& params)
{
    const TileShape tile = tile_shape(layer, mapping);
    const std::int64_t n_tile = mapping.tile_count();
    const double elem = params.element_bytes;

    LayerCost cost;
    cost.macs = layer.macs();
    cost.n_tile = n_tile;

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

    std::int64_t sp_extent = 1;
    switch (mapping.dataflow) {
      case Dataflow::kWeightStationary:
        sp_extent = tile.k * layer.dims.c;
        break;
      case Dataflow::kOutputStationary:
        sp_extent = tile.n * tile.k * tile.y * tile.x;
        break;
      case Dataflow::kInputStationary:
        sp_extent = layer.dims.c * tile.y;
        break;
      case Dataflow::kRowStationary:
        sp_extent = tile.y * layer.dims.r * tile.k;
        break;
    }
    const std::int64_t pes_used = std::min<std::int64_t>(params.n_pe,
                                                         sp_extent);
    const std::int64_t waves = ceil_div(sp_extent, params.n_pe);
    cost.utilization =
        static_cast<double>(sp_extent) /
        static_cast<double>(waves * params.n_pe);

    const ReusePlan plan =
        make_plan(mapping.dataflow, layer, tile, params, pes_used);
    const double passes = std::max(
        1.0, std::ceil(plan.stationary_bytes_per_pe /
                       static_cast<double>(params.vm_bytes_per_pe)));

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

    const double macs = static_cast<double>(cost.macs);
    const double reduction = static_cast<double>(
        layer.dims.c * layer.dims.r * layer.dims.s);
    const double psum_spills =
        mapping.dataflow == Dataflow::kOutputStationary ? 1.0 : passes;
    const double vm_accesses =
        macs / plan.input_reuse + macs / plan.weight_reuse +
        2.0 * macs / std::max(1.0, reduction) * psum_spills;
    const double vm_bytes = vm_accesses * elem;

    const double live_bytes = std::min(
        static_cast<double>(params.vm_total_bytes()),
        plan.stationary_bytes_per_pe * static_cast<double>(pes_used) +
            static_cast<double>(layer.dims.c * layer.dims.r) * elem);
    cost.ckpt_bytes =
        static_cast<std::int64_t>(live_bytes + params.ckpt_fixed_bytes);

    const double stream_buffer =
        (static_cast<double>(std::min<std::int64_t>(
             layer.dims.c * layer.dims.r * layer.dims.s, 512)) +
         static_cast<double>(std::min<std::int64_t>(tile.k, 64))) * elem;
    cost.vm_required_bytes = static_cast<std::int64_t>(stream_buffer);
    cost.feasible = cost.vm_required_bytes <= params.vm_total_bytes();

    const double op_scale =
        layer.kind == dnn::LayerKind::kPool ? params.pool_op_scale : 1.0;

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
    cost.ckpt_pair_energy_j =
        static_cast<double>(cost.ckpt_bytes) *
        (params.e_nvm_read_byte_j + params.e_nvm_write_byte_j);
    cost.e_ckpt_j = static_cast<double>(n_tile) *
                    (1.0 + params.exception_rate) *
                    cost.ckpt_pair_energy_j;
    return cost;
}

}  // namespace oracle

/// Every LayerCost field, doubles compared exactly.
void
expect_same_cost(const LayerCost& got, const LayerCost& want)
{
    EXPECT_EQ(got.feasible, want.feasible);
    EXPECT_EQ(got.macs, want.macs);
    EXPECT_EQ(got.n_tile, want.n_tile);
    EXPECT_EQ(got.ckpt_bytes, want.ckpt_bytes);
    EXPECT_EQ(got.ckpt_pair_energy_j, want.ckpt_pair_energy_j);
    EXPECT_EQ(got.nvm_read_bytes, want.nvm_read_bytes);
    EXPECT_EQ(got.nvm_write_bytes, want.nvm_write_bytes);
    EXPECT_EQ(got.vm_required_bytes, want.vm_required_bytes);
    EXPECT_EQ(got.utilization, want.utilization);
    EXPECT_EQ(got.compute_time_s, want.compute_time_s);
    EXPECT_EQ(got.nvm_time_s, want.nvm_time_s);
    EXPECT_EQ(got.ckpt_time_s, want.ckpt_time_s);
    EXPECT_EQ(got.time_s, want.time_s);
    EXPECT_EQ(got.e_compute_j, want.e_compute_j);
    EXPECT_EQ(got.e_vm_j, want.e_vm_j);
    EXPECT_EQ(got.e_nvm_j, want.e_nvm_j);
    EXPECT_EQ(got.e_static_j, want.e_static_j);
    EXPECT_EQ(got.e_ckpt_j, want.e_ckpt_j);
}

/// MSP430, and TPU and Eyeriss across the PE and cache ranges, with
/// odd PE counts that leave the last wave partly filled.
std::vector<CostParams>
oracle_params()
{
    std::vector<CostParams> params = {hw::Msp430Lea().cost_params()};
    for (const auto arch :
         {hw::AcceleratorArch::kTpu, hw::AcceleratorArch::kEyeriss}) {
        for (const std::int64_t n_pe : {1, 7, 64, 168}) {
            for (const std::int64_t cache : {128, 512, 2048}) {
                hw::ReconfigurableAccelerator::Config config;
                config.arch = arch;
                config.n_pe = n_pe;
                config.cache_bytes_per_pe = cache;
                params.push_back(
                    hw::ReconfigurableAccelerator(config).cost_params());
            }
        }
    }
    return params;
}

/// One distinct shape of every zoo model, plus one hand-built layer of
/// each kind with extents the chunk counts do not divide.
std::vector<dnn::Layer>
oracle_layers()
{
    std::vector<dnn::Layer> layers = {
        dnn::make_conv2d("conv", 5, 7, 9, 11, 3, 2, 1),
        dnn::make_depthwise("dw", 6, 10, 13, 3, 2, 0),
        dnn::make_dense("fc", 37, 19, 3),
        dnn::make_matmul("mm", 2, 9, 17, 5),
        dnn::make_pool("pool", 7, 11, 9, 3, 2),
        dnn::make_embedding("emb", 50, 12, 7),
    };
    for (const char* name :
         {"simple_conv", "cifar10", "har", "kws", "mnist", "cnn_b", "cnn_s",
          "fc", "alexnet", "vgg16", "resnet18", "bert", "mobilenet_tiny"}) {
        const dnn::Model model = dnn::make_model(name);
        for (std::size_t i = 0; i < model.layer_count(); ++i) {
            const dnn::Layer& layer = model.layer(i);
            const bool seen = std::any_of(
                layers.begin(), layers.end(), [&](const dnn::Layer& other) {
                    return dnn::same_shape(layer, other);
                });
            if (!seen)
                layers.push_back(layer);
        }
    }
    return layers;
}

TEST(HardwarePassOracleTest, BothStepsMatchTheSingleStepModel)
{
    const auto params = oracle_params();
    std::vector<HardwareTerms> terms;
    for (const auto& p : params)
        terms.emplace_back(p);
    std::int64_t compared = 0;
    std::vector<dnn::LayerKind> kinds;
    for (const dnn::Layer& layer : oracle_layers()) {
        kinds.push_back(layer.kind);
        for (const std::size_t width : {5, 6, 8}) {
            for (const LayerMapping& mapping :
                 enumerate_mappings(layer, all_dataflows(), width)) {
                // One geometry per (layer, mapping), reused across every
                // hardware, as the mapping search's tables reuse it.
                const LayerGeometry shape = geometry(layer, mapping);
                for (std::size_t h = 0; h < params.size(); ++h) {
                    const LayerCost want =
                        oracle::analyze_layer(layer, mapping, params[h]);
                    const LayerCost ranked = with_dataflow(
                        mapping.dataflow, [&](auto dataflow) {
                            return hardware_pass<decltype(dataflow)::value>(
                                shape, terms[h]);
                        });
                    expect_same_cost(
                        analyze_layer(layer, mapping, params[h]), want);
                    expect_same_cost(ranked, want);
                    ASSERT_FALSE(HasFailure())
                        << layer.name << " " << to_string(mapping.dataflow)
                        << " " << mapping.tiles_k << "x" << mapping.tiles_y
                        << "x" << mapping.tiles_n << " on hardware " << h;
                    ++compared;
                }
            }
        }
    }
    for (const auto kind :
         {dnn::LayerKind::kConv2d, dnn::LayerKind::kDepthwise,
          dnn::LayerKind::kDense, dnn::LayerKind::kMatmul,
          dnn::LayerKind::kPool, dnn::LayerKind::kEmbedding}) {
        EXPECT_NE(std::find(kinds.begin(), kinds.end(), kind), kinds.end())
            << dnn::to_string(kind);
    }
    EXPECT_GT(compared, 100000);
}

}  // namespace
}  // namespace chrysalis::dataflow
