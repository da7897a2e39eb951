#include "dataflow/cost_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "dataflow/hardware_pass.hpp"

namespace chrysalis::dataflow {

void
check_cost_params(const CostParams& params)
{
    if (params.n_pe < 1)
        fatal("cost model: n_pe must be >= 1, got ", params.n_pe);
    if (params.vm_bytes_per_pe < 1)
        fatal("cost model: vm_bytes_per_pe must be >= 1, got ",
              params.vm_bytes_per_pe);
    if (params.element_bytes < 1)
        fatal("cost model: element_bytes must be >= 1, got ",
              params.element_bytes);
    const auto positive = [](const char* name, double value) {
        if (!(std::isfinite(value) && value > 0.0))
            fatal("cost model: ", name, " must be > 0, got ", value);
    };
    positive("macs_per_s_per_pe", params.macs_per_s_per_pe);
    positive("nvm_bytes_per_s", params.nvm_bytes_per_s);
    const auto non_negative = [](const char* name, double value) {
        if (!(std::isfinite(value) && value >= 0.0))
            fatal("cost model: ", name, " must be >= 0, got ", value);
    };
    non_negative("e_mac_j", params.e_mac_j);
    non_negative("e_vm_byte_j", params.e_vm_byte_j);
    non_negative("p_mem_w_per_byte", params.p_mem_w_per_byte);
    non_negative("e_nvm_read_byte_j", params.e_nvm_read_byte_j);
    non_negative("e_nvm_write_byte_j", params.e_nvm_write_byte_j);
    non_negative("p_pe_static_w", params.p_pe_static_w);
    non_negative("exception_rate", params.exception_rate);
    non_negative("ckpt_fixed_bytes", params.ckpt_fixed_bytes);
    non_negative("pool_op_scale", params.pool_op_scale);
}

LayerCost
analyze_layer(const dnn::Layer& layer, const LayerMapping& mapping,
              const CostParams& params)
{
    const HardwareTerms terms(params);  // checks the hardware first
    if (!mapping.valid_for(layer))
        fatal("analyze_layer: mapping invalid for layer ", layer.name);
    return hardware_pass(geometry(layer, mapping), terms);
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
