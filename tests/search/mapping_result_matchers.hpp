/// \file
/// Bit-for-bit comparison of two mapping-search results, shared by the
/// mapping-search oracle tests and the explorer tests.

#ifndef CHRYSALIS_TESTS_SEARCH_MAPPING_RESULT_MATCHERS_HPP
#define CHRYSALIS_TESTS_SEARCH_MAPPING_RESULT_MATCHERS_HPP

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <utility>

#include "search/mapping_search.hpp"

namespace chrysalis::search::matchers {

inline bool
same_bits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

inline void
expect_same_layer_cost(const dataflow::LayerCost& got,
                       const dataflow::LayerCost& want)
{
    EXPECT_EQ(got.feasible, want.feasible);
    EXPECT_EQ(got.macs, want.macs);
    EXPECT_EQ(got.n_tile, want.n_tile);
    EXPECT_EQ(got.ckpt_bytes, want.ckpt_bytes);
    EXPECT_EQ(got.nvm_read_bytes, want.nvm_read_bytes);
    EXPECT_EQ(got.nvm_write_bytes, want.nvm_write_bytes);
    EXPECT_EQ(got.vm_required_bytes, want.vm_required_bytes);
    for (const auto& [a, b] : {std::pair{got.ckpt_pair_energy_j,
                                         want.ckpt_pair_energy_j},
                               {got.utilization, want.utilization},
                               {got.compute_time_s, want.compute_time_s},
                               {got.nvm_time_s, want.nvm_time_s},
                               {got.ckpt_time_s, want.ckpt_time_s},
                               {got.time_s, want.time_s},
                               {got.e_compute_j, want.e_compute_j},
                               {got.e_vm_j, want.e_vm_j},
                               {got.e_nvm_j, want.e_nvm_j},
                               {got.e_static_j, want.e_static_j},
                               {got.e_ckpt_j, want.e_ckpt_j}}) {
        EXPECT_TRUE(same_bits(a, b)) << a << " vs " << b;
    }
}

/// The model totals: floating-point sums of the layer costs, which match
/// only when both sides add the same costs in the same order.
inline void
expect_same_model_totals(const dataflow::ModelCost& got,
                         const dataflow::ModelCost& want)
{
    EXPECT_EQ(got.feasible, want.feasible);
    EXPECT_EQ(got.n_tile, want.n_tile);
    EXPECT_EQ(got.nvm_read_bytes, want.nvm_read_bytes);
    EXPECT_EQ(got.nvm_write_bytes, want.nvm_write_bytes);
    for (const auto& [a, b] : {std::pair{got.time_s, want.time_s},
                               {got.e_compute_j, want.e_compute_j},
                               {got.e_vm_j, want.e_vm_j},
                               {got.e_nvm_j, want.e_nvm_j},
                               {got.e_static_j, want.e_static_j},
                               {got.e_ckpt_j, want.e_ckpt_j}}) {
        EXPECT_TRUE(same_bits(a, b)) << a << " vs " << b;
    }
}

inline void
expect_same_result(const MappingSearchResult& got,
                   const MappingSearchResult& want)
{
    EXPECT_EQ(got.feasible, want.feasible);
    EXPECT_TRUE(same_bits(got.violation_j, want.violation_j))
        << got.violation_j << " vs " << want.violation_j;
    EXPECT_EQ(got.failure.code, want.failure.code);
    EXPECT_EQ(got.failure.message(), want.failure.message());
    EXPECT_EQ(got.evaluations, want.evaluations);
    expect_same_model_totals(got.cost, want.cost);
    ASSERT_EQ(got.mappings.size(), want.mappings.size());
    ASSERT_EQ(got.cost.layers.size(), want.cost.layers.size());
    for (std::size_t i = 0; i < got.mappings.size(); ++i) {
        SCOPED_TRACE("layer " + std::to_string(i));
        EXPECT_EQ(got.mappings[i].dataflow, want.mappings[i].dataflow);
        EXPECT_EQ(got.mappings[i].tiles_k, want.mappings[i].tiles_k);
        EXPECT_EQ(got.mappings[i].tiles_y, want.mappings[i].tiles_y);
        EXPECT_EQ(got.mappings[i].tiles_n, want.mappings[i].tiles_n);
        expect_same_layer_cost(got.cost.layers[i], want.cost.layers[i]);
    }
}

}  // namespace chrysalis::search::matchers

#endif  // CHRYSALIS_TESTS_SEARCH_MAPPING_RESULT_MATCHERS_HPP
