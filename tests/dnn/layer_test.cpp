/// \file
/// Tests for layer factories, loop-dim accounting and shape inference.

#include "dnn/layer.hpp"

#include <gtest/gtest.h>

namespace chrysalis::dnn {
namespace {

TEST(LayerTest, Conv2dShapeInference)
{
    // 3x32x32 input, 16 filters of 3x3, stride 1, pad 1 -> 16x32x32.
    const Layer layer = make_conv2d("c", 3, 16, 32, 32, 3, 1, 1);
    EXPECT_EQ(layer.dims.k, 16);
    EXPECT_EQ(layer.dims.c, 3);
    EXPECT_EQ(layer.dims.y, 32);
    EXPECT_EQ(layer.dims.x, 32);
    EXPECT_EQ(layer.dims.r, 3);
    EXPECT_EQ(layer.dims.s, 3);
}

TEST(LayerTest, Conv2dStrideAndNoPadding)
{
    // (32 - 5)/9 + 1 = 4.
    const Layer layer = make_conv2d("c", 3, 16, 32, 32, 5, 9, 0);
    EXPECT_EQ(layer.dims.y, 4);
    EXPECT_EQ(layer.dims.x, 4);
}

TEST(LayerTest, Conv2dMacsAndParams)
{
    const Layer layer = make_conv2d("c", 3, 16, 32, 32, 3, 1, 1);
    EXPECT_EQ(layer.macs(), 16LL * 3 * 32 * 32 * 3 * 3);
    EXPECT_EQ(layer.flops(), 2 * layer.macs());
    EXPECT_EQ(layer.param_count(), 16LL * 3 * 3 * 3 + 16);
    EXPECT_TRUE(layer.has_weights());
}

TEST(LayerTest, Conv1dCollapsesWidth)
{
    // 1-D convolution: in_w == 1 collapses S and X.
    const Layer layer = make_conv2d("c1d", 9, 12, 128, 1, 5);
    EXPECT_EQ(layer.dims.y, 124);
    EXPECT_EQ(layer.dims.x, 1);
    EXPECT_EQ(layer.dims.r, 5);
    EXPECT_EQ(layer.dims.s, 1);
    EXPECT_EQ(layer.param_count(), 12LL * 9 * 5 * 1 + 12);
}

TEST(LayerTest, DepthwiseParams)
{
    const Layer layer = make_depthwise("dw", 32, 16, 16, 3, 1, 1);
    EXPECT_EQ(layer.kind, LayerKind::kDepthwise);
    EXPECT_EQ(layer.param_count(), 32LL * 3 * 3 + 32);
}

TEST(LayerTest, DenseBasics)
{
    const Layer layer = make_dense("fc", 256, 10);
    EXPECT_EQ(layer.macs(), 2560);
    EXPECT_EQ(layer.param_count(), 2570);
    EXPECT_EQ(layer.input_elems(), 256);
    EXPECT_EQ(layer.output_elems(), 10);
}

TEST(LayerTest, DenseWithSequenceRepeats)
{
    const Layer layer = make_dense("proj", 768, 768, /*seq=*/18);
    EXPECT_EQ(layer.macs(), 18LL * 768 * 768);
    EXPECT_EQ(layer.param_count(), 768LL * 768 + 768);  // seq-independent
    EXPECT_EQ(layer.input_elems(), 18 * 768);
    EXPECT_EQ(layer.output_elems(), 18 * 768);
}

TEST(LayerTest, MatmulHasNoWeights)
{
    // 12 heads x [18 x 64] x [64 x 18].
    const Layer layer = make_matmul("qk", 12, 18, 64, 18);
    EXPECT_EQ(layer.param_count(), 0);
    EXPECT_FALSE(layer.has_weights());
    EXPECT_EQ(layer.macs(), 12LL * 18 * 64 * 18);
}

TEST(LayerTest, PoolBasics)
{
    const Layer layer = make_pool("p", 16, 32, 32, 2, 2);
    EXPECT_EQ(layer.dims.y, 16);
    EXPECT_EQ(layer.dims.x, 16);
    EXPECT_EQ(layer.param_count(), 0);
    // Pool FLOPs are one op per window element (no multiply).
    EXPECT_EQ(layer.flops(), layer.dims.volume());
}

TEST(LayerTest, Pool1d)
{
    const Layer layer = make_pool("p", 12, 124, 1, 2, 2);
    EXPECT_EQ(layer.dims.y, 62);
    EXPECT_EQ(layer.dims.x, 1);
    EXPECT_EQ(layer.dims.s, 1);
}

TEST(LayerTest, EmbeddingHasParamsButNoMacs)
{
    const Layer layer = make_embedding("emb", 27600, 768, 18);
    EXPECT_EQ(layer.macs(), 0);
    EXPECT_EQ(layer.param_count(), 27600LL * 768);
    EXPECT_EQ(layer.output_elems(), 18 * 768);
}

TEST(LayerTest, DimExtentAccessor)
{
    const Layer layer = make_conv2d("c", 3, 16, 32, 32, 3, 1, 1);
    EXPECT_EQ(dim_extent(layer.dims, Dim::kK), 16);
    EXPECT_EQ(dim_extent(layer.dims, Dim::kC), 3);
    EXPECT_EQ(dim_extent(layer.dims, Dim::kY), 32);
    EXPECT_EQ(dim_extent(layer.dims, Dim::kR), 3);
    EXPECT_EQ(dim_extent(layer.dims, Dim::kN), 1);
}

TEST(LayerTest, KindNames)
{
    EXPECT_EQ(to_string(LayerKind::kConv2d), "conv2d");
    EXPECT_EQ(to_string(LayerKind::kDense), "dense");
    EXPECT_EQ(to_string(LayerKind::kPool), "pool");
    EXPECT_EQ(to_string(LayerKind::kEmbedding), "embedding");
    EXPECT_EQ(to_string(Dim::kK), "K");
    EXPECT_EQ(to_string(Dim::kS), "S");
}

TEST(LayerTest, LoopVolumeMatchesProduct)
{
    LoopDims dims;
    dims.n = 2;
    dims.k = 3;
    dims.c = 5;
    dims.y = 7;
    dims.x = 11;
    dims.r = 13;
    dims.s = 17;
    EXPECT_EQ(dims.volume(), 2LL * 3 * 5 * 7 * 11 * 13 * 17);
}

TEST(LayerTest, SameShapeIgnoresOnlyTheName)
{
    const Layer a = make_conv2d("a", 16, 16, 32, 32, 3, 1, 1);
    const Layer b = make_conv2d("b", 16, 16, 32, 32, 3, 1, 1);
    EXPECT_TRUE(same_shape(a, b));

    // Each field the cost model reads breaks the match on its own.
    Layer other = a;
    other.kind = LayerKind::kDepthwise;
    EXPECT_FALSE(same_shape(a, other));
    other = a;
    other.dims.s = 1;
    EXPECT_FALSE(same_shape(a, other));
    other = a;
    other.stride = 2;
    EXPECT_FALSE(same_shape(a, other));
    other = a;
    other.in_h = 31;
    EXPECT_FALSE(same_shape(a, other));
    other = a;
    other.in_w = 31;
    EXPECT_FALSE(same_shape(a, other));
}

TEST(LayerDeathTest, RejectsImpossibleGeometry)
{
    // Kernel larger than padded input.
    EXPECT_EXIT(make_conv2d("bad", 3, 8, 4, 4, 7, 1, 0),
                ::testing::ExitedWithCode(1), "output extent");
}

TEST(LayerDeathTest, RejectsNonPositiveArguments)
{
    EXPECT_EXIT(make_conv2d("bad", 0, 8, 8, 8, 3),
                ::testing::ExitedWithCode(1), "in_c");
    EXPECT_EXIT(make_dense("bad", 10, 0), ::testing::ExitedWithCode(1),
                "out_features");
    EXPECT_EXIT(make_pool("bad", 4, 8, 8, 0, 1),
                ::testing::ExitedWithCode(1), "window");
}

}  // namespace
}  // namespace chrysalis::dnn
