#include "dnn/layer.hpp"

#include "common/logging.hpp"

namespace chrysalis::dnn {

std::string
to_string(LayerKind kind)
{
    switch (kind) {
      case LayerKind::kConv2d: return "conv2d";
      case LayerKind::kDepthwise: return "dwconv";
      case LayerKind::kDense: return "dense";
      case LayerKind::kMatmul: return "matmul";
      case LayerKind::kPool: return "pool";
      case LayerKind::kEmbedding: return "embedding";
    }
    return "?";
}

std::int64_t
LoopDims::volume() const
{
    return n * k * c * y * x * r * s;
}

std::int64_t
dim_extent(const LoopDims& dims, Dim dim)
{
    switch (dim) {
      case Dim::kN: return dims.n;
      case Dim::kK: return dims.k;
      case Dim::kC: return dims.c;
      case Dim::kY: return dims.y;
      case Dim::kX: return dims.x;
      case Dim::kR: return dims.r;
      case Dim::kS: return dims.s;
    }
    panic("dim_extent: invalid dim");
}

std::string
to_string(Dim dim)
{
    switch (dim) {
      case Dim::kN: return "N";
      case Dim::kK: return "K";
      case Dim::kC: return "C";
      case Dim::kY: return "Y";
      case Dim::kX: return "X";
      case Dim::kR: return "R";
      case Dim::kS: return "S";
    }
    return "?";
}

std::int64_t
Layer::macs() const
{
    if (kind == LayerKind::kEmbedding)
        return 0;
    return dims.volume();
}

std::int64_t
Layer::flops() const
{
    if (kind == LayerKind::kPool)
        return dims.volume();  // one compare/accumulate per window element
    return 2 * macs();
}

std::int64_t
Layer::param_count() const
{
    switch (kind) {
      case LayerKind::kConv2d:
        return dims.k * dims.c * dims.r * dims.s + dims.k;
      case LayerKind::kDepthwise:
        return dims.k * dims.r * dims.s + dims.k;
      case LayerKind::kDense:
        return dims.k * dims.c + dims.k;
      case LayerKind::kEmbedding:
        return dims.k * dims.c;  // rows (c) x width (k), no bias
      case LayerKind::kMatmul:
      case LayerKind::kPool:
        return 0;
    }
    return 0;
}

std::int64_t
Layer::input_elems() const
{
    if (kind == LayerKind::kDense || kind == LayerKind::kMatmul)
        return dims.n * dims.c;
    if (kind == LayerKind::kEmbedding)
        return dims.n;  // token indices
    if (kind == LayerKind::kPool || kind == LayerKind::kDepthwise)
        return dims.k * in_h * in_w * dims.n;  // per-channel input
    return dims.c * in_h * in_w * dims.n;
}

std::int64_t
Layer::output_elems() const
{
    return dims.n * dims.k * dims.y * dims.x;
}

bool
Layer::has_weights() const
{
    return param_count() > 0;
}

bool
same_shape(const Layer& a, const Layer& b)
{
    return a.kind == b.kind && a.dims == b.dims && a.stride == b.stride &&
           a.in_h == b.in_h && a.in_w == b.in_w;
}

namespace {

std::int64_t
conv_out_extent(std::int64_t in, std::int64_t kernel, std::int64_t stride,
                std::int64_t padding)
{
    const std::int64_t out = (in + 2 * padding - kernel) / stride + 1;
    if (out < 1) {
        fatal("conv output extent < 1 (in=", in, " kernel=", kernel,
              " stride=", stride, " padding=", padding, ")");
    }
    return out;
}

void
check_positive(std::int64_t value, const char* what)
{
    if (value < 1)
        fatal("layer factory: ", what, " must be >= 1, got ", value);
}

}  // namespace

Layer
make_conv2d(std::string name, std::int64_t in_c, std::int64_t out_c,
            std::int64_t in_h, std::int64_t in_w, std::int64_t kernel,
            std::int64_t stride, std::int64_t padding)
{
    check_positive(in_c, "in_c");
    check_positive(out_c, "out_c");
    check_positive(kernel, "kernel");
    check_positive(stride, "stride");
    Layer layer;
    layer.name = std::move(name);
    layer.kind = LayerKind::kConv2d;
    layer.dims.k = out_c;
    layer.dims.c = in_c;
    layer.dims.y = conv_out_extent(in_h, kernel, stride, padding);
    // 1-D inputs (in_w == 1) get 1-D kernels: S and X collapse to 1.
    layer.dims.x =
        in_w == 1 ? 1 : conv_out_extent(in_w, kernel, stride, padding);
    layer.dims.r = kernel;
    layer.dims.s = in_w == 1 ? 1 : kernel;
    layer.stride = stride;
    layer.in_h = in_h;
    layer.in_w = in_w;
    return layer;
}

Layer
make_depthwise(std::string name, std::int64_t channels, std::int64_t in_h,
               std::int64_t in_w, std::int64_t kernel, std::int64_t stride,
               std::int64_t padding)
{
    check_positive(channels, "channels");
    Layer layer = make_conv2d(std::move(name), 1, channels, in_h, in_w,
                              kernel, stride, padding);
    layer.kind = LayerKind::kDepthwise;
    return layer;
}

Layer
make_dense(std::string name, std::int64_t in_features,
           std::int64_t out_features, std::int64_t seq)
{
    check_positive(in_features, "in_features");
    check_positive(out_features, "out_features");
    check_positive(seq, "seq");
    Layer layer;
    layer.name = std::move(name);
    layer.kind = LayerKind::kDense;
    layer.dims.n = seq;
    layer.dims.k = out_features;
    layer.dims.c = in_features;
    layer.in_h = 1;
    layer.in_w = 1;
    return layer;
}

Layer
make_matmul(std::string name, std::int64_t batch, std::int64_t m,
            std::int64_t k, std::int64_t n_cols)
{
    check_positive(batch, "batch");
    check_positive(m, "m");
    check_positive(k, "k");
    check_positive(n_cols, "n_cols");
    Layer layer;
    layer.name = std::move(name);
    layer.kind = LayerKind::kMatmul;
    layer.dims.n = batch * m;
    layer.dims.k = n_cols;
    layer.dims.c = k;
    return layer;
}

Layer
make_pool(std::string name, std::int64_t channels, std::int64_t in_h,
          std::int64_t in_w, std::int64_t window, std::int64_t stride)
{
    check_positive(channels, "channels");
    check_positive(window, "window");
    check_positive(stride, "stride");
    Layer layer;
    layer.name = std::move(name);
    layer.kind = LayerKind::kPool;
    // Pooling is per-channel: K carries the channel count and the
    // reduction happens only over the window (R, S), so C stays 1.
    layer.dims.k = channels;
    layer.dims.c = 1;
    layer.dims.y = conv_out_extent(in_h, window, stride, 0);
    layer.dims.x =
        in_w == 1 ? 1 : conv_out_extent(in_w, window, stride, 0);
    layer.dims.r = window;
    layer.dims.s = in_w == 1 ? 1 : window;
    layer.stride = stride;
    layer.in_h = in_h;
    layer.in_w = in_w;
    return layer;
}

Layer
make_embedding(std::string name, std::int64_t rows, std::int64_t width,
               std::int64_t seq)
{
    check_positive(rows, "rows");
    check_positive(width, "width");
    check_positive(seq, "seq");
    Layer layer;
    layer.name = std::move(name);
    layer.kind = LayerKind::kEmbedding;
    layer.dims.n = seq;
    layer.dims.k = width;
    layer.dims.c = rows;
    layer.dims.y = 1;
    layer.dims.x = 1;
    return layer;
}

}  // namespace chrysalis::dnn
