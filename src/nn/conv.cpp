#include "nn/conv.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/parallel.h"

namespace openei::nn {

using tensor::Conv2dSpec;

namespace {

Tensor conv_weight_init(const Conv2dSpec& spec, std::size_t filters,
                        std::size_t in_per_filter, common::Rng& rng) {
  float fan_in =
      static_cast<float>(in_per_filter * spec.kernel * spec.kernel);
  float bound = std::sqrt(2.0F / fan_in);
  return Tensor::random_normal(
      Shape{filters, in_per_filter, spec.kernel, spec.kernel}, rng, 0.0F, bound);
}

}  // namespace

Conv2d::Conv2d(Conv2dSpec spec, common::Rng& rng)
    : spec_(spec),
      weights_(conv_weight_init(spec, spec.out_channels, spec.in_channels, rng)),
      bias_(Shape{spec.out_channels}),
      grad_weights_(weights_.shape()),
      grad_bias_(bias_.shape()) {}

Conv2d::Conv2d(Conv2dSpec spec, Tensor weights, Tensor bias)
    : spec_(spec),
      weights_(std::move(weights)),
      bias_(std::move(bias)),
      grad_weights_(weights_.shape()),
      grad_bias_(bias_.shape()) {
  OPENEI_CHECK(weights_.shape() ==
                   Shape({spec.out_channels, spec.in_channels, spec.kernel,
                          spec.kernel}),
               "conv2d weight shape mismatch");
  OPENEI_CHECK(bias_.elements() == spec.out_channels, "conv2d bias size mismatch");
}

Tensor Conv2d::forward(const Tensor& input, bool training) {
  OPENEI_CHECK(input.shape().rank() == 4, "conv2d input must be NCHW");
  if (training) {
    cached_patches_ = tensor::im2col(input, spec_);
    cached_input_shape_ = input.shape();
  }
  return tensor::conv2d_im2col(input, weights_, bias_, spec_);
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  OPENEI_CHECK(cached_input_shape_.rank() == 4, "conv2d backward before forward");
  std::size_t n = cached_input_shape_.dim(0);
  std::size_t in_h = cached_input_shape_.dim(2);
  std::size_t in_w = cached_input_shape_.dim(3);
  std::size_t out_h = spec_.out_size(in_h);
  std::size_t out_w = spec_.out_size(in_w);
  std::size_t patch = spec_.in_channels * spec_.kernel * spec_.kernel;
  OPENEI_CHECK(grad_output.shape() == Shape({n, spec_.out_channels, out_h, out_w}),
               "conv2d grad_output shape mismatch");

  // Gather grad_output NCHW into the [N*oh*ow, oc] layout used at forward;
  // each image fills a disjoint row block, so the gather is batch-parallel.
  Tensor grad_mat(Shape{n * out_h * out_w, spec_.out_channels});
  std::size_t rows_per_image = out_h * out_w;
  common::parallel_for(
      0, n,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t b = lo; b < hi; ++b) {
          std::size_t row = b * rows_per_image;
          for (std::size_t oh = 0; oh < out_h; ++oh) {
            for (std::size_t ow = 0; ow < out_w; ++ow, ++row) {
              for (std::size_t oc = 0; oc < spec_.out_channels; ++oc) {
                grad_mat.at2(row, oc) = grad_output.at4(b, oc, oh, ow);
              }
            }
          }
        }
      },
      /*grain=*/1);

  // dW = (patches^T grad_mat)^T reshaped to [oc, ic, k, k].
  Tensor grad_w_mat =
      tensor::transpose(tensor::matmul(tensor::transpose(cached_patches_), grad_mat));
  grad_weights_ += grad_w_mat.reshaped(weights_.shape());

  // db = column sums of grad_mat; per-column accumulation stays in ascending
  // row order, so parallelizing over columns is bit-identical.
  common::parallel_for(
      0, spec_.out_channels,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t oc = lo; oc < hi; ++oc) {
          for (std::size_t r = 0; r < grad_mat.shape().dim(0); ++r) {
            grad_bias_[oc] += grad_mat.at2(r, oc);
          }
        }
      },
      /*grain=*/4);

  // dX: grad_patches = grad_mat W2, then col2im scatter-add.  The scatter
  // only touches grad_input[b, ...], so it parallelizes over images.
  Tensor w2 = weights_.reshaped(Shape{spec_.out_channels, patch});
  Tensor grad_patches = tensor::matmul(grad_mat, w2);  // [N*oh*ow, patch]

  Tensor grad_input(cached_input_shape_);
  common::parallel_for(
      0, n,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t b = lo; b < hi; ++b) {
          std::size_t row = b * rows_per_image;
          for (std::size_t oh = 0; oh < out_h; ++oh) {
            for (std::size_t ow = 0; ow < out_w; ++ow, ++row) {
              std::size_t col = 0;
              for (std::size_t ic = 0; ic < spec_.in_channels; ++ic) {
                for (std::size_t kh = 0; kh < spec_.kernel; ++kh) {
                  for (std::size_t kw = 0; kw < spec_.kernel; ++kw, ++col) {
                    long ih = static_cast<long>(oh * spec_.stride + kh) -
                              static_cast<long>(spec_.padding);
                    long iw = static_cast<long>(ow * spec_.stride + kw) -
                              static_cast<long>(spec_.padding);
                    if (ih < 0 || iw < 0) continue;
                    auto uh = static_cast<std::size_t>(ih);
                    auto uw = static_cast<std::size_t>(iw);
                    if (uh >= in_h || uw >= in_w) continue;
                    grad_input.at4(b, ic, uh, uw) += grad_patches.at2(row, col);
                  }
                }
              }
            }
          }
        }
      },
      /*grain=*/1);
  return grad_input;
}

Shape Conv2d::output_shape(const Shape& input) const {
  OPENEI_CHECK(input.rank() == 3 && input.dim(0) == spec_.in_channels,
               "conv2d expects sample shape [C,H,W] with C=", spec_.in_channels,
               ", got ", input.to_string());
  return Shape{spec_.out_channels, spec_.out_size(input.dim(1)),
               spec_.out_size(input.dim(2))};
}

std::size_t Conv2d::flops(const Shape& input) const {
  Shape out = output_shape(input);
  // 2 * k^2 * ic MACs per output element.
  return 2 * out.elements() * spec_.kernel * spec_.kernel * spec_.in_channels;
}

std::unique_ptr<Layer> Conv2d::clone() const {
  return std::make_unique<Conv2d>(spec_, weights_, bias_);
}

common::Json Conv2d::config() const {
  common::Json cfg{common::JsonObject{}};
  cfg.set("in_channels", spec_.in_channels);
  cfg.set("out_channels", spec_.out_channels);
  cfg.set("kernel", spec_.kernel);
  cfg.set("stride", spec_.stride);
  cfg.set("padding", spec_.padding);
  return cfg;
}

QuantizedConv2d::QuantizedConv2d(Conv2dSpec spec,
                                 tensor::PackedQuantMatrix packed, Tensor bias)
    : spec_(spec), packed_(std::move(packed)), bias_(std::move(bias)) {
  OPENEI_CHECK(packed_.rows() == spec_.out_channels &&
                   packed_.cols() ==
                       spec_.in_channels * spec_.kernel * spec_.kernel,
               "quantized conv packed weight shape mismatch");
  OPENEI_CHECK(bias_.elements() == spec_.out_channels,
               "quantized conv bias size mismatch");
}

std::unique_ptr<QuantizedConv2d> QuantizedConv2d::from_conv(const Conv2d& conv) {
  const Conv2dSpec& spec = conv.spec();
  std::size_t patch = spec.in_channels * spec.kernel * spec.kernel;
  return std::make_unique<QuantizedConv2d>(
      spec,
      tensor::PackedQuantMatrix::pack_rows(
          conv.weights().reshaped(Shape{spec.out_channels, patch}),
          /*per_channel=*/true),
      conv.bias());
}

tensor::QuantParams QuantizedConv2d::effective_input_params(
    const float* input, std::size_t n) const {
  if (input_params_) return *input_params_;
  float min_v = 0.0F;
  float max_v = 0.0F;
  for (std::size_t i = 0; i < n; ++i) {
    min_v = std::min(min_v, input[i]);
    max_v = std::max(max_v, input[i]);
  }
  return tensor::QuantParams::choose(min_v, max_v);
}

void QuantizedConv2d::forward_into(const float* input, std::size_t n,
                                   std::size_t in_h, std::size_t in_w,
                                   std::int8_t* input_staging,
                                   std::int8_t* patch_staging,
                                   float* gemm_scratch, bool fuse_relu,
                                   float* out) const {
  std::size_t out_h = spec_.out_size(in_h);
  std::size_t out_w = spec_.out_size(in_w);
  std::size_t patch = spec_.in_channels * spec_.kernel * spec_.kernel;
  std::size_t gemm_rows = n * out_h * out_w;
  std::size_t input_elems = n * spec_.in_channels * in_h * in_w;

  tensor::QuantParams params = effective_input_params(input, input_elems);
  // Quantize the NCHW input once (each pixel rounds once, not k^2 times),
  // then gather patches in int8 — transposed [patch, rows], so the gather is
  // contiguous memcpy/memset runs and the GEMM stages its lane tiles with
  // in-register byte transposes.  The zero point encodes 0.0 exactly, so
  // padding matches the float path.
  tensor::quantize_to_int8(input, input_elems, params, input_staging);
  tensor::im2col_q8t(input_staging, n, in_h, in_w, spec_,
                     static_cast<std::int8_t>(params.zero_point),
                     patch_staging);
  tensor::qgemm_t(patch_staging, gemm_rows, patch, params, packed_,
                  bias_.data().data(), fuse_relu, gemm_scratch);

  tensor::scatter_nchw_into(gemm_scratch, n, out_h * out_w, spec_.out_channels,
                            out);
}

Tensor QuantizedConv2d::forward(const Tensor& input, bool training) {
  OPENEI_CHECK(!training, "QuantizedConv2d is inference-only");
  OPENEI_CHECK(input.shape().rank() == 4 &&
                   input.shape().dim(1) == spec_.in_channels,
               "quantized conv input must be NCHW with C=", spec_.in_channels);
  std::size_t n = input.shape().dim(0);
  std::size_t in_h = input.shape().dim(2);
  std::size_t in_w = input.shape().dim(3);
  std::size_t out_h = spec_.out_size(in_h);
  std::size_t out_w = spec_.out_size(in_w);
  std::size_t patch = spec_.in_channels * spec_.kernel * spec_.kernel;

  std::vector<std::int8_t> input_staging(input.elements());
  std::vector<std::int8_t> patch_staging(n * out_h * out_w * patch);
  std::vector<float> gemm_scratch(n * out_h * out_w * spec_.out_channels);
  Tensor out(Shape{n, spec_.out_channels, out_h, out_w});
  forward_into(input.data().data(), n, in_h, in_w, input_staging.data(),
               patch_staging.data(), gemm_scratch.data(), /*fuse_relu=*/false,
               out.data().data());
  return out;
}

Tensor QuantizedConv2d::backward(const Tensor&) {
  throw openei::InvalidArgument("QuantizedConv2d does not support training");
}

Shape QuantizedConv2d::output_shape(const Shape& input) const {
  OPENEI_CHECK(input.rank() == 3 && input.dim(0) == spec_.in_channels,
               "quantized conv expects sample shape [C,H,W] with C=",
               spec_.in_channels, ", got ", input.to_string());
  return Shape{spec_.out_channels, spec_.out_size(input.dim(1)),
               spec_.out_size(input.dim(2))};
}

std::size_t QuantizedConv2d::flops(const Shape& input) const {
  Shape out = output_shape(input);
  return 2 * out.elements() * spec_.kernel * spec_.kernel * spec_.in_channels;
}

std::unique_ptr<Layer> QuantizedConv2d::clone() const {
  auto copy = std::make_unique<QuantizedConv2d>(spec_, packed_, bias_);
  copy->input_params_ = input_params_;
  return copy;
}

common::Json QuantizedConv2d::config() const {
  common::Json cfg{common::JsonObject{}};
  cfg.set("in_channels", spec_.in_channels);
  cfg.set("out_channels", spec_.out_channels);
  cfg.set("kernel", spec_.kernel);
  cfg.set("stride", spec_.stride);
  cfg.set("padding", spec_.padding);
  cfg.set("per_channel", packed_.per_channel());
  cfg.set("weight_zero_point", packed_.weight_zero_point());
  common::JsonArray scales;
  for (float s : packed_.scales()) scales.emplace_back(static_cast<double>(s));
  cfg.set("scales", common::Json{std::move(scales)});
  if (input_params_) {
    cfg.set("input_scale", static_cast<double>(input_params_->scale));
    cfg.set("input_zero_point", input_params_->zero_point);
  }
  return cfg;
}

DepthwiseConv2d::DepthwiseConv2d(Conv2dSpec spec, common::Rng& rng)
    : spec_(spec),
      weights_(conv_weight_init(spec, spec.in_channels, 1, rng)),
      bias_(Shape{spec.in_channels}),
      grad_weights_(weights_.shape()),
      grad_bias_(bias_.shape()) {
  OPENEI_CHECK(spec.out_channels == spec.in_channels || spec.out_channels == 1,
               "depthwise conv: out_channels is implied by in_channels");
  spec_.out_channels = spec_.in_channels;
}

DepthwiseConv2d::DepthwiseConv2d(Conv2dSpec spec, Tensor weights, Tensor bias)
    : spec_(spec),
      weights_(std::move(weights)),
      bias_(std::move(bias)),
      grad_weights_(weights_.shape()),
      grad_bias_(bias_.shape()) {
  spec_.out_channels = spec_.in_channels;
  OPENEI_CHECK(weights_.shape() ==
                   Shape({spec_.in_channels, 1, spec_.kernel, spec_.kernel}),
               "depthwise weight shape mismatch");
  OPENEI_CHECK(bias_.elements() == spec_.in_channels, "depthwise bias size mismatch");
}

Tensor DepthwiseConv2d::forward(const Tensor& input, bool training) {
  if (training) cached_input_ = input;
  return tensor::depthwise_conv2d(input, weights_, bias_, spec_);
}

Tensor DepthwiseConv2d::backward(const Tensor& grad_output) {
  OPENEI_CHECK(cached_input_.shape().rank() == 4,
               "depthwise backward before forward");
  std::size_t n = cached_input_.shape().dim(0);
  std::size_t channels = spec_.in_channels;
  std::size_t in_h = cached_input_.shape().dim(2);
  std::size_t in_w = cached_input_.shape().dim(3);
  std::size_t out_h = spec_.out_size(in_h);
  std::size_t out_w = spec_.out_size(in_w);
  OPENEI_CHECK(grad_output.shape() == Shape({n, channels, out_h, out_w}),
               "depthwise grad_output shape mismatch");

  // Channel-parallel: channel c only touches grad_bias_[c],
  // grad_weights_[c, ...], and grad_input[:, c, ...], and its per-channel
  // accumulation keeps the original ascending-(b, oh, ow) order.
  Tensor grad_input(cached_input_.shape());
  common::parallel_for(
      0, channels,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t c = lo; c < hi; ++c) {
          for (std::size_t b = 0; b < n; ++b) {
            for (std::size_t oh = 0; oh < out_h; ++oh) {
              for (std::size_t ow = 0; ow < out_w; ++ow) {
                float g = grad_output.at4(b, c, oh, ow);
                grad_bias_[c] += g;
                for (std::size_t kh = 0; kh < spec_.kernel; ++kh) {
                  for (std::size_t kw = 0; kw < spec_.kernel; ++kw) {
                    long ih = static_cast<long>(oh * spec_.stride + kh) -
                              static_cast<long>(spec_.padding);
                    long iw = static_cast<long>(ow * spec_.stride + kw) -
                              static_cast<long>(spec_.padding);
                    if (ih < 0 || iw < 0) continue;
                    auto uh = static_cast<std::size_t>(ih);
                    auto uw = static_cast<std::size_t>(iw);
                    if (uh >= in_h || uw >= in_w) continue;
                    grad_weights_.at4(c, 0, kh, kw) +=
                        g * cached_input_.at4(b, c, uh, uw);
                    grad_input.at4(b, c, uh, uw) += g * weights_.at4(c, 0, kh, kw);
                  }
                }
              }
            }
          }
        }
      },
      /*grain=*/1);
  return grad_input;
}

Shape DepthwiseConv2d::output_shape(const Shape& input) const {
  OPENEI_CHECK(input.rank() == 3 && input.dim(0) == spec_.in_channels,
               "depthwise conv expects [C,H,W] with C=", spec_.in_channels);
  return Shape{spec_.in_channels, spec_.out_size(input.dim(1)),
               spec_.out_size(input.dim(2))};
}

std::size_t DepthwiseConv2d::flops(const Shape& input) const {
  Shape out = output_shape(input);
  return 2 * out.elements() * spec_.kernel * spec_.kernel;
}

std::unique_ptr<Layer> DepthwiseConv2d::clone() const {
  return std::make_unique<DepthwiseConv2d>(spec_, weights_, bias_);
}

common::Json DepthwiseConv2d::config() const {
  common::Json cfg{common::JsonObject{}};
  cfg.set("channels", spec_.in_channels);
  cfg.set("kernel", spec_.kernel);
  cfg.set("stride", spec_.stride);
  cfg.set("padding", spec_.padding);
  return cfg;
}

MaxPool2d::MaxPool2d(std::size_t window) : window_(window) {
  OPENEI_CHECK(window > 0, "zero pooling window");
}

Tensor MaxPool2d::forward(const Tensor& input, bool training) {
  if (training) cached_input_shape_ = input.shape();
  return tensor::maxpool2d(input, window_, training ? &winner_flat_ : nullptr);
}

Tensor MaxPool2d::backward(const Tensor& grad_output) {
  OPENEI_CHECK(cached_input_shape_.rank() == 4, "maxpool backward before forward");
  OPENEI_CHECK(grad_output.elements() == winner_flat_.size(),
               "maxpool grad_output size mismatch");
  Tensor grad_input(cached_input_shape_);
  auto gi = grad_input.data();
  auto go = grad_output.data();
  for (std::size_t i = 0; i < winner_flat_.size(); ++i) {
    gi[winner_flat_[i]] += go[i];
  }
  return grad_input;
}

Shape MaxPool2d::output_shape(const Shape& input) const {
  OPENEI_CHECK(input.rank() == 3, "maxpool expects sample shape [C,H,W]");
  OPENEI_CHECK(input.dim(1) >= window_ && input.dim(2) >= window_,
               "maxpool window too large for input");
  return Shape{input.dim(0), input.dim(1) / window_, input.dim(2) / window_};
}

std::unique_ptr<Layer> MaxPool2d::clone() const {
  return std::make_unique<MaxPool2d>(window_);
}

common::Json MaxPool2d::config() const {
  common::Json cfg{common::JsonObject{}};
  cfg.set("window", window_);
  return cfg;
}

AvgPool2d::AvgPool2d(std::size_t window) : window_(window) {
  OPENEI_CHECK(window > 0, "zero pooling window");
}

Tensor AvgPool2d::forward(const Tensor& input, bool training) {
  if (training) cached_input_shape_ = input.shape();
  return tensor::avgpool2d(input, window_);
}

Tensor AvgPool2d::backward(const Tensor& grad_output) {
  OPENEI_CHECK(cached_input_shape_.rank() == 4, "avgpool backward before forward");
  Tensor grad_input(cached_input_shape_);
  std::size_t n = cached_input_shape_.dim(0);
  std::size_t c = cached_input_shape_.dim(1);
  std::size_t out_h = cached_input_shape_.dim(2) / window_;
  std::size_t out_w = cached_input_shape_.dim(3) / window_;
  float inv = 1.0F / static_cast<float>(window_ * window_);
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      for (std::size_t oh = 0; oh < out_h; ++oh) {
        for (std::size_t ow = 0; ow < out_w; ++ow) {
          float g = grad_output.at4(b, ch, oh, ow) * inv;
          for (std::size_t kh = 0; kh < window_; ++kh) {
            for (std::size_t kw = 0; kw < window_; ++kw) {
              grad_input.at4(b, ch, oh * window_ + kh, ow * window_ + kw) += g;
            }
          }
        }
      }
    }
  }
  return grad_input;
}

Shape AvgPool2d::output_shape(const Shape& input) const {
  OPENEI_CHECK(input.rank() == 3, "avgpool expects sample shape [C,H,W]");
  OPENEI_CHECK(input.dim(1) >= window_ && input.dim(2) >= window_,
               "avgpool window too large for input");
  return Shape{input.dim(0), input.dim(1) / window_, input.dim(2) / window_};
}

std::unique_ptr<Layer> AvgPool2d::clone() const {
  return std::make_unique<AvgPool2d>(window_);
}

common::Json AvgPool2d::config() const {
  common::Json cfg{common::JsonObject{}};
  cfg.set("window", window_);
  return cfg;
}

Tensor GlobalAvgPool::forward(const Tensor& input, bool training) {
  if (training) cached_input_shape_ = input.shape();
  return tensor::global_avgpool(input);
}

Tensor GlobalAvgPool::backward(const Tensor& grad_output) {
  OPENEI_CHECK(cached_input_shape_.rank() == 4,
               "global_avgpool backward before forward");
  Tensor grad_input(cached_input_shape_);
  std::size_t n = cached_input_shape_.dim(0);
  std::size_t c = cached_input_shape_.dim(1);
  std::size_t h = cached_input_shape_.dim(2);
  std::size_t w = cached_input_shape_.dim(3);
  float inv = 1.0F / static_cast<float>(h * w);
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      float g = grad_output.at2(b, ch) * inv;
      for (std::size_t hh = 0; hh < h; ++hh) {
        for (std::size_t ww = 0; ww < w; ++ww) {
          grad_input.at4(b, ch, hh, ww) = g;
        }
      }
    }
  }
  return grad_input;
}

Shape GlobalAvgPool::output_shape(const Shape& input) const {
  OPENEI_CHECK(input.rank() == 3, "global_avgpool expects sample shape [C,H,W]");
  return Shape{input.dim(0)};
}

}  // namespace openei::nn
