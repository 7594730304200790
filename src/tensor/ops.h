// Tensor kernels used by the NN engine.
//
// Convolution is implemented both directly and via im2col+matmul; the two
// paths are property-tested for equivalence and the matmul path is what the
// FLOP-based hardware cost model (src/hwsim) assumes.
//
// Each inference op has one raw-pointer `*_into` kernel, called by the Tensor
// ops and nn layers, by the forward arena (runtime/arena.h) and by the
// quantized conv, so Model::forward and the served path compute the same
// values in the same order, bit-identical at any thread count.
#pragma once

#include <cstddef>

#include "tensor/tensor.h"

namespace openei::tensor {

class PackedMatrix;  // tensor/pack.h

/// C = A(mxk) * B(kxn).  Rank-2 inputs required.
Tensor matmul(const Tensor& a, const Tensor& b);

/// Transpose of a rank-2 tensor.
Tensor transpose(const Tensor& a);

/// Adds a rank-1 bias of size `cols` to every row of a rank-2 tensor.
Tensor add_row_bias(const Tensor& a, const Tensor& bias);

/// Convolution geometry (square kernels, symmetric stride/padding).
struct Conv2dSpec {
  std::size_t in_channels = 1;
  std::size_t out_channels = 1;
  std::size_t kernel = 3;
  std::size_t stride = 1;
  std::size_t padding = 0;

  /// Output spatial size for an input of `in` pixels; throws when the
  /// geometry does not fit.
  std::size_t out_size(std::size_t in) const;
};

/// Direct 2-D convolution.  input: NCHW, weights: [out_c, in_c, k, k],
/// bias: [out_c].  Returns NCHW.
Tensor conv2d(const Tensor& input, const Tensor& weights, const Tensor& bias,
              const Conv2dSpec& spec);

/// im2col patch extraction: input NCHW -> [N*out_h*out_w, in_c*k*k].
Tensor im2col(const Tensor& input, const Conv2dSpec& spec);

/// Raw-buffer im2col into a caller-provided [n*out_h*out_w, in_c*k*k] buffer
/// (no allocation — the form the forward arena uses; `im2col` delegates
/// here, so the two produce identical values).
void im2col_into(const float* input, std::size_t n, std::size_t in_h,
                 std::size_t in_w, const Conv2dSpec& spec, float* out);

/// Scatters a GEMM result [n*pixels, channels] back to NCHW
/// [n, channels, pixels].
void scatter_nchw_into(const float* src, std::size_t n, std::size_t pixels,
                       std::size_t channels, float* out);

/// im2col -> gemm_packed (bias, optional ReLU fused) -> NCHW scatter, with
/// `weights` the [patch, out_c] packing; `patches` holds [n*oh*ow, patch]
/// floats and `gemm_scratch` [n*oh*ow, out_c].
void conv2d_packed_into(const float* input, std::size_t n, std::size_t in_h,
                        std::size_t in_w, const Conv2dSpec& spec,
                        const PackedMatrix& weights, const float* bias,
                        bool fuse_relu, float* patches, float* gemm_scratch,
                        float* out);

/// Convolution via im2col + matmul; numerically equivalent to conv2d().
/// Packs the weights per call and runs conv2d_packed_into.
Tensor conv2d_im2col(const Tensor& input, const Tensor& weights, const Tensor& bias,
                     const Conv2dSpec& spec);

/// Depthwise conv over NCHW input; weights [C, 1, k, k], bias [C].
void depthwise_conv2d_into(const float* input, std::size_t n, std::size_t in_h,
                           std::size_t in_w, const Conv2dSpec& spec,
                           const float* weights, const float* bias, float* out);

/// Depthwise convolution: weights [channels, 1, k, k], one filter per input
/// channel (the MobileNet building block, paper Sec. IV-A2).
Tensor depthwise_conv2d(const Tensor& input, const Tensor& weights, const Tensor& bias,
                        const Conv2dSpec& spec);

/// Max pooling over `planes` h x w planes, window == stride; `winners`, when
/// non-null, receives each output's flat input index (first maximum wins).
void maxpool2d_into(const float* input, std::size_t planes, std::size_t h,
                    std::size_t w, std::size_t window, float* out,
                    std::size_t* winners = nullptr);

/// Average pooling over `planes` h x w planes, window == stride.
void avgpool2d_into(const float* input, std::size_t planes, std::size_t h,
                    std::size_t w, std::size_t window, float* out);

/// Mean of each of `planes` planes of `hw` elements.
void global_avgpool_into(const float* input, std::size_t planes, std::size_t hw,
                         float* out);

/// out = gamma[f] * ((x - mean[f]) * inv_std[f]) + beta[f] with
/// f = (i / hw) % features; `normalized`, when non-null, receives x_hat.
void batchnorm_into(const float* x, std::size_t count, std::size_t features,
                    std::size_t hw, const float* mean, const float* inv_std,
                    const float* gamma, const float* beta, float* out,
                    float* normalized = nullptr);

/// Elementwise kernels over `count` floats; `out` may alias an input.
void relu_into(const float* in, std::size_t count, float* out);
void sigmoid_into(const float* in, std::size_t count, float* out);
void tanh_into(const float* in, std::size_t count, float* out);
void add_into(const float* a, const float* b, std::size_t count, float* out);

/// 2-D max pooling over NCHW with square window and stride == window.
/// `winners`, when non-null, is filled as in maxpool2d_into.
Tensor maxpool2d(const Tensor& input, std::size_t window,
                 std::vector<std::size_t>* winners = nullptr);

/// 2-D average pooling over NCHW with square window and stride == window.
Tensor avgpool2d(const Tensor& input, std::size_t window);

/// Global average pooling: NCHW -> [N, C].
Tensor global_avgpool(const Tensor& input);

/// Row-wise softmax of a rank-2 tensor (numerically stabilized).
Tensor softmax_rows(const Tensor& logits);

/// One-hot encodes labels into a [n, classes] matrix.
Tensor one_hot(const std::vector<std::size_t>& labels, std::size_t classes);

/// Concatenates rank-2 tensors along rows (equal column counts).
Tensor concat_rows(const std::vector<Tensor>& parts);

/// Extracts rows [begin, end) of a rank-2 tensor.
Tensor slice_rows(const Tensor& a, std::size_t begin, std::size_t end);

}  // namespace openei::tensor
