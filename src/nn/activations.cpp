#include "nn/activations.h"

#include "common/parallel.h"
#include "tensor/ops.h"

namespace openei::nn {

namespace {

/// Elementwise map over a tensor's flat storage, batch-parallel.  Each index
/// is written by exactly one chunk, so results are bit-identical at any
/// thread count.
template <typename Fn>
void parallel_elementwise(std::span<float> data, const Fn& fn) {
  common::parallel_for(0, data.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) fn(i);
  });
}

}  // namespace

Tensor Relu::forward(const Tensor& input, bool training) {
  if (training) cached_input_ = input;
  Tensor out(input.shape());
  tensor::relu_into(input.data().data(), input.elements(), out.data().data());
  return out;
}

Tensor Relu::backward(const Tensor& grad_output) {
  OPENEI_CHECK(cached_input_.shape() == grad_output.shape(),
               "relu backward shape mismatch");
  Tensor grad = grad_output;
  auto g = grad.data();
  auto x = cached_input_.data();
  parallel_elementwise(g, [&](std::size_t i) {
    if (x[i] <= 0.0F) g[i] = 0.0F;
  });
  return grad;
}

Tensor Sigmoid::forward(const Tensor& input, bool training) {
  Tensor out(input.shape());
  tensor::sigmoid_into(input.data().data(), input.elements(), out.data().data());
  if (training) cached_output_ = out;
  return out;
}

Tensor Sigmoid::backward(const Tensor& grad_output) {
  OPENEI_CHECK(cached_output_.shape() == grad_output.shape(),
               "sigmoid backward shape mismatch");
  Tensor grad = grad_output;
  auto g = grad.data();
  auto y = cached_output_.data();
  parallel_elementwise(g, [&](std::size_t i) { g[i] *= y[i] * (1.0F - y[i]); });
  return grad;
}

Tensor Tanh::forward(const Tensor& input, bool training) {
  Tensor out(input.shape());
  tensor::tanh_into(input.data().data(), input.elements(), out.data().data());
  if (training) cached_output_ = out;
  return out;
}

Tensor Tanh::backward(const Tensor& grad_output) {
  OPENEI_CHECK(cached_output_.shape() == grad_output.shape(),
               "tanh backward shape mismatch");
  Tensor grad = grad_output;
  auto g = grad.data();
  auto y = cached_output_.data();
  parallel_elementwise(g, [&](std::size_t i) { g[i] *= 1.0F - y[i] * y[i]; });
  return grad;
}

Tensor Flatten::forward(const Tensor& input, bool training) {
  OPENEI_CHECK(input.shape().rank() >= 2, "flatten input must have a batch dim");
  if (training) cached_input_shape_ = input.shape();
  std::size_t n = input.shape().dim(0);
  return input.reshaped(Shape{n, input.elements() / n});
}

Tensor Flatten::backward(const Tensor& grad_output) {
  OPENEI_CHECK(cached_input_shape_.rank() >= 2, "flatten backward before forward");
  return grad_output.reshaped(cached_input_shape_);
}

Dropout::Dropout(float rate, std::uint64_t seed)
    : rate_(rate), seed_(seed), rng_(seed) {
  OPENEI_CHECK(rate >= 0.0F && rate < 1.0F, "dropout rate ", rate,
               " outside [0, 1)");
}

Tensor Dropout::forward(const Tensor& input, bool training) {
  if (!training || rate_ == 0.0F) return input;
  mask_ = Tensor(input.shape());
  float keep = 1.0F - rate_;
  auto m = mask_.data();
  for (std::size_t i = 0; i < m.size(); ++i) {
    m[i] = rng_.flip(rate_) ? 0.0F : 1.0F / keep;
  }
  return input * mask_;
}

Tensor Dropout::backward(const Tensor& grad_output) {
  if (rate_ == 0.0F) return grad_output;
  OPENEI_CHECK(mask_.shape() == grad_output.shape(), "dropout backward shape mismatch");
  return grad_output * mask_;
}

std::unique_ptr<Layer> Dropout::clone() const {
  return std::make_unique<Dropout>(rate_, seed_);
}

common::Json Dropout::config() const {
  common::Json cfg{common::JsonObject{}};
  cfg.set("rate", static_cast<double>(rate_));
  cfg.set("seed", static_cast<std::int64_t>(seed_));
  return cfg;
}

}  // namespace openei::nn
