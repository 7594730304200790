#include "nn/batchnorm.h"

#include <cmath>

#include "common/parallel.h"
#include "tensor/ops.h"

namespace openei::nn {

namespace {

/// Per-feature reduction over a rank-2 [N, F] or rank-4 [N, C, H, W] input:
/// accumulate(f, x_i) for every element i belonging to feature f, visited in
/// ascending flat order.  Features own disjoint accumulators and keep the
/// serial visit order, so feature-parallel execution is bit-identical.
template <typename Accumulate>
void for_each_feature(const tensor::Shape& shape, std::size_t features,
                      std::span<const float> x, const Accumulate& accumulate) {
  std::size_t n = shape.dim(0);
  std::size_t hw = shape.rank() == 4 ? shape.dim(2) * shape.dim(3) : 1;
  common::parallel_for(
      0, features,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t f = lo; f < hi; ++f) {
          for (std::size_t b = 0; b < n; ++b) {
            const float* base = x.data() + (b * features + f) * hw;
            for (std::size_t i = 0; i < hw; ++i) accumulate(f, base[i]);
          }
        }
      },
      /*grain=*/1);
}

}  // namespace

BatchNorm::BatchNorm(std::size_t features, float momentum, float epsilon)
    : features_(features),
      momentum_(momentum),
      epsilon_(epsilon),
      gamma_(Tensor::ones(Shape{features})),
      beta_(Shape{features}),
      grad_gamma_(Shape{features}),
      grad_beta_(Shape{features}),
      running_mean_(Shape{features}),
      running_var_(Tensor::ones(Shape{features})) {
  OPENEI_CHECK(features > 0, "batchnorm with zero features");
  OPENEI_CHECK(momentum >= 0.0F && momentum < 1.0F, "bad batchnorm momentum");
}

std::size_t BatchNorm::feature_of(std::size_t flat, const Shape& shape) const {
  if (shape.rank() == 2) return flat % features_;
  // NCHW: feature index is the channel.
  std::size_t hw = shape.dim(2) * shape.dim(3);
  return (flat / hw) % features_;
}

Tensor BatchNorm::forward(const Tensor& input, bool training) {
  const Shape& shape = input.shape();
  OPENEI_CHECK(shape.rank() == 2 || shape.rank() == 4,
               "batchnorm input must be rank 2 or 4");
  std::size_t feature_dim = shape.rank() == 2 ? shape.dim(1) : shape.dim(1);
  OPENEI_CHECK(feature_dim == features_, "batchnorm feature count ", feature_dim,
               " != ", features_);

  std::size_t per_feature = input.elements() / features_;
  auto x = input.data();

  Tensor mean(Shape{features_});
  Tensor var(Shape{features_});
  if (training) {
    for_each_feature(shape, features_, x,
                     [&](std::size_t f, float v) { mean[f] += v; });
    mean *= 1.0F / static_cast<float>(per_feature);
    for_each_feature(shape, features_, x, [&](std::size_t f, float v) {
      float d = v - mean[f];
      var[f] += d * d;
    });
    var *= 1.0F / static_cast<float>(per_feature);
    // Update running estimates.
    for (std::size_t f = 0; f < features_; ++f) {
      running_mean_[f] = momentum_ * running_mean_[f] + (1.0F - momentum_) * mean[f];
      running_var_[f] = momentum_ * running_var_[f] + (1.0F - momentum_) * var[f];
    }
  } else {
    mean = running_mean_;
    var = running_var_;
  }

  Tensor inv_std(Shape{features_});
  for (std::size_t f = 0; f < features_; ++f) {
    inv_std[f] = 1.0F / std::sqrt(var[f] + epsilon_);
  }

  Tensor out(shape);
  std::size_t hw = shape.rank() == 4 ? shape.dim(2) * shape.dim(3) : 1;
  if (training) cached_normalized_ = Tensor(shape);
  tensor::batchnorm_into(x.data(), x.size(), features_, hw, mean.data().data(),
                         inv_std.data().data(), gamma_.data().data(),
                         beta_.data().data(), out.data().data(),
                         training ? cached_normalized_.data().data() : nullptr);

  if (training) {
    cached_batch_inv_std_ = std::move(inv_std);
    cached_shape_ = shape;
    cached_per_feature_ = per_feature;
  }
  return out;
}

Tensor BatchNorm::backward(const Tensor& grad_output) {
  OPENEI_CHECK(cached_per_feature_ > 0, "batchnorm backward before training forward");
  OPENEI_CHECK(grad_output.shape() == cached_shape_,
               "batchnorm grad_output shape mismatch");
  const Shape& shape = cached_shape_;
  auto go = grad_output.data();
  auto xh = cached_normalized_.data();
  auto m = static_cast<float>(cached_per_feature_);

  // Standard BN backward:
  //   dgamma_f = sum(dy * x_hat), dbeta_f = sum(dy)
  //   dx = (gamma * inv_std / m) * (m*dy - dbeta - x_hat*dgamma)
  Tensor sum_dy(Shape{features_});
  Tensor sum_dy_xhat(Shape{features_});
  {
    std::size_t n = shape.dim(0);
    std::size_t hw = shape.rank() == 4 ? shape.dim(2) * shape.dim(3) : 1;
    common::parallel_for(
        0, features_,
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t f = lo; f < hi; ++f) {
            for (std::size_t b = 0; b < n; ++b) {
              std::size_t base = (b * features_ + f) * hw;
              for (std::size_t i = 0; i < hw; ++i) {
                sum_dy[f] += go[base + i];
                sum_dy_xhat[f] += go[base + i] * xh[base + i];
              }
            }
          }
        },
        /*grain=*/1);
  }
  grad_gamma_ += sum_dy_xhat;
  grad_beta_ += sum_dy;

  Tensor grad_input(shape);
  auto gi = grad_input.data();
  common::parallel_for(0, go.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      std::size_t f = feature_of(i, shape);
      gi[i] = gamma_[f] * cached_batch_inv_std_[f] / m *
              (m * go[i] - sum_dy[f] - xh[i] * sum_dy_xhat[f]);
    }
  });
  return grad_input;
}

Shape BatchNorm::output_shape(const Shape& input) const {
  OPENEI_CHECK((input.rank() == 1 && input.dim(0) == features_) ||
                   (input.rank() == 3 && input.dim(0) == features_),
               "batchnorm sample shape mismatch for ", features_, " features");
  return input;
}

std::unique_ptr<Layer> BatchNorm::clone() const {
  auto copy = std::make_unique<BatchNorm>(features_, momentum_, epsilon_);
  copy->gamma_ = gamma_;
  copy->beta_ = beta_;
  copy->running_mean_ = running_mean_;
  copy->running_var_ = running_var_;
  return copy;
}

common::Json BatchNorm::config() const {
  common::Json cfg{common::JsonObject{}};
  cfg.set("features", features_);
  cfg.set("momentum", static_cast<double>(momentum_));
  cfg.set("epsilon", static_cast<double>(epsilon_));
  return cfg;
}

}  // namespace openei::nn
