#include "eialg/fastgrnn.h"

#include <algorithm>
#include <cmath>

#include "tensor/ops.h"

namespace openei::eialg {

using tensor::Shape;

struct FastGrnn::StepCache {
  Tensor x;  // [N, D] input at this step
  Tensor h_prev;
  Tensor z;  // gate
  Tensor c;  // candidate
};

FastGrnn::FastGrnn(FastGrnnOptions options) : options_(options) {
  OPENEI_CHECK(options.steps > 1 && options.input_dims > 0 && options.hidden > 0,
               "bad FastGRNN geometry");
  OPENEI_CHECK(options.learning_rate > 0.0F, "non-positive learning rate");
}

namespace {

Tensor slice_step(const Tensor& features, std::size_t step, std::size_t dims) {
  std::size_t n = features.shape().dim(0);
  Tensor out(Shape{n, dims});
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t d = 0; d < dims; ++d) {
      out.at2(i, d) = features.at2(i, step * dims + d);
    }
  }
  return out;
}

float sigmoid(float v) { return 1.0F / (1.0F + std::exp(-v)); }

}  // namespace

Tensor FastGrnn::run(const Tensor& features, std::vector<StepCache>* caches) const {
  std::size_t n = features.shape().dim(0);
  std::size_t h_dim = options_.hidden;
  Tensor h(Shape{n, h_dim});
  for (std::size_t t = 0; t < options_.steps; ++t) {
    Tensor x = slice_step(features, t, options_.input_dims);
    Tensor pre = tensor::matmul(x, w_) + tensor::matmul(h, u_);  // shared W, U
    Tensor z(Shape{n, h_dim});
    Tensor c(Shape{n, h_dim});
    Tensor h_next(Shape{n, h_dim});
    for (std::size_t i = 0; i < n * h_dim; ++i) {
      std::size_t col = i % h_dim;
      z[i] = sigmoid(pre[i] + b_z_[col]);
      c[i] = std::tanh(pre[i] + b_c_[col]);
      h_next[i] = (options_.zeta * (1.0F - z[i]) + options_.nu) * c[i] + z[i] * h[i];
    }
    if (caches != nullptr) {
      (*caches)[t] = StepCache{std::move(x), h, z, c};
    }
    h = std::move(h_next);
  }
  return h;
}

void FastGrnn::fit(const data::Dataset& train) {
  train.check();
  std::size_t expected = options_.steps * options_.input_dims;
  OPENEI_CHECK(train.features.shape().rank() == 2 &&
                   train.features.shape().dim(1) == expected,
               "FastGRNN expects [N, ", expected, "] flattened sequences");
  classes_ = train.classes;

  common::Rng rng(options_.seed);
  std::size_t h_dim = options_.hidden;
  float in_scale = 1.0F / std::sqrt(static_cast<float>(options_.input_dims));
  float h_scale = 1.0F / std::sqrt(static_cast<float>(h_dim));
  w_ = Tensor::random_uniform(Shape{options_.input_dims, h_dim}, rng, -in_scale,
                              in_scale);
  u_ = Tensor::random_uniform(Shape{h_dim, h_dim}, rng, -h_scale, h_scale);
  b_z_ = Tensor::ones(Shape{h_dim});  // bias gates open: remember by default
  b_c_ = Tensor(Shape{h_dim});
  readout_ = Tensor::random_uniform(Shape{h_dim, classes_}, rng, -h_scale, h_scale);
  readout_bias_ = Tensor(Shape{classes_});

  for (std::size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    auto perm = rng.permutation(train.size());
    for (std::size_t begin = 0; begin < train.size();
         begin += options_.batch_size) {
      std::size_t end = std::min(begin + options_.batch_size, train.size());
      std::vector<std::size_t> idx(perm.begin() + static_cast<std::ptrdiff_t>(begin),
                                   perm.begin() + static_cast<std::ptrdiff_t>(end));
      data::Dataset batch = train.select(idx);
      std::size_t n = batch.size();

      std::vector<StepCache> caches(options_.steps);
      Tensor h_final = run(batch.features, &caches);
      Tensor logits = tensor::add_row_bias(tensor::matmul(h_final, readout_),
                                           readout_bias_);

      // Softmax CE gradient on logits.
      Tensor probs = tensor::softmax_rows(logits);
      Tensor grad_logits = probs;
      for (std::size_t i = 0; i < n; ++i) {
        grad_logits.at2(i, batch.labels[i]) -= 1.0F;
      }
      grad_logits *= 1.0F / static_cast<float>(n);

      // Readout gradients + gradient into h_T.
      Tensor grad_readout =
          tensor::matmul(tensor::transpose(h_final), grad_logits);
      Tensor grad_readout_bias(Shape{classes_});
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t c = 0; c < classes_; ++c) {
          grad_readout_bias[c] += grad_logits.at2(i, c);
        }
      }
      Tensor grad_h = tensor::matmul(grad_logits, tensor::transpose(readout_));

      // BPTT through the shared-weight recurrence.
      Tensor grad_w(w_.shape());
      Tensor grad_u(u_.shape());
      Tensor grad_b_z(b_z_.shape());
      Tensor grad_b_c(b_c_.shape());
      std::size_t supervision_begin = options_.steps / 2;
      for (std::size_t t = options_.steps; t-- > 0;) {
        const StepCache& cache = caches[t];

        // EMI-style auxiliary supervision: inject a readout CE gradient at
        // intermediate hidden states h_t (t in [steps/2, last)), so the
        // early-exit readout is trained where it will be queried.
        if (options_.early_exit_supervision > 0.0F && t + 1 < options_.steps &&
            t + 1 >= supervision_begin) {
          const Tensor& h_t = caches[t + 1].h_prev;  // output of step t
          Tensor aux_logits = tensor::add_row_bias(
              tensor::matmul(h_t, readout_), readout_bias_);
          Tensor aux_grad = tensor::softmax_rows(aux_logits);
          for (std::size_t i = 0; i < n; ++i) {
            aux_grad.at2(i, batch.labels[i]) -= 1.0F;
          }
          aux_grad *= options_.early_exit_supervision / static_cast<float>(n);
          grad_readout += tensor::matmul(tensor::transpose(h_t), aux_grad);
          for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t c = 0; c < classes_; ++c) {
              grad_readout_bias[c] += aux_grad.at2(i, c);
            }
          }
          grad_h += tensor::matmul(aux_grad, tensor::transpose(readout_));
        }
        Tensor grad_pre(Shape{n, h_dim});
        Tensor grad_h_prev(Shape{n, h_dim});
        for (std::size_t i = 0; i < n * h_dim; ++i) {
          std::size_t col = i % h_dim;
          float z = cache.z[i];
          float c = cache.c[i];
          float a = options_.zeta * (1.0F - z) + options_.nu;
          float dh = grad_h[i];
          float dc = dh * a;
          float dz = dh * (-options_.zeta * c + cache.h_prev[i]);
          float dpre_c = dc * (1.0F - c * c);
          float dpre_z = dz * z * (1.0F - z);
          grad_pre[i] = dpre_c + dpre_z;
          grad_b_c[col] += dpre_c;
          grad_b_z[col] += dpre_z;
          grad_h_prev[i] = dh * z;
        }
        grad_w += tensor::matmul(tensor::transpose(cache.x), grad_pre);
        grad_u += tensor::matmul(tensor::transpose(cache.h_prev), grad_pre);
        grad_h = grad_h_prev + tensor::matmul(grad_pre, tensor::transpose(u_));
      }

      float lr = options_.learning_rate;
      w_ -= grad_w * lr;
      u_ -= grad_u * lr;
      b_z_ -= grad_b_z * lr;
      b_c_ -= grad_b_c * lr;
      readout_ -= grad_readout * lr;
      readout_bias_ -= grad_readout_bias * lr;
    }
  }
}

std::vector<std::size_t> FastGrnn::predict(const Tensor& features) const {
  OPENEI_CHECK(classes_ > 0, "predict before fit");
  Tensor h = run(features, nullptr);
  Tensor logits = tensor::add_row_bias(tensor::matmul(h, readout_), readout_bias_);
  std::size_t n = logits.shape().dim(0);
  std::vector<std::size_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t best = 0;
    for (std::size_t c = 1; c < classes_; ++c) {
      if (logits.at2(i, c) > logits.at2(i, best)) best = c;
    }
    out[i] = best;
  }
  return out;
}

FastGrnn::EarlyResult FastGrnn::predict_early(const Tensor& features,
                                              float confidence_threshold,
                                              std::size_t min_steps) const {
  OPENEI_CHECK(classes_ > 0, "predict before fit");
  OPENEI_CHECK(confidence_threshold > 0.0F && confidence_threshold <= 1.0F,
               "confidence threshold outside (0, 1]");
  if (min_steps == 0) min_steps = options_.steps / 2;
  OPENEI_CHECK(min_steps <= options_.steps, "min_steps beyond sequence length");
  std::size_t n = features.shape().dim(0);
  std::size_t h_dim = options_.hidden;

  EarlyResult result;
  result.predictions.assign(n, 0);
  std::vector<bool> done(n, false);
  std::size_t total_steps = 0;

  Tensor h(Shape{n, h_dim});
  for (std::size_t t = 0; t < options_.steps; ++t) {
    // One recurrence step for every still-active sequence (the batch keeps
    // full width; finished rows are simply ignored — the accounting below
    // charges only active rows).
    Tensor x = slice_step(features, t, options_.input_dims);
    Tensor pre = tensor::matmul(x, w_) + tensor::matmul(h, u_);
    for (std::size_t i = 0; i < n * h_dim; ++i) {
      std::size_t col = i % h_dim;
      float z = sigmoid(pre[i] + b_z_[col]);
      float c = std::tanh(pre[i] + b_c_[col]);
      h[i] = (options_.zeta * (1.0F - z) + options_.nu) * c + z * h[i];
    }

    Tensor logits = tensor::add_row_bias(tensor::matmul(h, readout_),
                                         readout_bias_);
    Tensor probabilities = tensor::softmax_rows(logits);
    bool last_step = t + 1 == options_.steps;
    bool may_exit = t + 1 >= min_steps;
    for (std::size_t i = 0; i < n; ++i) {
      if (done[i]) continue;
      ++total_steps;
      float best = 0.0F;
      std::size_t arg = 0;
      for (std::size_t c = 0; c < classes_; ++c) {
        if (probabilities.at2(i, c) > best) {
          best = probabilities.at2(i, c);
          arg = c;
        }
      }
      if ((may_exit && best >= confidence_threshold) || last_step) {
        result.predictions[i] = arg;
        done[i] = true;
      }
    }
  }
  result.mean_steps_fraction =
      static_cast<double>(total_steps) /
      static_cast<double>(n * options_.steps);
  return result;
}

std::size_t FastGrnn::param_count() const {
  return w_.elements() + u_.elements() + b_z_.elements() + b_c_.elements() +
         readout_.elements() + readout_bias_.elements();
}

std::size_t FastGrnn::model_size_bytes() const {
  return param_count() * sizeof(float);
}

std::size_t FastGrnn::flops_per_sample() const {
  std::size_t per_step = 2 * options_.input_dims * options_.hidden +
                         2 * options_.hidden * options_.hidden +
                         8 * options_.hidden;
  return options_.steps * per_step + 2 * options_.hidden * classes_;
}

}  // namespace openei::eialg
