#include "runtime/inference.h"

#include <algorithm>

#include "common/error.h"
#include "nn/dense.h"

namespace openei::runtime {

InferenceSession::InferenceSession(nn::Model model, hwsim::PackageSpec package,
                                   hwsim::DeviceProfile device)
    : model_(std::move(model)),
      package_(std::move(package)),
      device_(std::move(device)) {
  per_sample_ = hwsim::estimate_inference(model_, package_, device_);
  if (per_sample_.memory_bytes > device_.ram_bytes) {
    throw ResourceExhausted(detail::concat(
        "model '", model_.name(), "' needs ", per_sample_.memory_bytes,
        " bytes but device '", device_.name, "' has ", device_.ram_bytes));
  }
  // Pre-plan the zero-alloc forward arena; single-sample buffers are grown
  // here so a steady-state run(1-row batch) never touches the heap.
  arena_ = ForwardArena::plan(model_);
  if (arena_ != nullptr) {
    arena_->reserve(1);
    arena_mutex_ = std::make_unique<std::mutex>();
  }
}

InferenceResult InferenceSession::run_rows(const float* rows_data,
                                           std::size_t rows) {
  OPENEI_CHECK(rows > 0, "run_rows of zero rows");
  InferenceResult result;
  bool done = false;
  if (arena_ != nullptr) {
    std::unique_lock<std::mutex> lock(*arena_mutex_, std::try_to_lock);
    if (lock.owns_lock()) {
      result.predictions.resize(rows);
      arena_->predict(rows_data, rows, result.predictions.data());
      done = true;
    }
  }
  if (!done) {
    // Fallback (no arena, or another thread holds it): stage into a Tensor
    // and run the layer path — bit-identical values, just not alloc-free.
    std::vector<std::size_t> dims{rows};
    for (std::size_t d : model_.input_shape().dims()) dims.push_back(d);
    nn::Tensor batch{tensor::Shape(dims)};
    auto out = batch.data();
    std::copy(rows_data, rows_data + out.size(), out.begin());
    result.predictions = model_.predict(batch);
  }
  result.per_sample = per_sample_;
  auto n = static_cast<double>(rows);
  result.batch_latency_s = per_sample_.latency_s * n;
  result.batch_energy_j = per_sample_.energy_j * n;
  return result;
}

InferenceResult InferenceSession::run(const nn::Tensor& batch) {
  InferenceResult result;
  std::size_t rows = batch.shape().dim(0);
  bool done = false;
  if (arena_ != nullptr && batch.elements() == rows * arena_->input_elems()) {
    std::unique_lock<std::mutex> lock(*arena_mutex_, std::try_to_lock);
    if (lock.owns_lock()) {
      result.predictions.resize(rows);
      arena_->predict(batch.data().data(), rows, result.predictions.data());
      done = true;
    }
  }
  if (!done) result.predictions = model_.predict(batch);
  result.per_sample = per_sample_;
  auto n = static_cast<double>(batch.shape().dim(0));
  result.batch_latency_s = per_sample_.latency_s * n;
  result.batch_energy_j = per_sample_.energy_j * n;
  return result;
}

std::vector<InferenceResult> InferenceSession::predict_batch(
    const std::vector<nn::Tensor>& requests) {
  OPENEI_CHECK(!requests.empty(), "predict_batch of zero requests");
  std::size_t sample_elems = model_.input_shape().elements();
  std::size_t total_rows = 0;
  for (const nn::Tensor& request : requests) {
    OPENEI_CHECK(request.shape().rank() >= 2, "request needs a batch dim");
    OPENEI_CHECK(request.elements() ==
                     request.shape().dim(0) * sample_elems,
                 "request sample shape does not match model input");
    total_rows += request.shape().dim(0);
  }

  // Arena path: stage fused rows into a grow-only scratch vector and run the
  // pre-planned executor — no Tensor construction, so steady-state batched
  // inference stays allocation-free.  Values are bit-identical to the Tensor
  // path (each arena step calls the kernel its layer's forward calls).
  std::vector<std::size_t> fused_predictions;
  bool done = false;
  if (arena_ != nullptr) {
    std::unique_lock<std::mutex> lock(*arena_mutex_, std::try_to_lock);
    if (lock.owns_lock()) {
      if (fused_staging_.size() < total_rows * sample_elems) {
        fused_staging_.resize(total_rows * sample_elems);
      }
      std::size_t offset = 0;
      for (const nn::Tensor& request : requests) {
        auto in = request.data();
        std::copy(in.begin(), in.end(), fused_staging_.begin() + offset);
        offset += in.size();
      }
      if (pred_staging_.size() < total_rows) pred_staging_.resize(total_rows);
      arena_->predict(fused_staging_.data(), total_rows, pred_staging_.data());
      fused_predictions.assign(pred_staging_.begin(),
                               pred_staging_.begin() + total_rows);
      done = true;
    }
  }
  if (!done) {
    std::vector<std::size_t> dims{total_rows};
    for (std::size_t d : model_.input_shape().dims()) dims.push_back(d);
    nn::Tensor fused{tensor::Shape(dims)};
    auto out = fused.data();
    std::size_t offset = 0;
    for (const nn::Tensor& request : requests) {
      auto in = request.data();
      std::copy(in.begin(), in.end(), out.begin() + offset);
      offset += in.size();
    }
    fused_predictions = model_.predict(fused);
  }

  std::vector<InferenceResult> results;
  results.reserve(requests.size());
  std::size_t row = 0;
  for (const nn::Tensor& request : requests) {
    std::size_t rows = request.shape().dim(0);
    InferenceResult slice;
    slice.predictions.assign(fused_predictions.begin() + row,
                             fused_predictions.begin() + row + rows);
    slice.per_sample = per_sample_;
    slice.batch_latency_s = per_sample_.latency_s * static_cast<double>(rows);
    slice.batch_energy_j = per_sample_.energy_j * static_cast<double>(rows);
    results.push_back(std::move(slice));
    row += rows;
  }
  return results;
}

nn::Tensor InferenceSession::forward(const nn::Tensor& batch) {
  return model_.forward(batch, /*training=*/false);
}

LocalTrainingResult retrain_head_locally(const nn::Model& model,
                                         const data::Dataset& local_data,
                                         const hwsim::PackageSpec& package,
                                         const hwsim::DeviceProfile& device,
                                         const nn::TrainOptions& options) {
  OPENEI_CHECK(package.supports_training, "package '", package.name,
               "' cannot train on-device");
  local_data.check();

  LocalTrainingResult result{model.clone(), 0.0, 0.0, 0.0};

  // Freeze everything except the final trainable (dense-like) layer's
  // parameters — transfer learning retrains the head only.
  std::size_t total_params = result.model.parameters().size();
  std::size_t head_params = 0;
  for (std::size_t i = result.model.layer_count(); i-- > 0;) {
    auto& layer = result.model.layer(i);
    std::size_t count = layer.parameters().size();
    if (count > 0) {
      head_params = count;
      break;
    }
  }
  OPENEI_CHECK(head_params > 0, "model has no trainable parameters");

  nn::TrainOptions frozen_options = options;
  frozen_options.frozen_parameters.clear();
  for (std::size_t i = 0; i + head_params < total_params; ++i) {
    frozen_options.frozen_parameters.push_back(i);
  }

  auto history = nn::fit(result.model, local_data, frozen_options);
  result.final_train_accuracy = history.back().train_accuracy;

  hwsim::InferenceCost cost = hwsim::estimate_training(
      result.model, package, device, local_data.size(), options.epochs);
  result.simulated_latency_s = cost.latency_s;
  result.simulated_energy_j = cost.energy_j;
  return result;
}

namespace {

/// Decodes rows into `out` ([rows * sample_elems], already sized); shared
/// by the Tensor and the allocation-free decoders.
void decode_rows(const common::JsonArray& outer, bool nested, std::size_t rows,
                 std::size_t sample_elems, float* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    const common::JsonArray& row = nested ? outer[r].as_array() : outer;
    if (row.size() != sample_elems) {
      throw ParseError("input row has " + std::to_string(row.size()) +
                       " values; model expects " + std::to_string(sample_elems));
    }
    for (std::size_t j = 0; j < sample_elems; ++j) {
      out[r * sample_elems + j] = static_cast<float>(row[j].as_number());
    }
  }
}

}  // namespace

nn::Tensor rows_to_batch(const common::Json& input,
                         const tensor::Shape& sample_shape) {
  const common::JsonArray& outer = input.as_array();
  if (outer.empty()) throw ParseError("empty inference input");

  bool nested = outer[0].is_array();
  std::size_t rows = nested ? outer.size() : 1;
  std::size_t sample_elems = sample_shape.elements();

  std::vector<std::size_t> dims{rows};
  for (std::size_t d : sample_shape.dims()) dims.push_back(d);
  nn::Tensor batch{tensor::Shape(dims)};
  decode_rows(outer, nested, rows, sample_elems, batch.data().data());
  return batch;
}

std::size_t rows_to_floats(const common::Json& input,
                           const tensor::Shape& sample_shape,
                           std::vector<float>& out) {
  const common::JsonArray& outer = input.as_array();
  if (outer.empty()) throw ParseError("empty inference input");

  bool nested = outer[0].is_array();
  std::size_t rows = nested ? outer.size() : 1;
  std::size_t sample_elems = sample_shape.elements();
  if (out.size() < rows * sample_elems) out.resize(rows * sample_elems);
  decode_rows(outer, nested, rows, sample_elems, out.data());
  return rows;
}

}  // namespace openei::runtime
