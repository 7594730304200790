#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>

namespace openei::tensor {

namespace detail {

constinit thread_local AllocationTrackingScope* active_allocation_scope = nullptr;

void on_tensor_alloc(std::size_t bytes) {
  AllocationStats& stats = active_allocation_scope->stats_;
  stats.allocations += 1;
  stats.allocated_bytes += bytes;
  stats.live_bytes += static_cast<std::int64_t>(bytes);
  if (stats.live_bytes > stats.peak_live_bytes) {
    stats.peak_live_bytes = stats.live_bytes;
  }
}

void on_tensor_free(std::size_t bytes) {
  active_allocation_scope->stats_.live_bytes -=
      static_cast<std::int64_t>(bytes);
}

}  // namespace detail

Tensor Tensor::full(Shape shape, float value) {
  Tensor out(std::move(shape));
  std::fill(out.data_.begin(), out.data_.end(), value);
  return out;
}

Tensor Tensor::random_uniform(Shape shape, common::Rng& rng, float lo, float hi) {
  Tensor out(std::move(shape));
  for (float& v : out.data_) v = rng.uniform_float(lo, hi);
  return out;
}

Tensor Tensor::random_normal(Shape shape, common::Rng& rng, float mean, float stddev) {
  Tensor out(std::move(shape));
  for (float& v : out.data_) v = rng.normal_float(mean, stddev);
  return out;
}

float Tensor::at2(std::size_t row, std::size_t col) const {
  OPENEI_CHECK(shape_.rank() == 2, "at2 on rank-", shape_.rank(), " tensor");
  OPENEI_CHECK(row < shape_.dim(0) && col < shape_.dim(1), "index (", row, ",", col,
               ") out of range for ", shape_.to_string());
  return data_[row * shape_.dim(1) + col];
}

float& Tensor::at2(std::size_t row, std::size_t col) {
  OPENEI_CHECK(shape_.rank() == 2, "at2 on rank-", shape_.rank(), " tensor");
  OPENEI_CHECK(row < shape_.dim(0) && col < shape_.dim(1), "index (", row, ",", col,
               ") out of range for ", shape_.to_string());
  return data_[row * shape_.dim(1) + col];
}

float Tensor::at4(std::size_t n, std::size_t c, std::size_t h, std::size_t w) const {
  OPENEI_CHECK(shape_.rank() == 4, "at4 on rank-", shape_.rank(), " tensor");
  const auto& d = shape_.dims();
  OPENEI_CHECK(n < d[0] && c < d[1] && h < d[2] && w < d[3], "NCHW index out of range");
  return data_[((n * d[1] + c) * d[2] + h) * d[3] + w];
}

float& Tensor::at4(std::size_t n, std::size_t c, std::size_t h, std::size_t w) {
  OPENEI_CHECK(shape_.rank() == 4, "at4 on rank-", shape_.rank(), " tensor");
  const auto& d = shape_.dims();
  OPENEI_CHECK(n < d[0] && c < d[1] && h < d[2] && w < d[3], "NCHW index out of range");
  return data_[((n * d[1] + c) * d[2] + h) * d[3] + w];
}

Tensor Tensor::reshaped(Shape new_shape) const {
  OPENEI_CHECK(new_shape.elements() == shape_.elements(), "reshape ",
               shape_.to_string(), " -> ", new_shape.to_string(),
               " changes element count");
  Tensor out(std::move(new_shape));
  std::copy(data_.begin(), data_.end(), out.data_.begin());
  return out;
}

Tensor& Tensor::apply(const std::function<float(float)>& fn) {
  for (float& v : data_) v = fn(v);
  return *this;
}

Tensor& Tensor::operator+=(const Tensor& other) {
  OPENEI_CHECK(shape_ == other.shape_, "shape mismatch ", shape_.to_string(), " vs ",
               other.shape_.to_string());
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Tensor& Tensor::operator-=(const Tensor& other) {
  OPENEI_CHECK(shape_ == other.shape_, "shape mismatch ", shape_.to_string(), " vs ",
               other.shape_.to_string());
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Tensor& Tensor::operator*=(const Tensor& other) {
  OPENEI_CHECK(shape_ == other.shape_, "shape mismatch ", shape_.to_string(), " vs ",
               other.shape_.to_string());
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] *= other.data_[i];
  return *this;
}

Tensor& Tensor::operator*=(float scalar) {
  for (float& v : data_) v *= scalar;
  return *this;
}

Tensor& Tensor::operator+=(float scalar) {
  for (float& v : data_) v += scalar;
  return *this;
}

float Tensor::sum() const {
  double acc = 0.0;
  for (float v : data_) acc += v;
  return static_cast<float>(acc);
}

float Tensor::mean() const { return sum() / static_cast<float>(data_.size()); }

float Tensor::min() const { return *std::min_element(data_.begin(), data_.end()); }

float Tensor::max() const { return *std::max_element(data_.begin(), data_.end()); }

float Tensor::norm() const {
  double acc = 0.0;
  for (float v : data_) acc += static_cast<double>(v) * v;
  return static_cast<float>(std::sqrt(acc));
}

std::size_t Tensor::argmax() const {
  return static_cast<std::size_t>(
      std::max_element(data_.begin(), data_.end()) - data_.begin());
}

std::size_t Tensor::count_near_zero(float threshold) const {
  std::size_t count = 0;
  for (float v : data_) {
    if (std::fabs(v) <= threshold) ++count;
  }
  return count;
}

bool Tensor::all_close(const Tensor& other, float tolerance) const {
  if (shape_ != other.shape_) return false;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    if (std::fabs(data_[i] - other.data_[i]) > tolerance) return false;
  }
  return true;
}

std::string Tensor::to_string(std::size_t max_elements) const {
  std::string out = "Tensor" + shape_.to_string() + " {";
  std::size_t shown = std::min(max_elements, data_.size());
  for (std::size_t i = 0; i < shown; ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(data_[i]);
  }
  if (shown < data_.size()) out += ", ...";
  return out + "}";
}

}  // namespace openei::tensor
