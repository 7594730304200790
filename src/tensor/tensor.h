// Dense float32 tensor — the numeric substrate under the OpenEI deep-learning
// package (src/nn), the compression suite (src/compress), and the EI
// algorithms (src/eialg).
//
// Value semantics with shared-nothing storage: copying copies the buffer.
// Layout is row-major; images use NCHW.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/aligned.h"
#include "common/error.h"
#include "common/rng.h"
#include "tensor/shape.h"

namespace openei::tensor {

/// Tensor-buffer accounting for one tracking scope (see
/// AllocationTrackingScope).  peak_live_bytes is the high-water mark of
/// live_bytes within the scope — the "peak tensor bytes" a traced span
/// attributes to a forward pass.
struct AllocationStats {
  std::uint64_t allocations = 0;     // tensor buffers brought to life
  std::uint64_t allocated_bytes = 0; // cumulative bytes across them
  std::int64_t live_bytes = 0;       // currently live (may dip negative when
                                     // tensors born before the scope die
                                     // inside it; peak still means peak)
  std::int64_t peak_live_bytes = 0;
};

class AllocationTrackingScope;

namespace detail {
/// Innermost active scope on this thread (nullptr = tracking off, the normal
/// case — every Tensor ctor/dtor pays exactly one thread-local load+branch).
/// constinit tells other translation units that no dynamic initializer runs,
/// so reads skip the TLS wrapper call (whose null return UBSan reported).
extern constinit thread_local AllocationTrackingScope* active_allocation_scope;
void on_tensor_alloc(std::size_t bytes);
void on_tensor_free(std::size_t bytes);
inline void track_alloc(std::size_t bytes) {
  if (active_allocation_scope != nullptr) on_tensor_alloc(bytes);
}
inline void track_free(std::size_t bytes) {
  if (active_allocation_scope != nullptr) on_tensor_free(bytes);
}
}  // namespace detail

/// RAII window during which this thread's tensor buffer traffic is counted.
/// Scopes nest; the innermost one observes (profiling a forward pass inside
/// an already-profiled request attributes bytes to the inner stage).
class AllocationTrackingScope {
 public:
  AllocationTrackingScope() : previous_(detail::active_allocation_scope) {
    detail::active_allocation_scope = this;
  }
  ~AllocationTrackingScope() { detail::active_allocation_scope = previous_; }
  AllocationTrackingScope(const AllocationTrackingScope&) = delete;
  AllocationTrackingScope& operator=(const AllocationTrackingScope&) = delete;

  const AllocationStats& stats() const { return stats_; }

 private:
  friend void detail::on_tensor_alloc(std::size_t);
  friend void detail::on_tensor_free(std::size_t);
  AllocationStats stats_;
  AllocationTrackingScope* previous_;
};

/// Dense row-major float32 tensor.  Storage is 64-byte aligned (one cache
/// line / one 512-bit vector), so the SIMD GEMM and int8 kernels can use
/// aligned vector loads on any tensor buffer.
class Tensor {
 public:
  /// Scalar zero tensor.
  Tensor() : shape_({1}), data_(1, 0.0F) { detail::track_alloc(size_bytes()); }

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape)
      : shape_(std::move(shape)), data_(shape_.elements(), 0.0F) {
    detail::track_alloc(size_bytes());
  }

  /// Tensor with explicit contents (size must match the shape).  The values
  /// are copied into aligned storage.
  Tensor(Shape shape, const std::vector<float>& data)
      : shape_(std::move(shape)), data_(data.begin(), data.end()) {
    OPENEI_CHECK(data_.size() == shape_.elements(), "data size ", data_.size(),
                 " does not match shape ", shape_.to_string());
    detail::track_alloc(size_bytes());
  }

  Tensor(const Tensor& other) : shape_(other.shape_), data_(other.data_) {
    detail::track_alloc(size_bytes());
  }
  /// Moves transfer buffer ownership: no bytes are born or die.  The source
  /// is left empty so its destructor reports zero.
  Tensor(Tensor&& other) noexcept
      : shape_(std::move(other.shape_)), data_(std::move(other.data_)) {
    other.data_.clear();
  }
  Tensor& operator=(const Tensor& other) {
    if (this != &other) {
      detail::track_free(size_bytes());
      shape_ = other.shape_;
      data_ = other.data_;
      detail::track_alloc(size_bytes());
    }
    return *this;
  }
  Tensor& operator=(Tensor&& other) noexcept {
    if (this != &other) {
      detail::track_free(size_bytes());
      shape_ = std::move(other.shape_);
      data_ = std::move(other.data_);
      other.data_.clear();
    }
    return *this;
  }
  ~Tensor() { detail::track_free(size_bytes()); }

  /// Filled tensor.
  static Tensor full(Shape shape, float value);
  static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }
  static Tensor ones(Shape shape) { return full(std::move(shape), 1.0F); }

  /// Uniform random in [lo, hi).
  static Tensor random_uniform(Shape shape, common::Rng& rng, float lo = -1.0F,
                               float hi = 1.0F);
  /// Gaussian random.
  static Tensor random_normal(Shape shape, common::Rng& rng, float mean = 0.0F,
                              float stddev = 1.0F);

  const Shape& shape() const { return shape_; }
  std::size_t elements() const { return data_.size(); }
  std::size_t size_bytes() const { return data_.size() * sizeof(float); }

  std::span<const float> data() const { return data_; }
  std::span<float> data() { return data_; }

  float operator[](std::size_t flat_index) const {
    OPENEI_CHECK(flat_index < data_.size(), "flat index ", flat_index,
                 " out of range ", data_.size());
    return data_[flat_index];
  }
  float& operator[](std::size_t flat_index) {
    OPENEI_CHECK(flat_index < data_.size(), "flat index ", flat_index,
                 " out of range ", data_.size());
    return data_[flat_index];
  }

  /// 2-D accessors (matrix view); require rank 2.
  float at2(std::size_t row, std::size_t col) const;
  float& at2(std::size_t row, std::size_t col);

  /// 4-D accessors (NCHW); require rank 4.
  float at4(std::size_t n, std::size_t c, std::size_t h, std::size_t w) const;
  float& at4(std::size_t n, std::size_t c, std::size_t h, std::size_t w);

  /// Returns a tensor with the same data and a new shape of equal element
  /// count.
  Tensor reshaped(Shape new_shape) const;

  /// In-place elementwise transform.
  Tensor& apply(const std::function<float(float)>& fn);

  /// Elementwise arithmetic (shapes must match exactly).
  Tensor& operator+=(const Tensor& other);
  Tensor& operator-=(const Tensor& other);
  Tensor& operator*=(const Tensor& other);
  Tensor& operator*=(float scalar);
  Tensor& operator+=(float scalar);

  friend Tensor operator+(Tensor lhs, const Tensor& rhs) { return lhs += rhs; }
  friend Tensor operator-(Tensor lhs, const Tensor& rhs) { return lhs -= rhs; }
  friend Tensor operator*(Tensor lhs, const Tensor& rhs) { return lhs *= rhs; }
  friend Tensor operator*(Tensor lhs, float rhs) { return lhs *= rhs; }
  friend Tensor operator*(float lhs, Tensor rhs) { return rhs *= lhs; }

  /// Reductions.
  float sum() const;
  float mean() const;
  float min() const;
  float max() const;
  /// L2 norm.
  float norm() const;
  /// Index of the maximum element (first on ties).
  std::size_t argmax() const;

  /// Count of elements whose magnitude is <= `threshold` (sparsity probe used
  /// by the pruning reports).
  std::size_t count_near_zero(float threshold = 1e-12F) const;

  bool operator==(const Tensor& other) const {
    return shape_ == other.shape_ && data_ == other.data_;
  }

  /// True when all elements differ by at most `tolerance`.
  bool all_close(const Tensor& other, float tolerance = 1e-5F) const;

  std::string to_string(std::size_t max_elements = 16) const;

 private:
  Shape shape_;
  common::aligned_vector<float> data_;
};

}  // namespace openei::tensor
