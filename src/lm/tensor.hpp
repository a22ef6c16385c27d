// Minimal dense float tensor + the handful of kernels the transformer
// needs.  Row-major storage; no BLAS dependency.  At d_model <= 128 the
// working sets live in L1/L2.
//
// Every kernel fixes each output element's add sequence (a dot product
// sums its terms in ascending index order from +0.0f, or from the output's
// current value for the accumulating gradients), so a result is
// bit-identical whichever row block, tail or caller computes it.  The
// compiler may not reassociate a dot product, so a strict-order dot never
// vectorises; the kernels vectorise across output columns instead, by
// running register tiles over row-major or packed [k x 32] panels of the
// right-hand operand.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace lmpeel::lm {

class Tensor {
 public:
  Tensor() = default;
  Tensor(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t size() const noexcept { return data_.size(); }

  float* data() noexcept { return data_.data(); }
  const float* data() const noexcept { return data_.data(); }
  float& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  float at(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }
  std::span<float> row(std::size_t r) {
    return std::span<float>(data_).subspan(r * cols_, cols_);
  }
  std::span<const float> row(std::size_t r) const {
    return std::span<const float>(data_).subspan(r * cols_, cols_);
  }

  void zero() { std::fill(data_.begin(), data_.end(), 0.0f); }

  /// Kaiming/Xavier-ish init: N(0, std).
  void randomize(util::Rng& rng, float std);

 private:
  std::size_t rows_ = 0, cols_ = 0;
  std::vector<float> data_;
};

// out[M,N] = a[M,K] * b[K,N]
void matmul(const Tensor& a, const Tensor& b, Tensor& out);
// out[M,N] = a[M,K] * bt^T where bt is [N,K] row-major.  out(i, j)
// accumulates a(i, c) * bt(j, c) for c ascending — bit-identical to the
// naive per-element dot product (this is the batched tied-head kernel).
void matmul_transposed_b(const Tensor& a, const Tensor& bt, Tensor& out);
// da[M,K] += grad[M,N] * b^T[N,K]   (dA of matmul).  The same packed
// kernel as matmul_transposed_b; each finished dot is added to da once.
void matmul_grad_a(const Tensor& grad, const Tensor& b, Tensor& da);
// db[K,N] += a^T * grad             (dB of matmul).  db(kk, j) adds
// a(i, kk) * grad(i, j) for i ascending, zero terms included.
void matmul_grad_b(const Tensor& a, const Tensor& grad, Tensor& db);

/// y = x * gamma + beta after per-row standardisation; returns cached
/// inverse-stddev and means needed for the backward pass.
struct LayerNormCache {
  std::vector<float> mean;
  std::vector<float> inv_std;
};
void layer_norm(const Tensor& x, std::span<const float> gamma,
                std::span<const float> beta, Tensor& y, LayerNormCache& cache);
void layer_norm_backward(const Tensor& x, std::span<const float> gamma,
                         const Tensor& dy, const LayerNormCache& cache,
                         Tensor& dx, std::span<float> dgamma,
                         std::span<float> dbeta);

/// GELU (tanh approximation): y = 0.5 x (1 + tanh(u)),
/// u = sqrt(2/pi) (x + 0.044715 x^3).
void gelu(const Tensor& x, Tensor& y);
/// out = gelu(x) * w, bit-identical to gelu then matmul, without holding
/// gelu(x) for more than a few rows at a time; tanh_u receives tanh(u).
/// Training evaluates tanh once per element this way: the backward
/// rebuilds gelu(x) with gelu_from_tanh (bit-identical to gelu) and takes
/// the derivative from the same tanh(u).
void gelu_matmul(const Tensor& x, const Tensor& w, Tensor& out,
                 Tensor& tanh_u);
void gelu_from_tanh(const Tensor& x, const Tensor& tanh_u, Tensor& y);
/// dx += dy * gelu'(x), given the forward's tanh(u).
void gelu_backward(const Tensor& x, const Tensor& tanh_u, const Tensor& dy,
                   Tensor& dx);

/// Row-wise softmax in place.
void softmax_rows(Tensor& x);

}  // namespace lmpeel::lm
