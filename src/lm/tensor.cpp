// Shape checks and scratch for the dense kernels; the loops themselves
// run in the dispatched per-arch copy (lm/f32_kernels.hpp).
#include "lm/tensor.hpp"

#include <vector>

#include "lm/f32_kernels.hpp"
#include "util/check.hpp"

namespace lmpeel::lm {

void Tensor::randomize(util::Rng& rng, float std) {
  for (float& v : data_) {
    v = static_cast<float>(rng.normal(0.0, std));
  }
}

void matmul(const Tensor& a, const Tensor& b, Tensor& out) {
  LMPEEL_CHECK(a.cols() == b.rows());
  LMPEEL_CHECK(out.rows() == a.rows() && out.cols() == b.cols());
  f32_kernels().matmul(a.data(), b.data(), out.data(), a.rows(), a.cols(),
                       b.cols());
}

void matmul_transposed_b(const Tensor& a, const Tensor& bt, Tensor& out) {
  LMPEEL_CHECK(a.cols() == bt.cols());
  LMPEEL_CHECK(out.rows() == a.rows() && out.cols() == bt.rows());
  std::vector<float> panel(a.cols() * kF32Panel);
  f32_kernels().matmul_transposed_b(a.data(), bt.data(), out.data(),
                                    a.rows(), a.cols(), bt.rows(),
                                    panel.data());
}

void matmul_grad_a(const Tensor& grad, const Tensor& b, Tensor& da) {
  LMPEEL_CHECK(grad.cols() == b.cols());
  LMPEEL_CHECK(da.rows() == grad.rows() && da.cols() == b.rows());
  // grad · bᵀ is the tied-head product; each finished dot is added once.
  Tensor dots(da.rows(), da.cols());
  matmul_transposed_b(grad, b, dots);
  f32_kernels().add_into(da.data(), dots.data(), da.size());
}

void matmul_grad_b(const Tensor& a, const Tensor& grad, Tensor& db) {
  LMPEEL_CHECK(a.rows() == grad.rows());
  LMPEEL_CHECK(db.rows() == a.cols() && db.cols() == grad.cols());
  std::vector<float> at(a.cols() * a.rows());
  f32_kernels().matmul_grad_b(a.data(), grad.data(), db.data(), a.rows(),
                              a.cols(), grad.cols(), at.data());
}

void layer_norm(const Tensor& x, std::span<const float> gamma,
                std::span<const float> beta, Tensor& y,
                LayerNormCache& cache) {
  const std::size_t rows = x.rows(), cols = x.cols();
  LMPEEL_CHECK(gamma.size() == cols && beta.size() == cols);
  LMPEEL_CHECK(y.rows() == rows && y.cols() == cols);
  cache.mean.resize(rows);
  cache.inv_std.resize(rows);
  f32_kernels().layer_norm(x.data(), gamma.data(), beta.data(), y.data(),
                           cache.mean.data(), cache.inv_std.data(), rows,
                           cols);
}

void layer_norm_backward(const Tensor& x, std::span<const float> gamma,
                         const Tensor& dy, const LayerNormCache& cache,
                         Tensor& dx, std::span<float> dgamma,
                         std::span<float> dbeta) {
  const std::size_t rows = x.rows(), cols = x.cols();
  LMPEEL_CHECK(dx.rows() == rows && dx.cols() == cols);
  LMPEEL_CHECK(dy.rows() == rows && dy.cols() == cols);
  LMPEEL_CHECK(gamma.size() == cols && dgamma.size() == cols &&
               dbeta.size() == cols);
  LMPEEL_CHECK(cache.mean.size() >= rows && cache.inv_std.size() >= rows);
  f32_kernels().layer_norm_backward(x.data(), gamma.data(), dy.data(),
                                    cache.mean.data(), cache.inv_std.data(),
                                    dx.data(), dgamma.data(), dbeta.data(),
                                    rows, cols);
}

void gelu(const Tensor& x, Tensor& y) {
  LMPEEL_CHECK(x.rows() == y.rows() && x.cols() == y.cols());
  f32_kernels().gelu(x.data(), y.data(), x.size());
}

void gelu_matmul(const Tensor& x, const Tensor& w, Tensor& out,
                 Tensor& tanh_u) {
  LMPEEL_CHECK(x.cols() == w.rows());
  LMPEEL_CHECK(out.rows() == x.rows() && out.cols() == w.cols());
  LMPEEL_CHECK(tanh_u.rows() == x.rows() && tanh_u.cols() == x.cols());
  std::vector<float> g(kF32RowBlock * x.cols());
  f32_kernels().gelu_matmul(x.data(), w.data(), out.data(), tanh_u.data(),
                            x.rows(), x.cols(), w.cols(), g.data());
}

void gelu_from_tanh(const Tensor& x, const Tensor& tanh_u, Tensor& y) {
  LMPEEL_CHECK(x.size() == tanh_u.size());
  LMPEEL_CHECK(x.rows() == y.rows() && x.cols() == y.cols());
  f32_kernels().gelu_from_tanh(x.data(), tanh_u.data(), y.data(), x.size());
}

void gelu_backward(const Tensor& x, const Tensor& tanh_u, const Tensor& dy,
                   Tensor& dx) {
  LMPEEL_CHECK(x.size() == tanh_u.size() && x.size() == dy.size() &&
               x.size() == dx.size());
  f32_kernels().gelu_backward(x.data(), tanh_u.data(), dy.data(), dx.data(),
                              x.size());
}

void softmax_rows(Tensor& x) {
  if (x.cols() == 0) return;
  f32_kernels().softmax_rows(x.data(), x.rows(), x.cols());
}

}  // namespace lmpeel::lm
