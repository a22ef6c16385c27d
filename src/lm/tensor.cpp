#include "lm/tensor.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace lmpeel::lm {

void Tensor::randomize(util::Rng& rng, float std) {
  for (float& v : data_) {
    v = static_cast<float>(rng.normal(0.0, std));
  }
}

namespace {

constexpr std::size_t kRowBlock = 8;  // rows of a per register tile
// Columns per register tile: matmul's slice of b, and the packed panel of
// the A·Bᵀ kernels.  32 rather than 16: GCC 12 SLP-vectorises the inlined
// matmul_strip_tile<8, 16> across rows with vpermt2ps/vinsertps shuffles
// and runs it at about 2 GMAC/s on AVX-512, against about 20 GMAC/s for
// <8, 32> (m = 70, k = 64).
constexpr std::size_t kPanel = 32;

/// One IB x JT output tile accumulated over k-rows [k0, kend) with the
/// partial sums held in registers; partials round-trip through `out`
/// between strips.  Every out(i, j) accumulates a(i, kk) * b(kk, j) for
/// kk = 0..k-1 in ascending order — the same float operation sequence as
/// every other path through matmul — so the result is bit-identical
/// whichever kernel a given (m, n) shape dispatches to (a register vs
/// memory round-trip does not change float rounding).  That invariant is
/// also why no path may skip aik == 0.0f terms: adding a zero product can
/// still flip the sign of a -0.0 partial sum.
template <std::size_t IB, std::size_t JT>
void matmul_strip_tile(const float* a, const float* b, float* out,
                       std::size_t k, std::size_t b_stride,
                       std::size_t out_stride, std::size_t i0, std::size_t j0,
                       std::size_t k0, std::size_t kend) {
  float acc[IB][JT];
  for (std::size_t r = 0; r < IB; ++r) {
    for (std::size_t c = 0; c < JT; ++c) {
      acc[r][c] = out[(i0 + r) * out_stride + j0 + c];
    }
  }
  for (std::size_t kk = k0; kk < kend; ++kk) {
    const float* b_row = b + kk * b_stride + j0;
    for (std::size_t r = 0; r < IB; ++r) {
      const float aik = a[(i0 + r) * k + kk];
      for (std::size_t c = 0; c < JT; ++c) acc[r][c] += aik * b_row[c];
    }
  }
  for (std::size_t r = 0; r < IB; ++r) {
    for (std::size_t c = 0; c < JT; ++c) {
      out[(i0 + r) * out_stride + j0 + c] = acc[r][c];
    }
  }
}

/// Rows [0, IB) of a ([IB x k], row-major) times a packed [k x kPanel]
/// panel, over all of k from +0.0f, into a scratch tile; the first
/// `width` columns of each tile row are copied to out.
template <std::size_t IB>
void panel_tile(const float* a, const float* panel, std::size_t k, float* out,
                std::size_t out_stride, std::size_t width) {
  float tile[IB * kPanel] = {};
  matmul_strip_tile<IB, kPanel>(a, panel, tile, k, kPanel, kPanel, 0, 0, 0, k);
  for (std::size_t r = 0; r < IB; ++r) {
    std::copy_n(tile + r * kPanel, width, out + r * out_stride);
  }
}

/// out[m, n] = a[m, k] * b[k, n], all row-major; the body of matmul.
void matmul_rows(const float* ap, const float* bp, float* op, std::size_t m,
                 std::size_t k, std::size_t n) {
  std::fill_n(op, m * n, 0.0f);
  constexpr std::size_t kStrip = 16;  // k-rows of b per strip
  // Strip-blocked main kernel: b is read row-sequentially (the hardware
  // prefetcher's favourite pattern) one kStrip-deep strip at a time, and
  // each strip is applied to kRowBlock rows of a at once from registers.
  // Streaming the weight matrix once per kRowBlock rows instead of once
  // per row is what makes batched decode (m = batch) and training
  // (m = sequence length) cheaper per row than single-row decode.
  std::size_t i0 = 0;
  for (; i0 + kRowBlock <= m; i0 += kRowBlock) {
    for (std::size_t k0 = 0; k0 < k; k0 += kStrip) {
      const std::size_t kend = std::min(k0 + kStrip, k);
      for (std::size_t j0 = 0; j0 + kPanel <= n; j0 += kPanel) {
        matmul_strip_tile<kRowBlock, kPanel>(ap, bp, op, k, n, n, i0, j0, k0,
                                             kend);
      }
    }
    // Column tail of this row block: plain kk-ascending dot products.
    for (std::size_t j0 = n - n % kPanel; j0 < n; ++j0) {
      for (std::size_t r = 0; r < kRowBlock; ++r) {
        float acc = 0.0f;
        for (std::size_t kk = 0; kk < k; ++kk) {
          acc += ap[(i0 + r) * k + kk] * bp[kk * n + j0];
        }
        op[(i0 + r) * n + j0] = acc;
      }
    }
  }
  // Leftover rows (and the whole product when m < kRowBlock): k-outer
  // accumulation, which also streams each row of b exactly once.
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float* b_row = bp + kk * n;
    for (std::size_t i = i0; i < m; ++i) {
      const float aik = ap[i * k + kk];
      float* out_row = op + i * n;
      for (std::size_t j = 0; j < n; ++j) {
        out_row[j] += aik * b_row[j];
      }
    }
  }
}

}  // namespace

void matmul(const Tensor& a, const Tensor& b, Tensor& out) {
  LMPEEL_CHECK(a.cols() == b.rows());
  LMPEEL_CHECK(out.rows() == a.rows() && out.cols() == b.cols());
  matmul_rows(a.data(), b.data(), out.data(), a.rows(), a.cols(), b.cols());
}

void matmul_transposed_b(const Tensor& a, const Tensor& bt, Tensor& out) {
  LMPEEL_CHECK(a.cols() == bt.cols());
  LMPEEL_CHECK(out.rows() == a.rows() && out.cols() == bt.rows());
  const std::size_t m = a.rows(), k = a.cols(), n = bt.rows();
  const float* ap = a.data();
  const float* btp = bt.data();
  float* op = out.data();
  // The reduction runs along bt's rows, so the vector-friendly layout has
  // to be manufactured: pack kPanel rows of bt into a [k x kPanel] panel
  // (zero-padded past n), then run each row block of a against it.  Per
  // (i, j) the accumulation is c = 0..k-1 ascending from +0.0f whichever
  // tile computes it, so the result is bit-identical to the naive dot
  // product (and to the single-row tied head in the transformer).
  std::vector<float> panel(k * kPanel);
  for (std::size_t j0 = 0; j0 < n; j0 += kPanel) {
    const std::size_t width = std::min(kPanel, n - j0);
    for (std::size_t l = 0; l < kPanel; ++l) {
      const float* bt_row = btp + (j0 + l) * k;
      for (std::size_t c = 0; c < k; ++c) {
        panel[c * kPanel + l] = l < width ? bt_row[c] : 0.0f;
      }
    }
    std::size_t i0 = 0;
    for (; i0 + kRowBlock <= m; i0 += kRowBlock) {
      panel_tile<kRowBlock>(ap + i0 * k, panel.data(), k, op + i0 * n + j0, n,
                            width);
    }
    // Tail rows (every row when m < kRowBlock): one-row tiles.
    for (; i0 < m; ++i0) {
      panel_tile<1>(ap + i0 * k, panel.data(), k, op + i0 * n + j0, n, width);
    }
  }
}

void matmul_grad_a(const Tensor& grad, const Tensor& b, Tensor& da) {
  LMPEEL_CHECK(grad.cols() == b.cols());
  LMPEEL_CHECK(da.rows() == grad.rows() && da.cols() == b.rows());
  // grad · bᵀ is the tied-head product; each finished dot is added once.
  Tensor dots(da.rows(), da.cols());
  matmul_transposed_b(grad, b, dots);
  float* d = da.data();
  const float* s = dots.data();
  for (std::size_t i = 0; i < da.size(); ++i) d[i] += s[i];
}

void matmul_grad_b(const Tensor& a, const Tensor& grad, Tensor& db) {
  LMPEEL_CHECK(a.rows() == grad.rows());
  LMPEEL_CHECK(db.rows() == a.cols() && db.cols() == grad.cols());
  const std::size_t m = a.rows(), k = a.cols(), n = grad.cols();
  // db += aᵀ · grad: pack aᵀ once so row kk of db reads a contiguous [m]
  // row, then run the strip kernel with grad as the (row-major) b operand.
  // The tile loads db first, so every db(kk, j) starts from its current
  // value and adds a(i, kk) * grad(i, j) for i ascending.
  std::vector<float> at(k * m);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t kk = 0; kk < k; ++kk) {
      at[kk * m + i] = a.data()[i * k + kk];
    }
  }
  const float* gp = grad.data();
  float* dbp = db.data();
  const std::size_t col_main = n - n % kPanel;
  for (std::size_t j0 = 0; j0 < col_main; j0 += kPanel) {
    std::size_t r0 = 0;
    for (; r0 + kRowBlock <= k; r0 += kRowBlock) {
      matmul_strip_tile<kRowBlock, kPanel>(at.data(), gp, dbp, m, n, n, r0,
                                           j0, 0, m);
    }
    for (; r0 < k; ++r0) {
      matmul_strip_tile<1, kPanel>(at.data(), gp, dbp, m, n, n, r0, j0, 0, m);
    }
  }
  // Column tail: the same i-ascending accumulation, vectorised across j.
  for (std::size_t kk = 0; kk < k; ++kk) {
    float* db_row = dbp + kk * n;
    for (std::size_t i = 0; i < m; ++i) {
      const float aik = at[kk * m + i];
      const float* g_row = gp + i * n;
      for (std::size_t j = col_main; j < n; ++j) db_row[j] += aik * g_row[j];
    }
  }
}

void layer_norm(const Tensor& x, std::span<const float> gamma,
                std::span<const float> beta, Tensor& y,
                LayerNormCache& cache) {
  const std::size_t rows = x.rows(), cols = x.cols();
  LMPEEL_CHECK(gamma.size() == cols && beta.size() == cols);
  LMPEEL_CHECK(y.rows() == rows && y.cols() == cols);
  cache.mean.resize(rows);
  cache.inv_std.resize(rows);
  constexpr float kEps = 1e-5f;
  for (std::size_t r = 0; r < rows; ++r) {
    const float* xr = x.data() + r * cols;
    float mean = 0.0f;
    for (std::size_t c = 0; c < cols; ++c) mean += xr[c];
    mean /= static_cast<float>(cols);
    float var = 0.0f;
    for (std::size_t c = 0; c < cols; ++c) {
      var += (xr[c] - mean) * (xr[c] - mean);
    }
    var /= static_cast<float>(cols);
    const float inv_std = 1.0f / std::sqrt(var + kEps);
    cache.mean[r] = mean;
    cache.inv_std[r] = inv_std;
    float* yr = y.data() + r * cols;
    for (std::size_t c = 0; c < cols; ++c) {
      yr[c] = (xr[c] - mean) * inv_std * gamma[c] + beta[c];
    }
  }
}

void layer_norm_backward(const Tensor& x, std::span<const float> gamma,
                         const Tensor& dy, const LayerNormCache& cache,
                         Tensor& dx, std::span<float> dgamma,
                         std::span<float> dbeta) {
  const std::size_t rows = x.rows(), cols = x.cols();
  LMPEEL_CHECK(dx.rows() == rows && dx.cols() == cols);
  const auto n = static_cast<float>(cols);
  for (std::size_t r = 0; r < rows; ++r) {
    const float* xr = x.data() + r * cols;
    const float* dyr = dy.data() + r * cols;
    float* dxr = dx.data() + r * cols;
    const float mean = cache.mean[r];
    const float inv_std = cache.inv_std[r];

    // x_hat = (x - mean) * inv_std;  dy/dx via the standard two-reduction
    // layer-norm backward.
    float sum_dy_g = 0.0f, sum_dy_g_xhat = 0.0f;
    for (std::size_t c = 0; c < cols; ++c) {
      const float xhat = (xr[c] - mean) * inv_std;
      const float dyg = dyr[c] * gamma[c];
      sum_dy_g += dyg;
      sum_dy_g_xhat += dyg * xhat;
      dgamma[c] += dyr[c] * xhat;
      dbeta[c] += dyr[c];
    }
    for (std::size_t c = 0; c < cols; ++c) {
      const float xhat = (xr[c] - mean) * inv_std;
      const float dyg = dyr[c] * gamma[c];
      dxr[c] += inv_std * (dyg - sum_dy_g / n - xhat * sum_dy_g_xhat / n);
    }
  }
}

namespace {

constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)

float gelu_tanh(float v) {
  return std::tanh(kGeluC * (v + 0.044715f * v * v * v));
}

float gelu_value(float v, float t) { return 0.5f * v * (1.0f + t); }

}  // namespace

void gelu(const Tensor& x, Tensor& y) {
  LMPEEL_CHECK(x.rows() == y.rows() && x.cols() == y.cols());
  const float* xs = x.data();
  float* ys = y.data();
  for (std::size_t i = 0; i < x.size(); ++i) {
    ys[i] = gelu_value(xs[i], gelu_tanh(xs[i]));
  }
}

void gelu_matmul(const Tensor& x, const Tensor& w, Tensor& out,
                 Tensor& tanh_u) {
  LMPEEL_CHECK(x.cols() == w.rows());
  LMPEEL_CHECK(out.rows() == x.rows() && out.cols() == w.cols());
  LMPEEL_CHECK(tanh_u.rows() == x.rows() && tanh_u.cols() == x.cols());
  const std::size_t m = x.rows(), k = x.cols(), n = w.cols();
  // matmul is row-independent, so feeding it kRowBlock rows of gelu(x) at
  // a time gives the same floats as one call over all of gelu(x).
  std::vector<float> g(kRowBlock * k);
  for (std::size_t i0 = 0; i0 < m; i0 += kRowBlock) {
    const std::size_t rows = std::min(kRowBlock, m - i0);
    const float* xs = x.data() + i0 * k;
    float* ts = tanh_u.data() + i0 * k;
    for (std::size_t e = 0; e < rows * k; ++e) {
      ts[e] = gelu_tanh(xs[e]);
      g[e] = gelu_value(xs[e], ts[e]);
    }
    matmul_rows(g.data(), w.data(), out.data() + i0 * n, rows, k, n);
  }
}

void gelu_from_tanh(const Tensor& x, const Tensor& tanh_u, Tensor& y) {
  LMPEEL_CHECK(x.size() == tanh_u.size());
  LMPEEL_CHECK(x.rows() == y.rows() && x.cols() == y.cols());
  const float* xs = x.data();
  const float* ts = tanh_u.data();
  float* ys = y.data();
  for (std::size_t i = 0; i < x.size(); ++i) ys[i] = gelu_value(xs[i], ts[i]);
}

void gelu_backward(const Tensor& x, const Tensor& tanh_u, const Tensor& dy,
                   Tensor& dx) {
  LMPEEL_CHECK(x.size() == tanh_u.size() && x.size() == dy.size() &&
               x.size() == dx.size());
  const float* xs = x.data();
  const float* ts = tanh_u.data();
  const float* dys = dy.data();
  float* dxs = dx.data();
  for (std::size_t i = 0; i < x.size(); ++i) {
    const float v = xs[i];
    const float t = ts[i];
    const float du = kGeluC * (1.0f + 3.0f * 0.044715f * v * v);
    const float grad = 0.5f * (1.0f + t) + 0.5f * v * (1.0f - t * t) * du;
    dxs[i] += dys[i] * grad;
  }
}

void softmax_rows(Tensor& x) {
  for (std::size_t r = 0; r < x.rows(); ++r) {
    float* row = x.data() + r * x.cols();
    float hi = row[0];
    for (std::size_t c = 1; c < x.cols(); ++c) hi = std::max(hi, row[c]);
    float sum = 0.0f;
    for (std::size_t c = 0; c < x.cols(); ++c) {
      row[c] = std::exp(row[c] - hi);
      sum += row[c];
    }
    const float inv = 1.0f / sum;
    for (std::size_t c = 0; c < x.cols(); ++c) row[c] *= inv;
  }
}

}  // namespace lmpeel::lm
