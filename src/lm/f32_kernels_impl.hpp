// The f32 kernel source (DESIGN.md §17), compiled once per arch.
//
// Only f32_kernels_{scalar,avx2,avx512}.cpp include this file, each built
// with its own -m flags; F32Impl<A> is the arch-templated kernel set and
// Simd<A> its lane width.  Two rules keep the copies interchangeable:
//
//  * Bits.  Every output element keeps one fixed float operation sequence
//    — a dot product adds its terms c ascending from +0.0f, multiply then
//    add, never contracted (every TU gets -ffp-contract=off).  Lanes run
//    across independent outputs only: q·k and dp across keys, p·v and the
//    gradient rows across head dims, matmul across output columns, AdamW
//    across elements.  Lane width therefore changes speed, never a bit.
//  * Linkage.  Everything here has internal linkage and calls no
//    out-of-line C++ library template (no std::vector, std::min, std::exp:
//    libm is called through its C names), so the linker never picks an
//    AVX-512 copy of a shared inline function for code that must run on an
//    AVX2 or baseline CPU.
#pragma once

#include <math.h>

#include <cstddef>
#include <cstring>
#include <utility>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "lm/f32_kernels.hpp"

namespace lmpeel::lm {
namespace {

using util::Arch;

/// Lane traits: F holds `kLanes` floats, D half as many doubles (H is the
/// float vector D widens from).  Each specialisation is visible only where
/// the TU's flags can run it.
template <Arch A>
struct Simd;

template <>
struct Simd<Arch::kScalar> {
  static constexpr std::size_t kLanes = 4;
  typedef float F __attribute__((vector_size(16)));
  typedef int I __attribute__((vector_size(16)));
  typedef float H __attribute__((vector_size(8)));
  typedef double D __attribute__((vector_size(16)));
  static D widen(H h) { return __builtin_convertvector(h, D); }
  static H narrow(D d) { return __builtin_convertvector(d, H); }
  static D sqrt(D d) {
#if defined(__SSE2__)
    return reinterpret_cast<D>(_mm_sqrt_pd(reinterpret_cast<__m128d>(d)));
#else
    for (int i = 0; i < 2; ++i) d[i] = ::sqrt(d[i]);
    return d;
#endif
  }
};

#if defined(__AVX2__)
template <>
struct Simd<Arch::kAvx2> {
  static constexpr std::size_t kLanes = 8;
  typedef float F __attribute__((vector_size(32)));
  typedef int I __attribute__((vector_size(32)));
  typedef float H __attribute__((vector_size(16)));
  typedef double D __attribute__((vector_size(32)));
  static D widen(H h) { return __builtin_convertvector(h, D); }
  static H narrow(D d) { return __builtin_convertvector(d, H); }
  static D sqrt(D d) {
    return reinterpret_cast<D>(_mm256_sqrt_pd(reinterpret_cast<__m256d>(d)));
  }
};
#endif

#if defined(__AVX512F__)
template <>
struct Simd<Arch::kAvx512> {
  static constexpr std::size_t kLanes = 16;
  typedef float F __attribute__((vector_size(64)));
  typedef int I __attribute__((vector_size(64)));
  typedef float H __attribute__((vector_size(32)));
  typedef double D __attribute__((vector_size(64)));
  static D widen(H h) { return __builtin_convertvector(h, D); }
  static H narrow(D d) { return __builtin_convertvector(d, H); }
  static D sqrt(D d) {
    // The zero-masked form: the unmasked intrinsic reads an undefined
    // pass-through register, which GCC 12 flags as uninitialised.
    return reinterpret_cast<D>(
        _mm512_maskz_sqrt_pd(0xff, reinterpret_cast<__m512d>(d)));
  }
};
#endif

template <Arch A>
struct F32Impl {
  using S = Simd<A>;
  using F = typename S::F;
  using H = typename S::H;
  using D = typename S::D;
  static constexpr std::size_t W = S::kLanes;
  static constexpr std::size_t kRowBlock = kF32RowBlock;
  static constexpr std::size_t kPanel = kF32Panel;

  static std::size_t min_size(std::size_t a, std::size_t b) {
    return a < b ? a : b;
  }
  static std::size_t round_up(std::size_t n) { return (n + W - 1) / W * W; }
  static F load(const float* p) {
    F v;
    std::memcpy(&v, p, sizeof v);
    return v;
  }
  static void store(float* p, F v) { std::memcpy(p, &v, sizeof v); }
  /// Stores the first `lanes` lanes of v.
  static void store_lanes(float* p, F v, std::size_t lanes) {
    if (lanes == W) {
      store(p, v);
      return;
    }
    float tmp[W];
    store(tmp, v);
    for (std::size_t i = 0; i < lanes; ++i) p[i] = tmp[i];
  }
  static H load_half(const float* p) {
    H v;
    std::memcpy(&v, p, sizeof v);
    return v;
  }
  static void store_half(float* p, H v) { std::memcpy(p, &v, sizeof v); }

  // ---- dense kernels (tensor.hpp) ------------------------------------

  /// One IB x JT output tile accumulated over k-rows [k0, kend) with the
  /// partial sums held in registers; partials round-trip through `out`
  /// between strips.  Every out(i, j) accumulates a(i, kk) * b(kk, j) for
  /// kk = 0..k-1 in ascending order — the same float operation sequence
  /// as every other path through matmul — so the result is bit-identical
  /// whichever kernel a given (m, n) shape dispatches to (a register vs
  /// memory round-trip does not change float rounding).  That invariant
  /// is also why no path may skip aik == 0.0f terms: adding a zero
  /// product can still flip the sign of a -0.0 partial sum.  The compiler
  /// vectorises the c loop across the JT output columns.
  template <std::size_t IB, std::size_t JT>
  static void strip_tile(const float* a, const float* b, float* out,
                         std::size_t k, std::size_t b_stride,
                         std::size_t out_stride, std::size_t i0,
                         std::size_t j0, std::size_t k0, std::size_t kend) {
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
  static void panel_tile(const float* a, const float* panel, std::size_t k,
                         float* out, std::size_t out_stride,
                         std::size_t width) {
    float tile[IB * kPanel] = {};
    strip_tile<IB, kPanel>(a, panel, tile, k, kPanel, kPanel, 0, 0, 0, k);
    for (std::size_t r = 0; r < IB; ++r) {
      for (std::size_t c = 0; c < width; ++c) {
        out[r * out_stride + c] = tile[r * kPanel + c];
      }
    }
  }

  static void matmul(const float* ap, const float* bp, float* op,
                     std::size_t m, std::size_t k, std::size_t n) {
    for (std::size_t i = 0; i < m * n; ++i) op[i] = 0.0f;
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
        const std::size_t kend = min_size(k0 + kStrip, k);
        for (std::size_t j0 = 0; j0 + kPanel <= n; j0 += kPanel) {
          strip_tile<kRowBlock, kPanel>(ap, bp, op, k, n, n, i0, j0, k0,
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
        for (std::size_t j = 0; j < n; ++j) out_row[j] += aik * b_row[j];
      }
    }
  }

  static void matmul_transposed_b(const float* ap, const float* btp,
                                  float* op, std::size_t m, std::size_t k,
                                  std::size_t n, float* panel) {
    // The reduction runs along bt's rows, so the vector-friendly layout
    // has to be manufactured: pack kPanel rows of bt into a [k x kPanel]
    // panel (zero-padded past n), then run each row block of a against
    // it.  Per (i, j) the accumulation is c = 0..k-1 ascending from +0.0f
    // whichever tile computes it, so the result is bit-identical to the
    // naive dot product (and to the single-row tied head).
    for (std::size_t j0 = 0; j0 < n; j0 += kPanel) {
      const std::size_t width = min_size(kPanel, n - j0);
      for (std::size_t l = 0; l < kPanel; ++l) {
        const float* bt_row = btp + (j0 + l) * k;
        for (std::size_t c = 0; c < k; ++c) {
          panel[c * kPanel + l] = l < width ? bt_row[c] : 0.0f;
        }
      }
      std::size_t i0 = 0;
      for (; i0 + kRowBlock <= m; i0 += kRowBlock) {
        panel_tile<kRowBlock>(ap + i0 * k, panel, k, op + i0 * n + j0, n,
                              width);
      }
      // Tail rows (every row when m < kRowBlock): one-row tiles.
      for (; i0 < m; ++i0) {
        panel_tile<1>(ap + i0 * k, panel, k, op + i0 * n + j0, n, width);
      }
    }
  }

  static void matmul_grad_b(const float* a, const float* gp, float* dbp,
                            std::size_t m, std::size_t k, std::size_t n,
                            float* at) {
    // db += aᵀ · grad: pack aᵀ once so row kk of db reads a contiguous [m]
    // row, then run the strip kernel with grad as the (row-major) b
    // operand.  The tile loads db first, so every db(kk, j) starts from
    // its current value and adds a(i, kk) * grad(i, j) for i ascending.
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t kk = 0; kk < k; ++kk) at[kk * m + i] = a[i * k + kk];
    }
    const std::size_t col_main = n - n % kPanel;
    for (std::size_t j0 = 0; j0 < col_main; j0 += kPanel) {
      std::size_t r0 = 0;
      for (; r0 + kRowBlock <= k; r0 += kRowBlock) {
        strip_tile<kRowBlock, kPanel>(at, gp, dbp, m, n, n, r0, j0, 0, m);
      }
      for (; r0 < k; ++r0) {
        strip_tile<1, kPanel>(at, gp, dbp, m, n, n, r0, j0, 0, m);
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

  static void add_into(float* dst, const float* src, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) dst[i] += src[i];
  }

  static void layer_norm(const float* x, const float* gamma,
                         const float* beta, float* y, float* mean_out,
                         float* inv_std_out, std::size_t rows,
                         std::size_t cols) {
    constexpr float kEps = 1e-5f;
    for (std::size_t r = 0; r < rows; ++r) {
      const float* xr = x + r * cols;
      float mean = 0.0f;
      for (std::size_t c = 0; c < cols; ++c) mean += xr[c];
      mean /= static_cast<float>(cols);
      float var = 0.0f;
      for (std::size_t c = 0; c < cols; ++c) {
        var += (xr[c] - mean) * (xr[c] - mean);
      }
      var /= static_cast<float>(cols);
      const float inv_std = 1.0f / ::sqrtf(var + kEps);
      mean_out[r] = mean;
      inv_std_out[r] = inv_std;
      float* yr = y + r * cols;
      for (std::size_t c = 0; c < cols; ++c) {
        yr[c] = (xr[c] - mean) * inv_std * gamma[c] + beta[c];
      }
    }
  }

  static void layer_norm_backward(const float* x, const float* gamma,
                                  const float* dy, const float* mean_in,
                                  const float* inv_std_in, float* dx,
                                  float* dgamma, float* dbeta,
                                  std::size_t rows, std::size_t cols) {
    const auto n = static_cast<float>(cols);
    for (std::size_t r = 0; r < rows; ++r) {
      const float* xr = x + r * cols;
      const float* dyr = dy + r * cols;
      float* dxr = dx + r * cols;
      const float mean = mean_in[r];
      const float inv_std = inv_std_in[r];

      // x_hat = (x - mean) * inv_std;  dy/dx via the standard
      // two-reduction layer-norm backward.
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

  static constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)

  static float gelu_tanh(float v) {
    return ::tanhf(kGeluC * (v + 0.044715f * v * v * v));
  }
  static float gelu_value(float v, float t) { return 0.5f * v * (1.0f + t); }

  static void gelu(const float* x, float* y, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) y[i] = gelu_value(x[i], gelu_tanh(x[i]));
  }

  static void gelu_matmul(const float* x, const float* w, float* out,
                          float* tanh_u, std::size_t m, std::size_t k,
                          std::size_t n, float* g) {
    // matmul is row-independent, so feeding it kRowBlock rows of gelu(x)
    // at a time gives the same floats as one call over all of gelu(x).
    for (std::size_t i0 = 0; i0 < m; i0 += kRowBlock) {
      const std::size_t rows = min_size(kRowBlock, m - i0);
      const float* xs = x + i0 * k;
      float* ts = tanh_u + i0 * k;
      for (std::size_t e = 0; e < rows * k; ++e) {
        ts[e] = gelu_tanh(xs[e]);
        g[e] = gelu_value(xs[e], ts[e]);
      }
      matmul(g, w, out + i0 * n, rows, k, n);
    }
  }

  static void gelu_from_tanh(const float* x, const float* t, float* y,
                             std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) y[i] = gelu_value(x[i], t[i]);
  }

  static void gelu_backward(const float* x, const float* ts, const float* dy,
                            float* dx, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      const float v = x[i];
      const float t = ts[i];
      const float du = kGeluC * (1.0f + 3.0f * 0.044715f * v * v);
      const float grad = 0.5f * (1.0f + t) + 0.5f * v * (1.0f - t * t) * du;
      dx[i] += dy[i] * grad;
    }
  }

  static void softmax_rows(float* x, std::size_t rows, std::size_t cols) {
    for (std::size_t r = 0; r < rows; ++r) {
      float* row = x + r * cols;
      float hi = row[0];
      for (std::size_t c = 1; c < cols; ++c) hi = hi < row[c] ? row[c] : hi;
      float sum = 0.0f;
      for (std::size_t c = 0; c < cols; ++c) {
        row[c] = ::expf(row[c] - hi);
        sum += row[c];
      }
      const float inv = 1.0f / sum;
      for (std::size_t c = 0; c < cols; ++c) row[c] *= inv;
    }
  }

  // ---- attention (attention.hpp) -------------------------------------

  /// Walks the K (or V) rows of one head through a span list.
  struct RowCursor {
    const mem::KvSpan* spans;
    std::size_t stride;
    std::size_t head_off;
    bool values;
    std::size_t span = 0, row = 0;

    const float* next() {
      while (row >= spans[span].tokens) {
        ++span;
        row = 0;
      }
      const float* base = values ? spans[span].v : spans[span].k;
      return base + head_off + (row++) * stride;
    }
  };

  /// Block-swap transpose of a W x W tile held in W row vectors: the stage
  /// for granularity G swaps bit G of the row index with bit G of the
  /// column index, so the stages G = W/2 .. 1 together transpose.
  template <std::size_t G, std::size_t... C>
  static typename S::I lo_mask(std::index_sequence<C...>) {
    return typename S::I{static_cast<int>((C & G) ? W + C - G : C)...};
  }
  template <std::size_t G, std::size_t... C>
  static typename S::I hi_mask(std::index_sequence<C...>) {
    return typename S::I{static_cast<int>((C & G) ? W + C : C + G)...};
  }
  template <std::size_t G>
  static void transpose_stage(F* r) {
    constexpr auto lanes = std::make_index_sequence<W>{};
    for (std::size_t i = 0; i < W; ++i) {
      if ((i & G) != 0) continue;
      const F a = r[i], b = r[i + G];
      r[i] = __builtin_shuffle(a, b, lo_mask<G>(lanes));
      r[i + G] = __builtin_shuffle(a, b, hi_mask<G>(lanes));
    }
    if constexpr (G > 1) transpose_stage<G / 2>(r);
  }

  /// kt[c * ld + u] = row_u[c] for u < n, c < hd (ld a multiple of W,
  /// >= n).  Lanes past n repeat row n-1: finite values that no caller
  /// stores.
  static void pack_transposed(RowCursor cursor, std::size_t n,
                              std::size_t hd, float* kt, std::size_t ld) {
    const std::size_t c_vec = hd - hd % W;
    const float* rows[W];
    for (std::size_t u0 = 0; u0 < n; u0 += W) {
      const std::size_t valid = min_size(W, n - u0);
      for (std::size_t i = 0; i < valid; ++i) rows[i] = cursor.next();
      for (std::size_t i = valid; i < W; ++i) rows[i] = rows[valid - 1];
      for (std::size_t c0 = 0; c0 < c_vec; c0 += W) {
        F tile[W];
        for (std::size_t i = 0; i < W; ++i) tile[i] = load(rows[i] + c0);
        transpose_stage<W / 2>(tile);
        for (std::size_t j = 0; j < W; ++j) {
          store(kt + (c0 + j) * ld + u0, tile[j]);
        }
      }
      for (std::size_t c = c_vec; c < hd; ++c) {
        for (std::size_t i = 0; i < W; ++i) kt[c * ld + u0 + i] = rows[i][c];
      }
    }
  }

  /// out[u] = (sum over c ascending of q[c] * row_u[c]) [* scale] for
  /// keys [0, `valid`) of NB lane blocks, reading the packed rows at kt.
  template <std::size_t NB, bool kScaled>
  static void dots_group(const float* q, const float* kt, std::size_t ld,
                         std::size_t hd, float scale, float* out,
                         std::size_t valid) {
    F acc[NB] = {};
    for (std::size_t c = 0; c < hd; ++c) {
      const float qc = q[c];
      const float* row = kt + c * ld;
      for (std::size_t j = 0; j < NB; ++j) acc[j] = acc[j] + qc * load(row + j * W);
    }
    for (std::size_t j = 0; j < NB && j * W < valid; ++j) {
      store_lanes(out + j * W, kScaled ? acc[j] * scale : acc[j],
                  min_size(W, valid - j * W));
    }
  }

  /// One dot chain per key, lanes across keys, four lane blocks at a time
  /// so four independent chains hide the add latency.
  template <bool kScaled>
  static void dots_packed(const float* q, const float* kt, std::size_t ld,
                          std::size_t n, std::size_t hd, float scale,
                          float* out) {
    std::size_t u0 = 0;
    for (; u0 + 4 * W <= n; u0 += 4 * W) {
      dots_group<4, kScaled>(q, kt + u0, ld, hd, scale, out + u0, 4 * W);
    }
    const std::size_t rest = n - u0;
    switch ((rest + W - 1) / W) {
      case 4:
        dots_group<4, kScaled>(q, kt + u0, ld, hd, scale, out + u0, rest);
        break;
      case 3:
        dots_group<3, kScaled>(q, kt + u0, ld, hd, scale, out + u0, rest);
        break;
      case 2:
        dots_group<2, kScaled>(q, kt + u0, ld, hd, scale, out + u0, rest);
        break;
      case 1:
        dots_group<1, kScaled>(q, kt + u0, ld, hd, scale, out + u0, rest);
        break;
      default:
        break;
    }
  }

  /// Softmax of p[0, n) in place: the max is order-free, the sum runs
  /// sequentially over scalar exps.
  static void softmax_row(float* p, std::size_t n) {
    float hi = -1e30f;
    for (std::size_t u = 0; u < n; ++u) hi = hi < p[u] ? p[u] : hi;
    float sum = 0.0f;
    for (std::size_t u = 0; u < n; ++u) {
      p[u] = ::expf(p[u] - hi);
      sum += p[u];
    }
    const float inv = 1.0f / sum;
    std::size_t u = 0;
    for (; u + W <= n; u += W) store(p + u, load(p + u) * inv);
    for (; u < n; ++u) p[u] *= inv;
  }

  /// ctx[c0 + j*W + i] = sum over rows u ascending (p[u] == 0 skipped) of
  /// p[u] * row_u[c], from +0.0f, for NC lane blocks of columns.
  template <std::size_t NC>
  static void weighted_group(const float* p, RowCursor cursor, std::size_t n,
                             std::size_t c0, float* ctx) {
    F acc[NC] = {};
    for (std::size_t u = 0; u < n; ++u) {
      const float* row = cursor.next() + c0;
      const float pu = p[u];
      if (pu == 0.0f) continue;
      for (std::size_t j = 0; j < NC; ++j) acc[j] = acc[j] + pu * load(row + j * W);
    }
    for (std::size_t j = 0; j < NC; ++j) store(ctx + c0 + j * W, acc[j]);
  }

  /// ctx = sum over rows u ascending of p[u] * row_u, lanes across the
  /// head dims; each column keeps its own u-ascending chain.
  static void weighted_sum(const float* p, RowCursor cursor, std::size_t n,
                           std::size_t hd, float* ctx) {
    const std::size_t c_vec = hd - hd % W;
    std::size_t c0 = 0;
    for (; c0 + 4 * W <= c_vec; c0 += 4 * W) {
      weighted_group<4>(p, cursor, n, c0, ctx);
    }
    switch ((c_vec - c0) / W) {
      case 3:
        weighted_group<3>(p, cursor, n, c0, ctx);
        break;
      case 2:
        weighted_group<2>(p, cursor, n, c0, ctx);
        break;
      case 1:
        weighted_group<1>(p, cursor, n, c0, ctx);
        break;
      default:
        break;
    }
    if (c_vec == hd) return;
    float acc[W] = {};
    for (std::size_t u = 0; u < n; ++u) {
      const float* row = cursor.next() + c_vec;
      const float pu = p[u];
      if (pu == 0.0f) continue;
      for (std::size_t c = 0; c < hd - c_vec; ++c) acc[c] += pu * row[c];
    }
    for (std::size_t c = 0; c < hd - c_vec; ++c) ctx[c_vec + c] = acc[c];
  }

  static void attend_rows(const float* q, std::size_t q_stride,
                          const mem::KvSpan* spans, std::size_t stride,
                          std::size_t head_off, std::size_t first,
                          std::size_t rows, std::size_t hd, float scale,
                          float* prow, std::size_t p_stride, float* ctx,
                          std::size_t ctx_stride, float* kt) {
    const std::size_t n_max = first + rows;
    const std::size_t ld = round_up(n_max);
    // Every row reads a prefix of the same keys: transpose them once.
    pack_transposed(RowCursor{spans, stride, head_off, false}, n_max, hd, kt,
                    ld);
    for (std::size_t r = 0; r < rows; ++r) {
      const std::size_t n = first + r + 1;
      float* p = prow + r * p_stride;
      dots_packed<true>(q + r * q_stride, kt, ld, n, hd, scale, p);
      softmax_row(p, n);
      weighted_sum(p, RowCursor{spans, stride, head_off, true}, n, hd,
                   ctx + r * ctx_stride);
    }
  }

  /// y[c] += a * x[c] for c < hd, lanes across c.
  static void axpy(float* y, float a, const float* x, std::size_t hd) {
    std::size_t c = 0;
    for (; c + W <= hd; c += W) store(y + c, load(y + c) + a * load(x + c));
    for (; c < hd; ++c) y[c] += a * x[c];
  }

  /// The key loop of query row t in the attention backward: dv_u += p_u
  /// dctx_t, ds_u = p_u (dp_u - Σ p dp) scale, and for ds_u != 0, dq_t +=
  /// ds_u k_u, dk_u += ds_u q_t.  NC > 0 keeps dq_t in NC lane blocks of
  /// registers (hd == NC * W); NC == 0 updates it in memory.  dq_t, k_u,
  /// dk_u and dv_u are disjoint slices of the QKV rows, so both give every
  /// element the same u-ascending additions.
  template <std::size_t NC>
  static void grad_row(const float* prow, const float* dp, float dp_row_dot,
                       float scale, std::size_t n, const float* dctx_t,
                       const float* q, float* dq, const float* k,
                       float* dk, float* dv, std::size_t row,
                       std::size_t hd) {
    F acc[NC > 0 ? NC : 1];
    if constexpr (NC > 0) {
      for (std::size_t j = 0; j < NC; ++j) acc[j] = load(dq + j * W);
    }
    for (std::size_t u = 0; u < n; ++u) {
      axpy(dv + u * row, prow[u], dctx_t, hd);
      const float ds = prow[u] * (dp[u] - dp_row_dot) * scale;
      if (ds == 0.0f) continue;
      const float* k_u = k + u * row;
      if constexpr (NC > 0) {
        for (std::size_t j = 0; j < NC; ++j) {
          acc[j] = acc[j] + ds * load(k_u + j * W);
        }
      } else {
        axpy(dq, ds, k_u, hd);
      }
      axpy(dk + u * row, ds, q, hd);
    }
    if constexpr (NC > 0) {
      for (std::size_t j = 0; j < NC; ++j) store(dq + j * W, acc[j]);
    }
  }

  static void attention_backward_head(const float* qkv, const float* probs,
                                      const float* dctx, float* dqkv,
                                      std::size_t t_len, std::size_t d,
                                      std::size_t head_off, std::size_t hd,
                                      float scale, float* scratch) {
    const std::size_t ld = round_up(t_len);
    float* vt = scratch;            // [hd][ld] value rows, transposed
    float* dp = scratch + hd * ld;  // [ld]
    const std::size_t row = 3 * d;
    const mem::KvSpan span{qkv + d, qkv + 2 * d, t_len};
    pack_transposed(RowCursor{&span, row, head_off, true}, t_len, hd, vt, ld);
    const float* k = qkv + d + head_off;
    float* dk = dqkv + d + head_off;
    float* dv = dqkv + 2 * d + head_off;
    for (std::size_t t = 0; t < t_len; ++t) {
      const std::size_t n = t + 1;
      const float* dctx_t = dctx + t * d + head_off;
      const float* prow = probs + t * t_len;
      // dp[u] = dctx_t · v_u, one chain per key, lanes across keys.
      dots_packed<false>(dctx_t, vt, ld, n, hd, 1.0f, dp);
      float dp_row_dot = 0.0f;
      for (std::size_t u = 0; u < n; ++u) dp_row_dot += prow[u] * dp[u];
      const float* q = qkv + t * row + head_off;
      float* dq = dqkv + t * row + head_off;
      switch (hd == W ? 1 : hd == 2 * W ? 2 : hd == 4 * W ? 4 : 0) {
        case 1:
          grad_row<1>(prow, dp, dp_row_dot, scale, n, dctx_t, q, dq, k, dk,
                      dv, row, hd);
          break;
        case 2:
          grad_row<2>(prow, dp, dp_row_dot, scale, n, dctx_t, q, dq, k, dk,
                      dv, row, hd);
          break;
        case 4:
          grad_row<4>(prow, dp, dp_row_dot, scale, n, dctx_t, q, dq, k, dk,
                      dv, row, hd);
          break;
        default:
          grad_row<0>(prow, dp, dp_row_dot, scale, n, dctx_t, q, dq, k, dk,
                      dv, row, hd);
          break;
      }
    }
  }

  // ---- optimizer (adamw.hpp) -----------------------------------------

  static void adamw_update(float* w, const float* g, float* m, float* v,
                           std::size_t n, const AdamWStepParams& p) {
    // Every op is a correctly rounded double mul/add/div/sqrt or a
    // float<->double conversion, so W/2 lanes give the scalar bits.
    constexpr std::size_t L = W / 2;
    std::size_t i = 0;
    for (; i + L <= n; i += L) {
      const D gi = S::widen(load_half(g + i)) * p.clip_scale;
      const H mf = S::narrow(p.beta1 * S::widen(load_half(m + i)) +
                             p.one_minus_beta1 * gi);
      const H vf = S::narrow(p.beta2 * S::widen(load_half(v + i)) +
                             p.one_minus_beta2 * gi * gi);
      store_half(m + i, mf);
      store_half(v + i, vf);
      const D mhat = S::widen(mf) / p.bias_correction1;
      const D vhat = S::widen(vf) / p.bias_correction2;
      D update = mhat / (S::sqrt(vhat) + p.eps);
      const D wi = S::widen(load_half(w + i));
      update = update + p.weight_decay * wi;
      store_half(w + i, S::narrow(wi - p.lr * update));
    }
    for (; i < n; ++i) {
      const double gi = static_cast<double>(g[i]) * p.clip_scale;
      m[i] = static_cast<float>(p.beta1 * m[i] + p.one_minus_beta1 * gi);
      v[i] = static_cast<float>(p.beta2 * v[i] + p.one_minus_beta2 * gi * gi);
      const double mhat = m[i] / p.bias_correction1;
      const double vhat = v[i] / p.bias_correction2;
      double update = mhat / (::sqrt(vhat) + p.eps);
      update += p.weight_decay * static_cast<double>(w[i]);
      w[i] = static_cast<float>(w[i] - p.lr * update);
    }
  }

  static const F32Kernels& table() {
    static const F32Kernels kernels{
        .lanes = W,
        .matmul = &matmul,
        .matmul_transposed_b = &matmul_transposed_b,
        .matmul_grad_b = &matmul_grad_b,
        .add_into = &add_into,
        .layer_norm = &layer_norm,
        .layer_norm_backward = &layer_norm_backward,
        .gelu = &gelu,
        .gelu_matmul = &gelu_matmul,
        .gelu_from_tanh = &gelu_from_tanh,
        .gelu_backward = &gelu_backward,
        .softmax_rows = &softmax_rows,
        .attend_rows = &attend_rows,
        .attention_backward_head = &attention_backward_head,
        .adamw_update = &adamw_update,
    };
    return kernels;
  }
};

}  // namespace
}  // namespace lmpeel::lm
