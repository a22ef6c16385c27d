// Cross-arch test of the dispatched f32 kernels (DESIGN.md §17).
//
// Every kernel copy the host can run (scalar, AVX2, AVX-512) must give the
// same bits as the scalar copy and as a naive loop copied from the
// pre-dispatch scalar code.  The naive loops below are that reference:
// one float operation sequence per output element, written out plainly.
// The suite is registered twice (second run under LMPEEL_FORCE_ARCH=scalar)
// so the public wrappers are also exercised on the baseline copy.
#include "lm/f32_kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "lm/adamw.hpp"
#include "lm/attention.hpp"
#include "lm/tensor.hpp"
#include "util/arch.hpp"
#include "util/rng.hpp"

namespace lmpeel::lm {
namespace {

using util::Arch;

std::vector<Arch> supported_archs() {
  std::vector<Arch> archs{Arch::kScalar};
  if (util::arch_supported(Arch::kAvx2)) archs.push_back(Arch::kAvx2);
  if (util::arch_supported(Arch::kAvx512)) archs.push_back(Arch::kAvx512);
  return archs;
}

std::vector<float> random_floats(std::size_t n, std::uint64_t seed,
                                 float scale = 1.0f) {
  util::Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.normal(0.0, scale));
  return v;
}

/// Bit patterns, so +0.0f and -0.0f (and NaN payloads) count as different.
std::vector<std::uint32_t> bits(const float* p, std::size_t n) {
  std::vector<std::uint32_t> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = std::bit_cast<std::uint32_t>(p[i]);
  return out;
}
std::vector<std::uint32_t> bits(const std::vector<float>& v) {
  return bits(v.data(), v.size());
}

// ---- naive references ------------------------------------------------

void naive_matmul(const float* a, const float* b, float* out, std::size_t m,
                  std::size_t k, std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) acc += a[i * k + kk] * b[kk * n + j];
      out[i * n + j] = acc;
    }
  }
}

void naive_matmul_transposed_b(const float* a, const float* bt, float* out,
                               std::size_t m, std::size_t k, std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t c = 0; c < k; ++c) acc += a[i * k + c] * bt[j * k + c];
      out[i * n + j] = acc;
    }
  }
}

void naive_matmul_grad_b(const float* a, const float* grad, float* db,
                         std::size_t m, std::size_t k, std::size_t n) {
  for (std::size_t kk = 0; kk < k; ++kk) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = db[kk * n + j];
      for (std::size_t i = 0; i < m; ++i) acc += a[i * k + kk] * grad[i * n + j];
      db[kk * n + j] = acc;
    }
  }
}

/// attend_row as it was before dispatch: one serial chain per key.
void naive_attend_row(const float* q, const mem::KvSpan* spans,
                      std::size_t n_spans, std::size_t stride,
                      std::size_t head_off, std::size_t n, std::size_t hd,
                      float scale, float* prow, float* ctx) {
  float hi = -1e30f;
  std::size_t u = 0;
  for (std::size_t s = 0; s < n_spans && u < n; ++s) {
    const float* kbase = spans[s].k + head_off;
    const std::size_t rows = std::min(spans[s].tokens, n - u);
    for (std::size_t r = 0; r < rows; ++r, ++u) {
      const float* k = kbase + r * stride;
      float acc = 0.0f;
      for (std::size_t c = 0; c < hd; ++c) acc += q[c] * k[c];
      prow[u] = acc * scale;
      hi = std::max(hi, prow[u]);
    }
  }
  float sum = 0.0f;
  for (std::size_t w = 0; w < n; ++w) {
    prow[w] = std::exp(prow[w] - hi);
    sum += prow[w];
  }
  const float inv = 1.0f / sum;
  for (std::size_t w = 0; w < n; ++w) prow[w] *= inv;
  std::fill_n(ctx, hd, 0.0f);
  u = 0;
  for (std::size_t s = 0; s < n_spans && u < n; ++s) {
    const float* vbase = spans[s].v + head_off;
    const std::size_t rows = std::min(spans[s].tokens, n - u);
    for (std::size_t r = 0; r < rows; ++r, ++u) {
      const float p = prow[u];
      if (p == 0.0f) continue;
      const float* v = vbase + r * stride;
      for (std::size_t c = 0; c < hd; ++c) ctx[c] += p * v[c];
    }
  }
}

/// The attention backward as it was inlined in loss_and_backward.
void naive_attention_backward(const std::vector<float>& qkv,
                              const std::vector<std::vector<float>>& probs,
                              const std::vector<float>& dctx,
                              std::size_t t_len, std::size_t d,
                              std::size_t n_head, float scale,
                              std::vector<float>& dqkv) {
  const std::size_t hd = d / n_head;
  for (std::size_t h = 0; h < n_head; ++h) {
    const std::size_t qo = h * hd, ko = d + h * hd, vo = 2 * d + h * hd;
    for (std::size_t t = 0; t < t_len; ++t) {
      const float* dctx_t = dctx.data() + t * d + h * hd;
      const float* prow = probs[h].data() + t * t_len;
      float dp_row_dot = 0.0f;
      std::vector<float> dp(t + 1);
      for (std::size_t u = 0; u <= t; ++u) {
        const float* vv = qkv.data() + u * 3 * d + vo;
        float acc = 0.0f;
        for (std::size_t c = 0; c < hd; ++c) acc += dctx_t[c] * vv[c];
        dp[u] = acc;
        dp_row_dot += prow[u] * acc;
        float* dv = dqkv.data() + u * 3 * d + vo;
        for (std::size_t c = 0; c < hd; ++c) dv[c] += prow[u] * dctx_t[c];
      }
      const float* q = qkv.data() + t * 3 * d + qo;
      float* dq = dqkv.data() + t * 3 * d + qo;
      for (std::size_t u = 0; u <= t; ++u) {
        const float ds = prow[u] * (dp[u] - dp_row_dot) * scale;
        if (ds == 0.0f) continue;
        const float* k = qkv.data() + u * 3 * d + ko;
        float* dk = dqkv.data() + u * 3 * d + ko;
        for (std::size_t c = 0; c < hd; ++c) {
          dq[c] += ds * k[c];
          dk[c] += ds * q[c];
        }
      }
    }
  }
}

void naive_adamw(float* w, const float* g, float* m, float* v, std::size_t n,
                 const AdamWStepParams& p) {
  for (std::size_t i = 0; i < n; ++i) {
    const double gi = static_cast<double>(g[i]) * p.clip_scale;
    m[i] = static_cast<float>(p.beta1 * m[i] + (1.0 - p.beta1) * gi);
    v[i] = static_cast<float>(p.beta2 * v[i] + (1.0 - p.beta2) * gi * gi);
    const double mhat = m[i] / p.bias_correction1;
    const double vhat = v[i] / p.bias_correction2;
    double update = mhat / (std::sqrt(vhat) + p.eps);
    update += p.weight_decay * static_cast<double>(w[i]);
    w[i] = static_cast<float>(w[i] - p.lr * update);
  }
}

// ---- matmul family -----------------------------------------------------

struct Shape {
  std::size_t m, k, n;
};
const Shape kShapes[] = {{1, 16, 16},  {3, 7, 5},     {7, 20, 33},
                         {8, 64, 32},  {9, 64, 70},   {17, 65, 96},
                         {70, 64, 256}, {70, 256, 64}};

TEST(F32Kernels, MatmulFamilyBitIdenticalOnEveryArch) {
  for (const Shape& s : kShapes) {
    const auto a = random_floats(s.m * s.k, 1 + s.m);
    const auto b = random_floats(s.k * s.n, 2 + s.n);
    const auto bt = random_floats(s.n * s.k, 3 + s.k);
    const auto grad = random_floats(s.m * s.n, 4 + s.n);
    const auto db0 = random_floats(s.k * s.n, 5);

    std::vector<float> ref_mm(s.m * s.n), ref_tb(s.m * s.n), ref_gb = db0;
    naive_matmul(a.data(), b.data(), ref_mm.data(), s.m, s.k, s.n);
    naive_matmul_transposed_b(a.data(), bt.data(), ref_tb.data(), s.m, s.k,
                              s.n);
    naive_matmul_grad_b(a.data(), grad.data(), ref_gb.data(), s.m, s.k, s.n);

    for (const Arch arch : supported_archs()) {
      const F32Kernels& k = f32_kernels(arch);
      const std::string what = std::string(util::arch_name(arch)) + " m=" +
                               std::to_string(s.m) + " k=" +
                               std::to_string(s.k) + " n=" +
                               std::to_string(s.n);
      std::vector<float> mm(s.m * s.n, 7.0f), tb(s.m * s.n, 7.0f), gb = db0;
      std::vector<float> panel(s.k * kF32Panel), at(s.k * s.m);
      k.matmul(a.data(), b.data(), mm.data(), s.m, s.k, s.n);
      k.matmul_transposed_b(a.data(), bt.data(), tb.data(), s.m, s.k, s.n,
                            panel.data());
      k.matmul_grad_b(a.data(), grad.data(), gb.data(), s.m, s.k, s.n,
                      at.data());
      EXPECT_EQ(bits(mm), bits(ref_mm)) << "matmul " << what;
      EXPECT_EQ(bits(tb), bits(ref_tb)) << "matmul_transposed_b " << what;
      EXPECT_EQ(bits(gb), bits(ref_gb)) << "matmul_grad_b " << what;
    }
  }
}

TEST(F32Kernels, ElementwiseKernelsBitIdenticalAcrossArchs) {
  const std::size_t rows = 13, cols = 70, n = rows * cols;
  const auto x = random_floats(n, 11, 2.0f);
  const auto dy = random_floats(n, 12);
  const auto gamma = random_floats(cols, 13);
  const auto beta = random_floats(cols, 14);
  const auto w = random_floats(cols * 33, 15);

  struct Out {
    std::vector<float> ln, mean, inv, dx, dg, db, gl, tanh_u, gm, gft, gb, sm;
  };
  auto run = [&](const F32Kernels& k) {
    Out o;
    o.ln.resize(n);
    o.mean.resize(rows);
    o.inv.resize(rows);
    k.layer_norm(x.data(), gamma.data(), beta.data(), o.ln.data(),
                 o.mean.data(), o.inv.data(), rows, cols);
    o.dx = dy;
    o.dg.assign(cols, 0.5f);
    o.db.assign(cols, -0.5f);
    k.layer_norm_backward(x.data(), gamma.data(), dy.data(), o.mean.data(),
                          o.inv.data(), o.dx.data(), o.dg.data(), o.db.data(),
                          rows, cols);
    o.gl.resize(n);
    k.gelu(x.data(), o.gl.data(), n);
    o.tanh_u.resize(n);
    o.gm.resize(rows * 33);
    std::vector<float> g(kF32RowBlock * cols);
    k.gelu_matmul(x.data(), w.data(), o.gm.data(), o.tanh_u.data(), rows,
                  cols, 33, g.data());
    o.gft.resize(n);
    k.gelu_from_tanh(x.data(), o.tanh_u.data(), o.gft.data(), n);
    o.gb = dy;
    k.gelu_backward(x.data(), o.tanh_u.data(), dy.data(), o.gb.data(), n);
    o.sm = x;
    k.softmax_rows(o.sm.data(), rows, cols);
    return o;
  };
  const Out ref = run(f32_kernels(Arch::kScalar));
  EXPECT_EQ(bits(ref.gft), bits(ref.gl));  // cached tanh rebuilds gelu
  for (const Arch arch : supported_archs()) {
    const Out got = run(f32_kernels(arch));
    const char* name = util::arch_name(arch);
    EXPECT_EQ(bits(got.ln), bits(ref.ln)) << name;
    EXPECT_EQ(bits(got.mean), bits(ref.mean)) << name;
    EXPECT_EQ(bits(got.inv), bits(ref.inv)) << name;
    EXPECT_EQ(bits(got.dx), bits(ref.dx)) << name;
    EXPECT_EQ(bits(got.dg), bits(ref.dg)) << name;
    EXPECT_EQ(bits(got.db), bits(ref.db)) << name;
    EXPECT_EQ(bits(got.gl), bits(ref.gl)) << name;
    EXPECT_EQ(bits(got.tanh_u), bits(ref.tanh_u)) << name;
    EXPECT_EQ(bits(got.gm), bits(ref.gm)) << name;
    EXPECT_EQ(bits(got.gb), bits(ref.gb)) << name;
    EXPECT_EQ(bits(got.sm), bits(ref.sm)) << name;
  }
}

// ---- attention -----------------------------------------------------------

/// K/V rows for `n` positions laid out as `stride`-float rows, cut into
/// spans of the given sizes (the last span takes the rest).
struct KvFixture {
  std::vector<float> k, v;
  std::vector<mem::KvSpan> spans;

  KvFixture(std::size_t n, std::size_t stride, std::uint64_t seed,
            const std::vector<std::size_t>& cuts) {
    k = random_floats(n * stride, seed);
    v = random_floats(n * stride, seed + 1);
    std::size_t at = 0;
    for (const std::size_t cut : cuts) {
      if (at >= n) break;
      const std::size_t take = std::min(cut, n - at);
      spans.push_back({k.data() + at * stride, v.data() + at * stride, take});
      at += take;
    }
    if (at < n) {
      spans.push_back({k.data() + at * stride, v.data() + at * stride, n - at});
    }
  }
};

const std::size_t kHeadDims[] = {8, 16, 20, 64};
const std::size_t kLengths[] = {1, 15, 16, 17, 96, 408};

TEST(F32Kernels, AttendRowBitIdenticalOnEveryArchAndSpanLayout) {
  const std::vector<std::vector<std::size_t>> layouts = {
      {}, {16, 16, 16, 16, 16, 16, 16, 16}, {5, 13, 1, 40, 7}};
  for (const std::size_t hd : kHeadDims) {
    const std::size_t stride = 3 * hd + 4;  // three heads plus padding
    const std::size_t head_off = hd + 2;
    for (const std::size_t n : kLengths) {
      for (std::size_t l = 0; l < layouts.size(); ++l) {
        // A large scale drives far keys' probabilities to exactly zero,
        // exercising the p == 0 skip.
        for (const float scale : {0.25f, 40.0f}) {
          const KvFixture kv(n, stride, 100 + n + hd, layouts[l]);
          const auto q = random_floats(hd, 7 + n);
          std::vector<float> ref_p(n), ref_ctx(hd);
          naive_attend_row(q.data(), kv.spans.data(), kv.spans.size(), stride,
                           head_off, n, hd, scale, ref_p.data(),
                           ref_ctx.data());
          for (const Arch arch : supported_archs()) {
            const F32Kernels& k = f32_kernels(arch);
            std::vector<float> p(n, 9.0f), ctx(hd, 9.0f);
            std::vector<float> kt(hd * ((n + k.lanes - 1) / k.lanes * k.lanes));
            k.attend_rows(q.data(), 0, kv.spans.data(), stride, head_off,
                          n - 1, 1, hd, scale, p.data(), 0, ctx.data(), 0,
                          kt.data());
            const std::string what = std::string(util::arch_name(arch)) +
                                     " hd=" + std::to_string(hd) + " n=" +
                                     std::to_string(n) + " layout " +
                                     std::to_string(l);
            EXPECT_EQ(bits(p), bits(ref_p)) << what;
            EXPECT_EQ(bits(ctx), bits(ref_ctx)) << what;
          }
          // The public wrapper runs the dispatched copy.
          std::vector<float> p(n), ctx(hd);
          attend_row(q.data(), kv.spans.data(), kv.spans.size(), stride,
                     head_off, n, hd, scale, p.data(), ctx.data());
          EXPECT_EQ(bits(p), bits(ref_p));
          EXPECT_EQ(bits(ctx), bits(ref_ctx));
        }
      }
    }
  }
}

TEST(F32Kernels, AttendRowsEqualsOneAttendRowPerRow) {
  for (const std::size_t hd : kHeadDims) {
    const std::size_t d = 2 * hd, stride = 3 * d;
    for (const std::size_t first : {std::size_t{0}, std::size_t{13}}) {
      const std::size_t rows = 40, n_max = first + rows;
      const KvFixture kv(n_max, stride, 300 + hd, {16, 16, 9, 64});
      const auto q = random_floats(rows * stride, 17);
      std::vector<float> probs(rows * n_max, 0.0f), ctx(rows * d, 0.0f);
      attend_rows(q.data() + hd, stride, kv.spans.data(), kv.spans.size(),
                  stride, d + hd, first, rows, hd, 0.3f, probs.data(), n_max,
                  ctx.data() + hd, d);
      for (std::size_t r = 0; r < rows; ++r) {
        const std::size_t n = first + r + 1;
        std::vector<float> ref_p(n), ref_ctx(hd);
        naive_attend_row(q.data() + r * stride + hd, kv.spans.data(),
                         kv.spans.size(), stride, d + hd, n, hd, 0.3f,
                         ref_p.data(), ref_ctx.data());
        EXPECT_EQ(bits(probs.data() + r * n_max, n), bits(ref_p))
            << "hd=" << hd << " row " << r;
        EXPECT_EQ(bits(ctx.data() + r * d + hd, hd), bits(ref_ctx))
            << "hd=" << hd << " row " << r;
        // Causal remainder untouched.
        for (std::size_t u = n; u < n_max; ++u) {
          EXPECT_EQ(probs[r * n_max + u], 0.0f);
        }
      }
    }
  }
}

TEST(F32Kernels, AttentionBackwardBitIdenticalOnEveryArch) {
  for (const std::size_t hd : kHeadDims) {
    const std::size_t n_head = 2, d = n_head * hd;
    for (const std::size_t t_len : kLengths) {
      const auto qkv = random_floats(t_len * 3 * d, 40 + t_len);
      const auto dctx = random_floats(t_len * d, 41 + t_len, 0.1f);
      const auto dqkv0 = random_floats(t_len * 3 * d, 42 + t_len, 0.01f);
      const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
      // Forward probabilities from the reference attention; one head
      // saturates so some probabilities (and dscores) are exactly zero.
      std::vector<std::vector<float>> probs(n_head);
      for (std::size_t h = 0; h < n_head; ++h) {
        probs[h].assign(t_len * t_len, 0.0f);
        const mem::KvSpan span{qkv.data() + d, qkv.data() + 2 * d, t_len};
        std::vector<float> ctx(hd);
        for (std::size_t t = 0; t < t_len; ++t) {
          naive_attend_row(qkv.data() + t * 3 * d + h * hd, &span, 1, 3 * d,
                           h * hd, t + 1, hd, h == 0 ? scale : 60.0f,
                           probs[h].data() + t * t_len, ctx.data());
        }
      }
      std::vector<float> ref = dqkv0;
      naive_attention_backward(qkv, probs, dctx, t_len, d, n_head, scale, ref);

      for (const Arch arch : supported_archs()) {
        const F32Kernels& k = f32_kernels(arch);
        std::vector<float> got = dqkv0;
        std::vector<float> scratch((hd + 1) *
                                   ((t_len + k.lanes - 1) / k.lanes * k.lanes));
        for (std::size_t h = 0; h < n_head; ++h) {
          k.attention_backward_head(qkv.data(), probs[h].data(), dctx.data(),
                                    got.data(), t_len, d, h * hd, hd, scale,
                                    scratch.data());
        }
        EXPECT_EQ(bits(got), bits(ref)) << util::arch_name(arch) << " hd="
                                        << hd << " T=" << t_len;
      }
      // Through the public wrapper (dispatched copy).
      Tensor qkv_t(t_len, 3 * d), dctx_t(t_len, d), dqkv_t(t_len, 3 * d);
      std::copy(qkv.begin(), qkv.end(), qkv_t.data());
      std::copy(dctx.begin(), dctx.end(), dctx_t.data());
      std::copy(dqkv0.begin(), dqkv0.end(), dqkv_t.data());
      std::vector<Tensor> probs_t;
      for (const auto& p : probs) {
        probs_t.emplace_back(t_len, t_len);
        std::copy(p.begin(), p.end(), probs_t.back().data());
      }
      attention_backward(qkv_t, probs_t, dctx_t, scale, dqkv_t);
      EXPECT_EQ(bits(dqkv_t.data(), dqkv_t.size()), bits(ref));
    }
  }
}

// ---- AdamW -----------------------------------------------------------------

TEST(F32Kernels, AdamWUpdateBitIdenticalOnEveryArch) {
  for (const std::size_t n : {1, 7, 8, 9, 33, 1000}) {
    const auto w0 = random_floats(n, 60 + n);
    const auto g = random_floats(n, 61 + n, 0.3f);
    const auto m0 = random_floats(n, 62 + n, 0.1f);
    std::vector<float> v0 = random_floats(n, 63 + n, 0.1f);
    for (float& x : v0) x = x * x;
    const AdamWStepParams params{
        .clip_scale = 0.7,
        .beta1 = 0.9,
        .beta2 = 0.95,
        .one_minus_beta1 = 1.0 - 0.9,
        .one_minus_beta2 = 1.0 - 0.95,
        .bias_correction1 = 1.0 - std::pow(0.9, 3.0),
        .bias_correction2 = 1.0 - std::pow(0.95, 3.0),
        .eps = 1e-8,
        .weight_decay = 0.01,
        .lr = 2.5e-3,
    };
    std::vector<float> rw = w0, rm = m0, rv = v0;
    for (int step = 0; step < 3; ++step) {
      naive_adamw(rw.data(), g.data(), rm.data(), rv.data(), n, params);
    }
    for (const Arch arch : supported_archs()) {
      std::vector<float> w = w0, m = m0, v = v0;
      for (int step = 0; step < 3; ++step) {
        f32_kernels(arch).adamw_update(w.data(), g.data(), m.data(), v.data(),
                                       n, params);
      }
      EXPECT_EQ(bits(w), bits(rw)) << util::arch_name(arch) << " n=" << n;
      EXPECT_EQ(bits(m), bits(rm)) << util::arch_name(arch) << " n=" << n;
      EXPECT_EQ(bits(v), bits(rv)) << util::arch_name(arch) << " n=" << n;
    }
  }
}

TEST(F32Kernels, AdamWStepMatchesNaiveLoop) {
  // The optimizer end to end (clipping, bias correction, the dispatched
  // update) against the pre-dispatch per-element loop.
  Tensor w(5, 7), g(5, 7);
  util::Rng rng(70);
  w.randomize(rng, 1.0f);
  g.randomize(rng, 3.0f);
  std::vector<float> rw(w.data(), w.data() + w.size());
  std::vector<float> rm(w.size(), 0.0f), rv(w.size(), 0.0f);
  AdamWConfig config;
  config.lr = 1e-2;
  AdamW opt({&w}, {&g}, config);
  for (std::size_t t = 1; t <= 4; ++t) {
    const double norm = opt.gradient_norm();
    const double clip = norm > config.clip_norm ? config.clip_norm / norm : 1.0;
    const AdamWStepParams p{
        .clip_scale = clip,
        .beta1 = config.beta1,
        .beta2 = config.beta2,
        .one_minus_beta1 = 1.0 - config.beta1,
        .one_minus_beta2 = 1.0 - config.beta2,
        .bias_correction1 =
            1.0 - std::pow(config.beta1, static_cast<double>(t)),
        .bias_correction2 =
            1.0 - std::pow(config.beta2, static_cast<double>(t)),
        .eps = config.eps,
        .weight_decay = config.weight_decay,
        .lr = config.lr,
    };
    naive_adamw(rw.data(), g.data(), rm.data(), rv.data(), w.size(), p);
    opt.step();
    EXPECT_EQ(bits(w.data(), w.size()), bits(rw)) << "step " << t;
  }
}

TEST(F32Kernels, DispatchFollowsTheProcessArch) {
  const Arch arch = util::dispatched_arch();
  EXPECT_TRUE(util::arch_supported(arch));
  EXPECT_EQ(&f32_kernels(), &f32_kernels(arch));
  if (const char* force = std::getenv("LMPEEL_FORCE_ARCH");
      force != nullptr && *force != '\0') {
    EXPECT_STREQ(util::arch_name(arch), force);
  }
}

}  // namespace
}  // namespace lmpeel::lm
