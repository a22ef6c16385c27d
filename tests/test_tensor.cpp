#include "lm/tensor.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace lmpeel::lm {
namespace {

TEST(Tensor, ShapeAndAccess) {
  Tensor t(2, 3);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 3u);
  EXPECT_EQ(t.size(), 6u);
  t.at(1, 2) = 5.0f;
  EXPECT_FLOAT_EQ(t.at(1, 2), 5.0f);
  EXPECT_FLOAT_EQ(t.row(1)[2], 5.0f);
  t.zero();
  EXPECT_FLOAT_EQ(t.at(1, 2), 0.0f);
}

TEST(Matmul, MatchesHandComputed) {
  Tensor a(2, 3), b(3, 2), out(2, 2);
  const float av[] = {1, 2, 3, 4, 5, 6};
  const float bv[] = {7, 8, 9, 10, 11, 12};
  std::copy(av, av + 6, a.data());
  std::copy(bv, bv + 6, b.data());
  matmul(a, b, out);
  EXPECT_FLOAT_EQ(out.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(out.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(out.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(out.at(1, 1), 154.0f);
}

TEST(Matmul, ShapeMismatchThrows) {
  Tensor a(2, 3), b(2, 2), out(2, 2);
  EXPECT_THROW(matmul(a, b, out), std::runtime_error);
}

TEST(MatmulGrads, ConsistentWithFiniteDifferences) {
  // d/dA sum(A*B) and d/dB sum(A*B) against numeric perturbation.
  util::Rng rng(1);
  Tensor a(3, 4), b(4, 2), out(3, 2);
  a.randomize(rng, 1.0f);
  b.randomize(rng, 1.0f);
  matmul(a, b, out);

  // loss = sum(out); dOut = ones.
  Tensor dout(3, 2);
  for (std::size_t i = 0; i < dout.size(); ++i) dout.data()[i] = 1.0f;
  Tensor da(3, 4), db(4, 2);
  matmul_grad_a(dout, b, da);
  matmul_grad_b(a, dout, db);

  const float eps = 1e-2f;
  auto loss = [&] {
    Tensor tmp(3, 2);
    matmul(a, b, tmp);
    float s = 0.0f;
    for (std::size_t i = 0; i < tmp.size(); ++i) s += tmp.data()[i];
    return s;
  };
  for (const std::size_t i : {0u, 5u, 11u}) {
    const float orig = a.data()[i];
    a.data()[i] = orig + eps;
    const float up = loss();
    a.data()[i] = orig - eps;
    const float down = loss();
    a.data()[i] = orig;
    EXPECT_NEAR((up - down) / (2 * eps), da.data()[i], 1e-2f);
  }
  for (const std::size_t i : {0u, 3u, 7u}) {
    const float orig = b.data()[i];
    b.data()[i] = orig + eps;
    const float up = loss();
    b.data()[i] = orig - eps;
    const float down = loss();
    b.data()[i] = orig;
    EXPECT_NEAR((up - down) / (2 * eps), db.data()[i], 1e-2f);
  }
}

// Reference kernels: the plain loops these products were first written
// as.  Each fixes the add sequence the blocked kernels must reproduce.
void naive_transposed_b(const Tensor& a, const Tensor& bt, Tensor& out) {
  const std::size_t m = a.rows(), k = a.cols(), n = bt.rows();
  for (std::size_t i = 0; i < m; ++i) {
    const float* a_row = a.data() + i * k;
    for (std::size_t j = 0; j < n; ++j) {
      const float* bt_row = bt.data() + j * k;
      float acc = 0.0f;
      for (std::size_t c = 0; c < k; ++c) acc += a_row[c] * bt_row[c];
      out.data()[i * n + j] = acc;
    }
  }
}

void naive_grad_a(const Tensor& grad, const Tensor& b, Tensor& da) {
  const std::size_t m = grad.rows(), n = grad.cols(), k = b.rows();
  for (std::size_t i = 0; i < m; ++i) {
    const float* g_row = grad.data() + i * n;
    float* da_row = da.data() + i * k;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float* b_row = b.data() + kk * n;
      float acc = 0.0f;
      for (std::size_t j = 0; j < n; ++j) acc += g_row[j] * b_row[j];
      da_row[kk] += acc;
    }
  }
}

// Skips zero terms, as the first matmul_grad_b did; that can only change
// the sign of a zero result (see GradBZeroTermFlipsOnlyTheSignOfZero).
void naive_grad_b(const Tensor& a, const Tensor& grad, Tensor& db) {
  const std::size_t m = a.rows(), k = a.cols(), n = grad.cols();
  for (std::size_t i = 0; i < m; ++i) {
    const float* a_row = a.data() + i * k;
    const float* g_row = grad.data() + i * n;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float aik = a_row[kk];
      if (aik == 0.0f) continue;
      float* db_row = db.data() + kk * n;
      for (std::size_t j = 0; j < n; ++j) db_row[j] += aik * g_row[j];
    }
  }
}

// N(0, 1) entries with about one in eight set to exactly zero.
Tensor seeded(std::size_t rows, std::size_t cols, util::Rng& rng) {
  Tensor t(rows, cols);
  t.randomize(rng, 1.0f);
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (rng.uniform() < 0.125) t.data()[i] = 0.0f;
  }
  return t;
}

// EXPECT_EQ on every float; with `same_bits` the bit patterns must match
// too, so a flipped zero sign also fails.  Stops at the first mismatch.
void expect_same(const Tensor& got, const Tensor& want, bool same_bits,
                 const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const float g = got.data()[i], w = want.data()[i];
    EXPECT_EQ(g, w) << label << " element " << i;
    if (same_bits) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(g), std::bit_cast<std::uint32_t>(w))
          << label << " element " << i;
    }
    if (::testing::Test::HasFailure()) return;
  }
}

// Shapes reach every tail of the 8-row blocks and 32-wide panels.
constexpr std::size_t kMs[] = {1, 2, 7, 8, 9, 70};
constexpr std::size_t kKs[] = {1, 15, 16, 17, 64, 256};
constexpr std::size_t kNs[] = {1, 31, 32, 33, 64, 1361};

std::string shape_label(std::size_t m, std::size_t k, std::size_t n) {
  return "m=" + std::to_string(m) + " k=" + std::to_string(k) +
         " n=" + std::to_string(n);
}

TEST(MatmulTransposedB, BitIdenticalToNaiveDots) {
  util::Rng rng(31);
  for (const std::size_t m : kMs) {
    for (const std::size_t k : kKs) {
      for (const std::size_t n : kNs) {
        const Tensor a = seeded(m, k, rng), bt = seeded(n, k, rng);
        Tensor got(m, n), want(m, n);
        matmul_transposed_b(a, bt, got);
        naive_transposed_b(a, bt, want);
        expect_same(got, want, true, shape_label(m, k, n));
        if (HasFailure()) return;
      }
    }
  }
}

TEST(MatmulGradA, BitIdenticalToNaiveDots) {
  util::Rng rng(32);
  for (const std::size_t m : kMs) {
    for (const std::size_t k : kKs) {
      for (const std::size_t n : kNs) {
        // grad [m x k] · b^T with b [n x k]: da is [m x n].
        const Tensor grad = seeded(m, k, rng), b = seeded(n, k, rng);
        for (const bool zero_start : {true, false}) {
          Tensor got = zero_start ? Tensor(m, n) : seeded(m, n, rng);
          Tensor want = got;
          matmul_grad_a(grad, b, got);
          naive_grad_a(grad, b, want);
          expect_same(got, want, true,
                      shape_label(m, k, n) + (zero_start ? " zero" : " acc"));
          if (HasFailure()) return;
        }
      }
    }
  }
}

TEST(MatmulGradB, EqualToNaiveAccumulation) {
  util::Rng rng(33);
  for (const std::size_t m : kMs) {
    for (const std::size_t k : kKs) {
      for (const std::size_t n : kNs) {
        // a [m x k], grad [m x n]: db is [k x n].
        const Tensor a = seeded(m, k, rng), grad = seeded(m, n, rng);
        for (const bool zero_start : {true, false}) {
          Tensor got = zero_start ? Tensor(k, n) : seeded(k, n, rng);
          Tensor want = got;
          matmul_grad_b(a, grad, got);
          naive_grad_b(a, grad, want);
          expect_same(got, want, false,
                      shape_label(m, k, n) + (zero_start ? " zero" : " acc"));
          if (HasFailure()) return;
        }
      }
    }
  }
}

TEST(MatmulGradB, ZeroTermFlipsOnlyTheSignOfZero) {
  // db = -0.0f plus the product 0 * 1 = +0.0f: IEEE gives +0.0f.  The
  // skip-zero reference never adds the term and leaves -0.0f.  The two
  // compare equal; only the sign of the zero differs.
  Tensor a(1, 1), grad(1, 1), got(1, 1);
  grad.at(0, 0) = 1.0f;
  got.at(0, 0) = -0.0f;
  Tensor want = got;
  matmul_grad_b(a, grad, got);
  naive_grad_b(a, grad, want);
  EXPECT_EQ(got.at(0, 0), want.at(0, 0));
  EXPECT_FALSE(std::signbit(got.at(0, 0)));
  EXPECT_TRUE(std::signbit(want.at(0, 0)));
}

TEST(LayerNorm, NormalisesRows) {
  Tensor x(2, 4), y(2, 4);
  const float xv[] = {1, 2, 3, 4, 10, 10, 10, 10};
  std::copy(xv, xv + 8, x.data());
  std::vector<float> gamma(4, 1.0f), beta(4, 0.0f);
  LayerNormCache cache;
  layer_norm(x, gamma, beta, y, cache);
  // Row 0: mean 2.5, normalised values symmetric around 0.
  float mean = 0.0f, var = 0.0f;
  for (std::size_t c = 0; c < 4; ++c) mean += y.at(0, c);
  EXPECT_NEAR(mean, 0.0f, 1e-5f);
  for (std::size_t c = 0; c < 4; ++c) var += y.at(0, c) * y.at(0, c);
  EXPECT_NEAR(var / 4.0f, 1.0f, 1e-3f);
  // Constant row maps to beta (zero).
  for (std::size_t c = 0; c < 4; ++c) EXPECT_NEAR(y.at(1, c), 0.0f, 1e-2f);
}

TEST(LayerNorm, GammaBetaApplied) {
  Tensor x(1, 2), y(1, 2);
  x.at(0, 0) = -1.0f;
  x.at(0, 1) = 1.0f;
  std::vector<float> gamma{2.0f, 2.0f}, beta{1.0f, 1.0f};
  LayerNormCache cache;
  layer_norm(x, gamma, beta, y, cache);
  EXPECT_NEAR(y.at(0, 0), 1.0f - 2.0f, 1e-4f);
  EXPECT_NEAR(y.at(0, 1), 1.0f + 2.0f, 1e-4f);
}

TEST(Gelu, KnownPointsAndMonotoneRegion) {
  Tensor x(1, 3), y(1, 3);
  x.at(0, 0) = 0.0f;
  x.at(0, 1) = 10.0f;
  x.at(0, 2) = -10.0f;
  gelu(x, y);
  EXPECT_NEAR(y.at(0, 0), 0.0f, 1e-6f);
  EXPECT_NEAR(y.at(0, 1), 10.0f, 1e-3f);
  EXPECT_NEAR(y.at(0, 2), 0.0f, 1e-3f);
}

// tanh(u) per element, as the training forward caches it.
Tensor cached_tanh(const Tensor& x) {
  Tensor w(x.cols(), 1), out(x.rows(), 1), tanh_u(x.rows(), x.cols());
  gelu_matmul(x, w, out, tanh_u);
  return tanh_u;
}

TEST(Gelu, CachedTanhRebuildsIdenticalOutput) {
  util::Rng rng(12);
  // 19 rows: two full 8-row blocks of gelu_matmul and a 3-row tail.
  Tensor x(19, 40), w(40, 33);
  x.randomize(rng, 3.0f);
  w.randomize(rng, 1.0f);
  Tensor y(19, 40), tanh_u(19, 40), y_rebuilt(19, 40);
  Tensor want(19, 33), got(19, 33);
  gelu(x, y);
  matmul(y, w, want);
  gelu_matmul(x, w, got, tanh_u);
  gelu_from_tanh(x, tanh_u, y_rebuilt);
  expect_same(got, want, true, "gelu_matmul");
  expect_same(y_rebuilt, y, true, "gelu_from_tanh");

  // The backward from the cached tanh matches the one that re-evaluated it.
  Tensor dy(19, 40), dx(19, 40), dx_want(19, 40);
  dy.randomize(rng, 1.0f);
  gelu_backward(x, tanh_u, dy, dx);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const float c = 0.7978845608028654f;
    const float v = x.data()[i];
    const float t = std::tanh(c * (v + 0.044715f * v * v * v));
    const float du = c * (1.0f + 3.0f * 0.044715f * v * v);
    const float grad = 0.5f * (1.0f + t) + 0.5f * v * (1.0f - t * t) * du;
    dx_want.data()[i] += dy.data()[i] * grad;
  }
  expect_same(dx, dx_want, true, "gelu_backward");
}

TEST(GeluBackward, MatchesFiniteDifference) {
  Tensor x(1, 5), dy(1, 5), dx(1, 5);
  const float xv[] = {-2.0f, -0.5f, 0.0f, 0.7f, 2.0f};
  std::copy(xv, xv + 5, x.data());
  for (std::size_t i = 0; i < 5; ++i) dy.data()[i] = 1.0f;
  gelu_backward(x, cached_tanh(x), dy, dx);
  const float eps = 1e-3f;
  for (std::size_t i = 0; i < 5; ++i) {
    Tensor xp = x, xm = x, yp(1, 5), ym(1, 5);
    xp.data()[i] += eps;
    xm.data()[i] -= eps;
    gelu(xp, yp);
    gelu(xm, ym);
    const float fd = (yp.data()[i] - ym.data()[i]) / (2 * eps);
    EXPECT_NEAR(fd, dx.data()[i], 1e-3f);
  }
}

TEST(SoftmaxRows, RowsSumToOne) {
  Tensor x(2, 3);
  const float xv[] = {1, 2, 3, -1, 0, 1};
  std::copy(xv, xv + 6, x.data());
  softmax_rows(x);
  for (std::size_t r = 0; r < 2; ++r) {
    float sum = 0.0f;
    for (std::size_t c = 0; c < 3; ++c) {
      sum += x.at(r, c);
      EXPECT_GT(x.at(r, c), 0.0f);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-6f);
  }
  EXPECT_GT(x.at(0, 2), x.at(0, 1));
}

TEST(Randomize, ApproximateMoments) {
  util::Rng rng(5);
  Tensor t(100, 100);
  t.randomize(rng, 0.5f);
  double sum = 0.0, sq = 0.0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    sum += t.data()[i];
    sq += static_cast<double>(t.data()[i]) * t.data()[i];
  }
  EXPECT_NEAR(sum / t.size(), 0.0, 0.01);
  EXPECT_NEAR(sq / t.size(), 0.25, 0.01);
}

}  // namespace
}  // namespace lmpeel::lm
