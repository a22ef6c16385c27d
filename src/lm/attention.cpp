// Checks and scratch for attention; the loops run in the dispatched
// per-arch copy (lm/f32_kernels.hpp), one copy per process.  The tied head
// and the embedding are compiled here, without -m flags.
#include "lm/attention.hpp"

#include <vector>

#include "lm/f32_kernels.hpp"
#include "util/check.hpp"

namespace lmpeel::lm {

namespace {

std::size_t round_up(std::size_t n, std::size_t lanes) {
  return (n + lanes - 1) / lanes * lanes;
}

/// Per-thread transposed-key scratch, grown to the largest request seen.
float* scratch(std::size_t floats) {
  thread_local std::vector<float> buffer;
  if (buffer.size() < floats) buffer.resize(floats);
  return buffer.data();
}

}  // namespace

void attend_row(const float* q, const mem::KvSpan* spans, std::size_t n_spans,
                std::size_t stride, std::size_t head_off, std::size_t n,
                std::size_t hd, float scale, float* prow, float* ctx) {
  LMPEEL_CHECK(n > 0);
  attend_rows(q, 0, spans, n_spans, stride, head_off, n - 1, 1, hd, scale,
              prow, 0, ctx, 0);
}

void attend_rows(const float* q, std::size_t q_stride,
                 const mem::KvSpan* spans, std::size_t n_spans,
                 std::size_t stride, std::size_t head_off, std::size_t first,
                 std::size_t rows, std::size_t hd, float scale, float* prow,
                 std::size_t p_stride, float* ctx, std::size_t ctx_stride) {
  LMPEEL_CHECK(rows > 0 && hd > 0);
  std::size_t covered = 0;
  for (std::size_t s = 0; s < n_spans; ++s) covered += spans[s].tokens;
  LMPEEL_CHECK_MSG(covered >= first + rows,
                   "attention spans cover fewer positions than requested");
  const F32Kernels& kernels = f32_kernels();
  float* kt = scratch(hd * round_up(first + rows, kernels.lanes));
  kernels.attend_rows(q, q_stride, spans, stride, head_off, first, rows, hd,
                      scale, prow, p_stride, ctx, ctx_stride, kt);
}

void attention_backward(const Tensor& qkv, std::span<const Tensor> probs,
                        const Tensor& dctx, float scale, Tensor& dqkv) {
  const std::size_t t_len = qkv.rows();
  const std::size_t d = dctx.cols();
  const std::size_t n_head = probs.size();
  LMPEEL_CHECK(n_head > 0 && d % n_head == 0);
  LMPEEL_CHECK(qkv.cols() == 3 * d && dctx.rows() == t_len);
  LMPEEL_CHECK(dqkv.rows() == t_len && dqkv.cols() == 3 * d);
  const std::size_t hd = d / n_head;
  const F32Kernels& kernels = f32_kernels();
  float* buffer = scratch((hd + 1) * round_up(t_len, kernels.lanes));
  for (std::size_t h = 0; h < n_head; ++h) {
    LMPEEL_CHECK(probs[h].rows() == t_len && probs[h].cols() == t_len);
    kernels.attention_backward_head(qkv.data(), probs[h].data(), dctx.data(),
                                    dqkv.data(), t_len, d, h * hd, hd, scale,
                                    buffer);
  }
}

[[gnu::noinline]] void tied_head_row(const Tensor& tok_emb,
                                     const float* f_row, int vocab,
                                     float* out) {
  const std::size_t d = tok_emb.cols();
  for (int v = 0; v < vocab; ++v) {
    const float* e = tok_emb.data() + static_cast<std::size_t>(v) * d;
    float acc = 0.0f;
    for (std::size_t c = 0; c < d; ++c) acc += f_row[c] * e[c];
    out[v] = acc;
  }
}

[[gnu::noinline]] void embed_row(const Tensor& tok_emb, const Tensor& pos_emb,
                                 int id, std::size_t pos, float* row) {
  const std::size_t d = tok_emb.cols();
  const float* te = tok_emb.data() + static_cast<std::size_t>(id) * d;
  const float* pe = pos_emb.data() + pos * d;
  for (std::size_t c = 0; c < d; ++c) row[c] = te[c] + pe[c];
}

}  // namespace lmpeel::lm
