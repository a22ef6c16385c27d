// Attention (forward and backward) and the shared per-row decode kernels
// (tied head, embedding).
//
// forward(), prefill_from(), decode_batch(), training and — since DESIGN.md
// §17 — the quantized backend all attend through these functions, and they
// must produce bit-identical floats for the same sequence (the serve
// engine's batched-vs-sequential equivalence guarantee, and the quantized
// backend's "KV rows are exact f32 attention" property).  Attention runs
// one dispatched copy per process (lm/f32_kernels.hpp): every caller uses
// the same copy, and every copy gives every score, probability and
// context element the same float operation sequence, so a row's result
// does not depend on the caller, the row block or the arch.  The tied head
// and the embedding are compiled once, without -m flags, and every backend
// links that one copy.
#pragma once

#include <cstddef>
#include <span>

#include "lm/tensor.hpp"
#include "mem/paged_kv.hpp"

namespace lmpeel::lm {

/// Softmax attention of one query over positions [0, n): writes the
/// normalised probabilities into prow[0..n) and the blended values into
/// ctx[0..hd).  Key/value rows are gathered from `spans` — each span's
/// `k`/`v` point at its first row and successive rows are `stride` floats
/// apart; `head_off` selects the head slice within a row.  A contiguous
/// cache passes exactly one span, a paged cache one span per page, and the
/// per-position float operations are identical either way (only the pointer
/// arithmetic between rows differs), so paged and contiguous attention are
/// bit-identical by construction (DESIGN.md §14).
///
/// Each score is q·k summed c ascending from +0.0f (SIMD lanes run across
/// keys), the softmax sum runs sequentially over scalar exps, and each
/// ctx[c] adds p_u * v_u[c] for u ascending, skipping p_u == 0 (lanes run
/// across head dims).
void attend_row(const float* q, const mem::KvSpan* spans, std::size_t n_spans,
                std::size_t stride, std::size_t head_off, std::size_t n,
                std::size_t hd, float scale, float* prow, float* ctx);

/// attend_row for `rows` causal query rows of one head: row r (query at
/// q + r*q_stride) attends to positions [0, first + r], writing its
/// probabilities at prow + r*p_stride (p_stride 0 reuses one scratch row)
/// and its context at ctx + r*ctx_stride.  Bit-identical to one attend_row
/// per row; the keys are transposed once for all rows.
void attend_rows(const float* q, std::size_t q_stride,
                 const mem::KvSpan* spans, std::size_t n_spans,
                 std::size_t stride, std::size_t head_off, std::size_t first,
                 std::size_t rows, std::size_t hd, float scale, float* prow,
                 std::size_t p_stride, float* ctx, std::size_t ctx_stride);

/// Backward of causal attention over packed QKV rows ([T, 3D]: q, k, v
/// slices, heads of hd = D / probs.size() dims), given each head's [T, T]
/// probabilities from the forward and dctx [T, D]: accumulates dq, dk, dv
/// into dqkv.  Per head and query row t: dp[u] = dctx_t · v_u (lanes
/// across keys), dv_u += p[t,u] dctx_t, ds = p (dp - Σ p dp) scale, and
/// for ds != 0, dq_t += ds k_u, dk_u += ds q_t (lanes across head dims);
/// every gradient element adds its terms for t, then u, ascending.
void attention_backward(const Tensor& qkv, std::span<const Tensor> probs,
                        const Tensor& dctx, float scale, Tensor& dqkv);

/// Weight-tied output head for one row: out[v] = f_row · tok_emb[v].
[[gnu::noinline]] void tied_head_row(const Tensor& tok_emb,
                                     const float* f_row, int vocab,
                                     float* out);

/// Token + positional embedding for one row.
[[gnu::noinline]] void embed_row(const Tensor& tok_emb, const Tensor& pos_emb,
                                 int id, std::size_t pos, float* row);

}  // namespace lmpeel::lm
