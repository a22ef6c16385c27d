// Arch-dispatched f32 kernels (DESIGN.md §17): the dense tensor kernels,
// attention forward and backward, and the AdamW update.
//
// One kernel source (f32_kernels_impl.hpp) is compiled once per arch —
// f32_kernels_{scalar,avx2,avx512}.cpp, each with its own -m flags — and
// the process runs exactly one of those copies, picked once by
// util::dispatched_arch().  Every copy computes each output element with
// the same float operation sequence (SIMD lanes run across independent
// outputs, never across one output's sum, and no TU contracts a multiply
// and an add into an FMA), so all copies are bit-identical and a caller
// may not tell which one ran.  The public entry points are the wrappers in
// tensor.hpp, attention.hpp and adamw.hpp; this table is for them and for
// the cross-arch test.
#pragma once

#include <cstddef>

#include "mem/paged_kv.hpp"
#include "util/arch.hpp"

namespace lmpeel::lm {

/// Rows of `a` per register tile in the matmul kernels.
inline constexpr std::size_t kF32RowBlock = 8;
/// Columns per register tile, and the width of a packed panel.
inline constexpr std::size_t kF32Panel = 32;

/// Per-step constants of one AdamW update (adamw.cpp computes them once).
struct AdamWStepParams {
  double clip_scale;
  double beta1, beta2;
  double one_minus_beta1, one_minus_beta2;
  double bias_correction1, bias_correction2;
  double eps;
  double weight_decay;
  double lr;
};

/// Raw-buffer forms of the kernels; every matrix is row-major.  Scratch
/// arguments are caller-owned so no kernel TU allocates.
struct F32Kernels {
  /// Float lanes of this copy's vectors (the attention scratch rounds
  /// key counts up to a multiple of it).
  std::size_t lanes;

  /// out[m,n] = a[m,k] * b[k,n].
  void (*matmul)(const float* a, const float* b, float* out, std::size_t m,
                 std::size_t k, std::size_t n);
  /// out[m,n] = a[m,k] * bt[n,k]^T; `panel` holds k * kF32Panel floats.
  void (*matmul_transposed_b)(const float* a, const float* bt, float* out,
                              std::size_t m, std::size_t k, std::size_t n,
                              float* panel);
  /// db[k,n] += a[m,k]^T * grad[m,n]; `at` holds k * m floats.
  void (*matmul_grad_b)(const float* a, const float* grad, float* db,
                        std::size_t m, std::size_t k, std::size_t n,
                        float* at);
  /// dst[i] += src[i].
  void (*add_into)(float* dst, const float* src, std::size_t n);
  void (*layer_norm)(const float* x, const float* gamma, const float* beta,
                     float* y, float* mean, float* inv_std, std::size_t rows,
                     std::size_t cols);
  void (*layer_norm_backward)(const float* x, const float* gamma,
                              const float* dy, const float* mean,
                              const float* inv_std, float* dx, float* dgamma,
                              float* dbeta, std::size_t rows,
                              std::size_t cols);
  void (*gelu)(const float* x, float* y, std::size_t n);
  /// out[m,n] = gelu(x[m,k]) * w[k,n]; `g` holds kF32RowBlock * k floats.
  void (*gelu_matmul)(const float* x, const float* w, float* out,
                      float* tanh_u, std::size_t m, std::size_t k,
                      std::size_t n, float* g);
  void (*gelu_from_tanh)(const float* x, const float* tanh_u, float* y,
                         std::size_t n);
  void (*gelu_backward)(const float* x, const float* tanh_u, const float* dy,
                        float* dx, std::size_t n);
  void (*softmax_rows)(float* x, std::size_t rows, std::size_t cols);

  /// attend_rows (attention.hpp) without its checks; `kt` holds
  /// hd * round_up(first + rows, lanes) floats.
  void (*attend_rows)(const float* q, std::size_t q_stride,
                      const mem::KvSpan* spans, std::size_t stride,
                      std::size_t head_off, std::size_t first,
                      std::size_t rows, std::size_t hd, float scale,
                      float* prow, std::size_t p_stride, float* ctx,
                      std::size_t ctx_stride, float* kt);
  /// One head of attention_backward (attention.hpp); `scratch` holds
  /// (hd + 1) * round_up(t_len, lanes) floats.
  void (*attention_backward_head)(const float* qkv, const float* probs,
                                  const float* dctx, float* dqkv,
                                  std::size_t t_len, std::size_t d,
                                  std::size_t head_off, std::size_t hd,
                                  float scale, float* scratch);

  /// AdamW's per-element update of one parameter tensor.
  void (*adamw_update)(float* w, const float* g, float* m, float* v,
                       std::size_t n, const AdamWStepParams& params);
};

/// The copy for `arch`; CHECK-fails unless util::arch_supported(arch).
const F32Kernels& f32_kernels(util::Arch arch);

/// The process-wide copy: f32_kernels(util::dispatched_arch()).
const F32Kernels& f32_kernels();

namespace detail {
// One table per kernel TU; a TU built without its -m flags returns the
// scalar table (f32_kernels() never hands it out: the arch is then not
// supported).
const F32Kernels& scalar_f32_kernels();
const F32Kernels& avx2_f32_kernels();
const F32Kernels& avx512_f32_kernels();
}  // namespace detail

}  // namespace lmpeel::lm
