// A real decoder-only transformer with training support (DESIGN.md S2).
//
// Pre-LayerNorm GPT-style blocks: token + learned positional embeddings,
// multi-head causal self-attention, GELU MLP (4x expansion), weight-tied
// output head.  Forward and backward passes are hand-derived (no autograd);
// gradients accumulate into per-parameter buffers consumed by AdamW.
//
// The model implements the same LanguageModel interface as InductionLm, so
// the whole evaluation pipeline (generation, traces, haystacks, tuners) can
// run against a from-scratch-trained transformer — used by the
// function-class in-context-learning experiments that motivate the paper
// (§I refs [9]–[13]).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "lm/backend.hpp"
#include "lm/language_model.hpp"
#include "lm/tensor.hpp"

namespace lmpeel::lm {

class TransformerLm final : public LanguageModel, public KvBackend {
 public:
  TransformerLm(TransformerConfig config, std::uint64_t seed);

  // ---- LanguageModel --------------------------------------------------
  int vocab_size() const override { return config_.vocab; }
  void next_logits(std::span<const int> context,
                   std::span<float> out) override;
  std::string name() const override { return "transformer-lm"; }
  /// Deterministic; the one override satisfies both base declarations.
  void set_seed(std::uint64_t /*seed*/) override {}

  // ---- incremental inference (KV cache) --------------------------------
  /// The per-layer key/value cache now lives at namespace scope
  /// (lm/kv_cache.hpp) so every KvBackend shares it; the nested alias keeps
  /// the original spelling working everywhere.
  using KvCache = ::lmpeel::lm::KvCache;

  /// Appends `tokens` to the cached sequence and returns the logits after
  /// the last one in `out`.  Equivalent to next_logits over the whole
  /// sequence (up to float rounding).  Total cached length must stay
  /// within config().max_seq.
  void decode(KvCache& cache, std::span<const int> tokens,
              std::span<float> out);

  /// Seeds an *empty* cache with the key/value pairs of every position of
  /// `tokens` in one full forward pass (one O(T²) pass instead of T decode
  /// steps), returning the logits after the last token.  Bit-identical to
  /// forward()/next_logits, and leaves the cache ready for decode_batch().
  void prefill(KvCache& cache, std::span<const int> tokens,
               std::span<float> out) override;

  /// Extends a cache that already holds cache.length() prefix positions
  /// with `suffix` (non-empty: logits can only be produced for a token
  /// that is actually forwarded), returning the logits after the last
  /// suffix token.  Only suffix.size() positions are computed; prefix K/V
  /// rows are read from the cache.  Because every kernel is row-independent
  /// with fixed k-ascending accumulation, the result is bit-identical to
  /// prefill() over prefix+suffix (DESIGN.md §12).  Delegates to prefill()
  /// when the cache is empty.
  void prefill_from(KvCache& cache, std::span<const int> suffix,
                    std::span<float> out) override;

  /// Advances `caches.size()` independent sequences by one token each in a
  /// single batched step: the shared-weight projections (QKV, attention
  /// output, both MLP matmuls, the tied head) run over the whole
  /// [B, d_model] batch so the weight matrices stream through the cache
  /// once per step instead of once per sequence; attention reads each
  /// sequence's own cache (lengths may be ragged).  `tokens[i]` is
  /// appended to sequence i and row i of `logits_out` ([B, vocab])
  /// receives the logits following it.  Unlike decode(), the arithmetic
  /// matches forward() operation for operation, so greedy decoding through
  /// this path is bit-identical to repeated next_logits() calls — the
  /// serve engine's equivalence guarantee (DESIGN.md §9).
  void decode_batch(std::span<KvCache* const> caches,
                    std::span<const int> tokens, Tensor& logits_out) override;

  // ---- training --------------------------------------------------------
  /// Forward + backward over one sequence.  `tokens` has length T+1: the
  /// model predicts tokens[t+1] from tokens[0..t].  `target_mask[t]`
  /// selects which next-token predictions contribute to the loss (size T;
  /// empty span = all positions).  Gradients accumulate; returns the mean
  /// cross-entropy over the selected targets (nats).
  double train_sequence(std::span<const int> tokens,
                        std::span<const std::uint8_t> target_mask = {});

  /// Forward-only mean cross-entropy (validation).
  double evaluate_sequence(std::span<const int> tokens,
                           std::span<const std::uint8_t> target_mask = {});

  void zero_gradients();
  std::vector<Tensor*> parameters();
  std::vector<Tensor*> gradients();
  std::size_t parameter_count() const;

  /// Binary checkpoint: config header + raw parameter data.  load() checks
  /// that the stream's config matches this model's.
  void save(std::ostream& out) const;
  void load(std::istream& in);

  const TransformerConfig& config() const noexcept override {
    return config_;
  }
  std::string backend_name() const override { return "f32"; }

 private:
  struct Layer {
    Tensor ln1_g, ln1_b, w_qkv, b_qkv, w_o, b_o;
    Tensor ln2_g, ln2_b, w_fc1, b_fc1, w_fc2, b_fc2;
    // gradient buffers, same shapes
    Tensor d_ln1_g, d_ln1_b, d_w_qkv, d_b_qkv, d_w_o, d_b_o;
    Tensor d_ln2_g, d_ln2_b, d_w_fc1, d_b_fc1, d_w_fc2, d_b_fc2;
  };

  /// Everything the backward pass needs from one forward pass.
  struct Cache;

  /// Runs the forward pass over `ids` (length T).  Logits for the
  /// positions in `head_rows` (ascending) land in cache.logits, one row
  /// each; the tied head runs on no other row.  `cache` may be null for
  /// inference-only calls paired with `logits_out` for the last position
  /// (and then `head_rows` must be empty).
  void forward(std::span<const int> ids, Cache* cache,
               std::span<const std::size_t> head_rows,
               std::span<float> last_logits_out);

  double loss_and_backward(std::span<const int> tokens,
                           std::span<const std::uint8_t> target_mask,
                           bool do_backward);

  TransformerConfig config_;
  Tensor tok_emb_, pos_emb_;      // [V,D], [S,D]
  Tensor d_tok_emb_, d_pos_emb_;
  Tensor lnf_g_, lnf_b_, d_lnf_g_, d_lnf_b_;
  std::vector<Layer> layers_;
};

}  // namespace lmpeel::lm
