#include "lm/transformer.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>

#include "lm/attention.hpp"
#include "obs/span.hpp"
#include "util/check.hpp"

namespace lmpeel::lm {

namespace {

void add_bias(Tensor& x, const Tensor& bias) {
  LMPEEL_CHECK(bias.rows() == 1 && bias.cols() == x.cols());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    float* row = x.data() + r * x.cols();
    const float* b = bias.data();
    for (std::size_t c = 0; c < x.cols(); ++c) row[c] += b[c];
  }
}

void bias_grad(const Tensor& dy, Tensor& db) {
  LMPEEL_CHECK(db.rows() == 1 && db.cols() == dy.cols());
  for (std::size_t r = 0; r < dy.rows(); ++r) {
    const float* row = dy.data() + r * dy.cols();
    float* b = db.data();
    for (std::size_t c = 0; c < dy.cols(); ++c) b[c] += row[c];
  }
}

void add_into(Tensor& dst, const Tensor& src) {
  LMPEEL_CHECK(dst.size() == src.size());
  float* d = dst.data();
  const float* s = src.data();
  for (std::size_t i = 0; i < dst.size(); ++i) d[i] += s[i];
}

// Attention (forward and backward) and the per-row kernels shared with
// decode_batch() and the quantized backend live in lm/attention.cpp: every
// caller runs the one dispatched copy per process, which is what the
// bit-identity guarantees rest on.

}  // namespace

struct TransformerLm::Cache {
  struct LayerCache {
    Tensor x_in;             // [T,D] block input
    Tensor a;                // [T,D] ln1 output
    LayerNormCache ln1;
    Tensor qkv;              // [T,3D]
    std::vector<Tensor> probs;  // per head [T,T] (causal-masked softmax)
    Tensor ctx;              // [T,D] attention context (heads concatenated)
    Tensor x2;               // [T,D] after attention residual
    Tensor m;                // [T,D] ln2 output
    LayerNormCache ln2;
    Tensor h1;               // [T,4D]
    Tensor tanh_u;           // [T,4D] gelu's tanh(u); gelu(h1) is rebuilt
  };
  std::vector<LayerCache> layers;
  Tensor x_final;            // [T,D] output of the last block
  LayerNormCache lnf;
  Tensor head_f;             // [R,D] final layer norm at the R head rows
  Tensor logits;             // [R,V] tied-head logits at the R head rows
};

TransformerLm::TransformerLm(TransformerConfig config, std::uint64_t seed)
    : config_(config) {
  LMPEEL_CHECK(config_.vocab > 0);
  LMPEEL_CHECK(config_.d_model % config_.n_head == 0);
  util::Rng rng(seed);
  const auto v = static_cast<std::size_t>(config_.vocab);
  const auto d = static_cast<std::size_t>(config_.d_model);
  const auto s = static_cast<std::size_t>(config_.max_seq);

  const float base_std = 0.02f;
  // GPT-2-style depth scaling of residual-path projections.
  const float resid_std =
      base_std / std::sqrt(2.0f * static_cast<float>(config_.n_layer));

  tok_emb_ = Tensor(v, d);
  tok_emb_.randomize(rng, base_std);
  pos_emb_ = Tensor(s, d);
  pos_emb_.randomize(rng, base_std);
  d_tok_emb_ = Tensor(v, d);
  d_pos_emb_ = Tensor(s, d);

  lnf_g_ = Tensor(1, d);
  lnf_b_ = Tensor(1, d);
  std::fill_n(lnf_g_.data(), d, 1.0f);
  d_lnf_g_ = Tensor(1, d);
  d_lnf_b_ = Tensor(1, d);

  layers_.resize(config_.n_layer);
  for (Layer& layer : layers_) {
    layer.ln1_g = Tensor(1, d);
    std::fill_n(layer.ln1_g.data(), d, 1.0f);
    layer.ln1_b = Tensor(1, d);
    layer.w_qkv = Tensor(d, 3 * d);
    layer.w_qkv.randomize(rng, base_std);
    layer.b_qkv = Tensor(1, 3 * d);
    layer.w_o = Tensor(d, d);
    layer.w_o.randomize(rng, resid_std);
    layer.b_o = Tensor(1, d);
    layer.ln2_g = Tensor(1, d);
    std::fill_n(layer.ln2_g.data(), d, 1.0f);
    layer.ln2_b = Tensor(1, d);
    layer.w_fc1 = Tensor(d, 4 * d);
    layer.w_fc1.randomize(rng, base_std);
    layer.b_fc1 = Tensor(1, 4 * d);
    layer.w_fc2 = Tensor(4 * d, d);
    layer.w_fc2.randomize(rng, resid_std);
    layer.b_fc2 = Tensor(1, d);

    layer.d_ln1_g = Tensor(1, d);
    layer.d_ln1_b = Tensor(1, d);
    layer.d_w_qkv = Tensor(d, 3 * d);
    layer.d_b_qkv = Tensor(1, 3 * d);
    layer.d_w_o = Tensor(d, d);
    layer.d_b_o = Tensor(1, d);
    layer.d_ln2_g = Tensor(1, d);
    layer.d_ln2_b = Tensor(1, d);
    layer.d_w_fc1 = Tensor(d, 4 * d);
    layer.d_b_fc1 = Tensor(1, 4 * d);
    layer.d_w_fc2 = Tensor(4 * d, d);
    layer.d_b_fc2 = Tensor(1, d);
  }
}

void TransformerLm::forward(std::span<const int> ids, Cache* cache,
                            std::span<const std::size_t> head_rows,
                            std::span<float> last_logits_out) {
  obs::Span span("lm.transformer.forward");
  obs::Registry::global().counter("lm.transformer.forward_tokens")
      .add(ids.size());
  const std::size_t t_len = ids.size();
  LMPEEL_CHECK(t_len > 0);
  LMPEEL_CHECK(t_len <= static_cast<std::size_t>(config_.max_seq));
  const auto d = static_cast<std::size_t>(config_.d_model);
  const auto n_head = static_cast<std::size_t>(config_.n_head);
  const std::size_t hd = d / n_head;
  const float scale = 1.0f / std::sqrt(static_cast<float>(hd));

  Tensor x(t_len, d);
  for (std::size_t t = 0; t < t_len; ++t) {
    const int id = ids[t];
    LMPEEL_CHECK(id >= 0 && id < config_.vocab);
    embed_row(tok_emb_, pos_emb_, id, t, x.data() + t * d);
  }

  if (cache) cache->layers.resize(layers_.size());

  for (std::size_t l = 0; l < layers_.size(); ++l) {
    Layer& layer = layers_[l];
    Cache::LayerCache scratch;
    Cache::LayerCache& lc = cache ? cache->layers[l] : scratch;
    lc.x_in = x;

    lc.a = Tensor(t_len, d);
    layer_norm(lc.x_in, layer.ln1_g.row(0), layer.ln1_b.row(0), lc.a, lc.ln1);

    lc.qkv = Tensor(t_len, 3 * d);
    matmul(lc.a, layer.w_qkv, lc.qkv);
    add_bias(lc.qkv, layer.b_qkv);

    lc.ctx = Tensor(t_len, d);
    lc.probs.assign(n_head, Tensor());
    // K/V rows live inside the packed QKV rows: one span whose k/v point
    // at position 0's K/V slice, rows 3·d floats apart.
    const mem::KvSpan qkv_span{lc.qkv.data() + d, lc.qkv.data() + 2 * d,
                               t_len};
    for (std::size_t h = 0; h < n_head; ++h) {
      Tensor& probs = lc.probs[h];
      // Zero-initialised; row t fills [0, t], the causal remainder stays
      // zero.
      probs = Tensor(t_len, t_len);
      attend_rows(lc.qkv.data() + h * hd, 3 * d, &qkv_span, 1, 3 * d, h * hd,
                  0, t_len, hd, scale, probs.data(), t_len,
                  lc.ctx.data() + h * hd, d);
    }

    Tensor attn(t_len, d);
    matmul(lc.ctx, layer.w_o, attn);
    add_bias(attn, layer.b_o);

    lc.x2 = lc.x_in;
    add_into(lc.x2, attn);

    lc.m = Tensor(t_len, d);
    layer_norm(lc.x2, layer.ln2_g.row(0), layer.ln2_b.row(0), lc.m, lc.ln2);

    lc.h1 = Tensor(t_len, 4 * d);
    matmul(lc.m, layer.w_fc1, lc.h1);
    add_bias(lc.h1, layer.b_fc1);
    lc.tanh_u = Tensor(t_len, 4 * d);
    Tensor h2(t_len, d);
    gelu_matmul(lc.h1, layer.w_fc2, h2, lc.tanh_u);
    add_bias(h2, layer.b_fc2);

    x = lc.x2;
    add_into(x, h2);
  }

  Tensor f(t_len, d);
  LayerNormCache lnf_scratch;
  LayerNormCache& lnf = cache ? cache->lnf : lnf_scratch;
  layer_norm(x, lnf_g_.row(0), lnf_b_.row(0), f, lnf);

  LMPEEL_CHECK(cache || head_rows.empty());
  if (cache) {
    cache->x_final = x;
    cache->head_f = Tensor(head_rows.size(), d);
    for (std::size_t r = 0; r < head_rows.size(); ++r) {
      LMPEEL_CHECK(head_rows[r] < t_len);
      std::copy_n(f.data() + head_rows[r] * d, d,
                  cache->head_f.data() + r * d);
    }
    cache->logits = Tensor(head_rows.size(), config_.vocab);
    // logits = f * tok_emb^T (weight tying) at the head rows only;
    // bit-identical to tied_head_row per row, but blocked over rows.
    matmul_transposed_b(cache->head_f, tok_emb_, cache->logits);
  }
  if (!last_logits_out.empty()) {
    LMPEEL_CHECK(last_logits_out.size() ==
                 static_cast<std::size_t>(config_.vocab));
    tied_head_row(tok_emb_, f.data() + (t_len - 1) * d, config_.vocab,
                  last_logits_out.data());
  }
}

void TransformerLm::prefill(KvCache& cache, std::span<const int> tokens,
                            std::span<float> out) {
  obs::Span span("lm.transformer.prefill");
  LMPEEL_CHECK_MSG(cache.length() == 0, "prefill requires an empty cache");
  LMPEEL_CHECK(!tokens.empty());
  LMPEEL_CHECK(tokens.size() <= static_cast<std::size_t>(config_.max_seq));
  LMPEEL_CHECK(out.size() == static_cast<std::size_t>(config_.vocab));

  Cache fwd;
  forward(tokens, &fwd, {}, out);

  // Lift each position's key/value slice out of the cached QKV projections;
  // these are the exact floats decode_batch would have appended.
  const auto d = static_cast<std::size_t>(config_.d_model);
  const std::size_t t_len = tokens.size();
  if (cache.paged()) {
    cache.paged_.grow(0, t_len);
    for (std::size_t l = 0; l < layers_.size(); ++l) {
      const Tensor& qkv = fwd.layers[l].qkv;
      for (std::size_t t = 0; t < t_len; ++t) {
        const float* row = qkv.data() + t * 3 * d;
        std::copy_n(row + d, d, cache.paged_.k_row(l, t));
        std::copy_n(row + 2 * d, d, cache.paged_.v_row(l, t));
      }
    }
  } else {
    cache.keys_.assign(layers_.size(), {});
    cache.values_.assign(layers_.size(), {});
    for (std::size_t l = 0; l < layers_.size(); ++l) {
      const Tensor& qkv = fwd.layers[l].qkv;
      std::vector<float>& kcache = cache.keys_[l];
      std::vector<float>& vcache = cache.values_[l];
      kcache.resize(t_len * d);
      vcache.resize(t_len * d);
      for (std::size_t t = 0; t < t_len; ++t) {
        const float* row = qkv.data() + t * 3 * d;
        std::copy_n(row + d, d, kcache.data() + t * d);
        std::copy_n(row + 2 * d, d, vcache.data() + t * d);
      }
    }
  }
  cache.length_ = t_len;
  cache.account();
}

void TransformerLm::prefill_from(KvCache& cache, std::span<const int> suffix,
                                 std::span<float> out) {
  if (cache.length_ == 0) {
    prefill(cache, suffix, out);
    return;
  }
  obs::Span span("lm.transformer.prefill_from");
  // Only the suffix is forwarded — the drop in this counter relative to a
  // full prefill is the serve-bench "saved prefill" evidence.
  obs::Registry::global().counter("lm.transformer.forward_tokens")
      .add(suffix.size());
  const std::size_t base = cache.length_;
  const std::size_t s_len = suffix.size();
  LMPEEL_CHECK_MSG(s_len > 0, "prefill_from requires a non-empty suffix");
  LMPEEL_CHECK(base + s_len <= static_cast<std::size_t>(config_.max_seq));
  if (!cache.paged()) LMPEEL_CHECK(cache.keys_.size() == layers_.size());
  LMPEEL_CHECK(out.size() == static_cast<std::size_t>(config_.vocab));
  // One grow covers all layers (a page packs every layer's K/V block);
  // this is also where a shared boundary page copy-on-writes.
  if (cache.paged()) cache.paged_.grow(base, base + s_len);
  const auto d = static_cast<std::size_t>(config_.d_model);
  const auto n_head = static_cast<std::size_t>(config_.n_head);
  const std::size_t hd = d / n_head;
  const float scale = 1.0f / std::sqrt(static_cast<float>(hd));

  // Suffix rows sit at absolute positions [base, base+s_len); positional
  // embeddings are absolute, so cached prefix rows line up regardless of
  // which prompt originally produced them.
  Tensor x(s_len, d);
  for (std::size_t t = 0; t < s_len; ++t) {
    const int id = suffix[t];
    LMPEEL_CHECK(id >= 0 && id < config_.vocab);
    embed_row(tok_emb_, pos_emb_, id, base + t, x.data() + t * d);
  }

  LayerNormCache ln_scratch;
  std::vector<float> prow;
  std::vector<mem::KvSpan> spans;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    Layer& layer = layers_[l];

    Tensor a(s_len, d);
    layer_norm(x, layer.ln1_g.row(0), layer.ln1_b.row(0), a, ln_scratch);

    Tensor qkv(s_len, 3 * d);
    matmul(a, layer.w_qkv, qkv);
    add_bias(qkv, layer.b_qkv);

    // Append every suffix K/V row before attending: row t must see keys
    // for positions [0, base+t], all of which are in the cache once rows
    // 0..t are appended (attend_rows then reads a strict prefix of it).
    if (cache.paged()) {
      for (std::size_t t = 0; t < s_len; ++t) {
        const float* row = qkv.data() + t * 3 * d;
        std::copy_n(row + d, d, cache.paged_.k_row(l, base + t));
        std::copy_n(row + 2 * d, d, cache.paged_.v_row(l, base + t));
      }
      cache.paged_.spans(l, base + s_len, spans);
    } else {
      std::vector<float>& kcache = cache.keys_[l];
      std::vector<float>& vcache = cache.values_[l];
      for (std::size_t t = 0; t < s_len; ++t) {
        const float* row = qkv.data() + t * 3 * d;
        kcache.insert(kcache.end(), row + d, row + 2 * d);
        vcache.insert(vcache.end(), row + 2 * d, row + 3 * d);
      }
      spans.assign(
          1, mem::KvSpan{kcache.data(), vcache.data(), base + s_len});
    }

    Tensor ctx(s_len, d);
    prow.resize(base + s_len);
    for (std::size_t h = 0; h < n_head; ++h) {
      attend_rows(qkv.data() + h * hd, 3 * d, spans.data(), spans.size(), d,
                  h * hd, base, s_len, hd, scale, prow.data(), 0,
                  ctx.data() + h * hd, d);
    }

    Tensor attn(s_len, d);
    matmul(ctx, layer.w_o, attn);
    add_bias(attn, layer.b_o);
    add_into(x, attn);

    Tensor m(s_len, d);
    layer_norm(x, layer.ln2_g.row(0), layer.ln2_b.row(0), m, ln_scratch);
    Tensor h1(s_len, 4 * d);
    matmul(m, layer.w_fc1, h1);
    add_bias(h1, layer.b_fc1);
    Tensor g(s_len, 4 * d);
    gelu(h1, g);
    Tensor h2(s_len, d);
    matmul(g, layer.w_fc2, h2);
    add_bias(h2, layer.b_fc2);
    add_into(x, h2);
  }

  Tensor f(s_len, d);
  layer_norm(x, lnf_g_.row(0), lnf_b_.row(0), f, ln_scratch);
  tied_head_row(tok_emb_, f.data() + (s_len - 1) * d, config_.vocab,
                out.data());
  cache.length_ = base + s_len;
  cache.account();
}

void TransformerLm::decode_batch(std::span<KvCache* const> caches,
                                 std::span<const int> tokens,
                                 Tensor& logits_out) {
  obs::Span span("lm.transformer.decode_batch");
  const std::size_t batch = caches.size();
  LMPEEL_CHECK(batch > 0 && tokens.size() == batch);
  LMPEEL_CHECK(logits_out.rows() == batch &&
               logits_out.cols() == static_cast<std::size_t>(config_.vocab));
  obs::Registry::global().counter("lm.transformer.decode_tokens").add(batch);
  const auto d = static_cast<std::size_t>(config_.d_model);
  const auto n_head = static_cast<std::size_t>(config_.n_head);
  const std::size_t hd = d / n_head;
  const float scale = 1.0f / std::sqrt(static_cast<float>(hd));

  Tensor x(batch, d);
  for (std::size_t b = 0; b < batch; ++b) {
    KvCache& cache = *caches[b];
    if (cache.paged()) {
      // Allocating here (and not per layer) keeps PoolExhausted confined
      // to this loop: no K/V row has been written yet when it throws.
      cache.paged_.grow(cache.length_, cache.length_ + 1);
    } else {
      if (cache.keys_.empty()) {
        cache.keys_.assign(layers_.size(), {});
        cache.values_.assign(layers_.size(), {});
      }
      LMPEEL_CHECK(cache.keys_.size() == layers_.size());
    }
    LMPEEL_CHECK(cache.length_ + 1 <=
                 static_cast<std::size_t>(config_.max_seq));
    LMPEEL_CHECK(tokens[b] >= 0 && tokens[b] < config_.vocab);
    embed_row(tok_emb_, pos_emb_, tokens[b], cache.length_,
              x.data() + b * d);
  }

  LayerNormCache ln_scratch;
  std::vector<float> prow;  // per-(sequence, head) attention scratch
  std::vector<mem::KvSpan> spans;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    Layer& layer = layers_[l];

    Tensor a(batch, d);
    layer_norm(x, layer.ln1_g.row(0), layer.ln1_b.row(0), a, ln_scratch);

    Tensor qkv(batch, 3 * d);
    matmul(a, layer.w_qkv, qkv);
    add_bias(qkv, layer.b_qkv);

    Tensor ctx(batch, d);
    for (std::size_t b = 0; b < batch; ++b) {
      KvCache& cache = *caches[b];
      const float* row = qkv.data() + b * 3 * d;
      const std::size_t t_len = cache.length_ + 1;
      if (cache.paged()) {
        std::copy_n(row + d, d, cache.paged_.k_row(l, cache.length_));
        std::copy_n(row + 2 * d, d, cache.paged_.v_row(l, cache.length_));
        cache.paged_.spans(l, t_len, spans);
      } else {
        std::vector<float>& kcache = cache.keys_[l];
        std::vector<float>& vcache = cache.values_[l];
        kcache.insert(kcache.end(), row + d, row + 2 * d);
        vcache.insert(vcache.end(), row + 2 * d, row + 3 * d);
        spans.assign(1, mem::KvSpan{kcache.data(), vcache.data(), t_len});
      }

      prow.resize(t_len);
      for (std::size_t h = 0; h < n_head; ++h) {
        attend_row(row + h * hd, spans.data(), spans.size(), d, h * hd,
                   t_len, hd, scale, prow.data(),
                   ctx.data() + b * d + h * hd);
      }
    }

    Tensor attn(batch, d);
    matmul(ctx, layer.w_o, attn);
    add_bias(attn, layer.b_o);
    add_into(x, attn);

    Tensor m(batch, d);
    layer_norm(x, layer.ln2_g.row(0), layer.ln2_b.row(0), m, ln_scratch);
    Tensor h1(batch, 4 * d);
    matmul(m, layer.w_fc1, h1);
    add_bias(h1, layer.b_fc1);
    Tensor g(batch, 4 * d);
    gelu(h1, g);
    Tensor h2(batch, d);
    matmul(g, layer.w_fc2, h2);
    add_bias(h2, layer.b_fc2);
    add_into(x, h2);
  }

  Tensor f(batch, d);
  layer_norm(x, lnf_g_.row(0), lnf_b_.row(0), f, ln_scratch);
  // Tied output head, blocked over the batch (bit-identical to the
  // per-row tied_head_row the single-row paths use).
  matmul_transposed_b(f, tok_emb_, logits_out);
  for (std::size_t b = 0; b < batch; ++b) {
    ++caches[b]->length_;
    caches[b]->account();
  }
}

void TransformerLm::decode(KvCache& cache, std::span<const int> tokens,
                           std::span<float> out) {
  obs::Span span("lm.transformer.decode");
  obs::Registry::global().counter("lm.transformer.decode_tokens")
      .add(tokens.size());
  LMPEEL_CHECK(!tokens.empty());
  LMPEEL_CHECK(out.size() == static_cast<std::size_t>(config_.vocab));
  // The serve paths (prefill/prefill_from/decode_batch) are the paged
  // consumers; this single-sequence debug path stays contiguous-only.
  LMPEEL_CHECK_MSG(!cache.paged(), "decode() requires a contiguous cache");
  const auto d = static_cast<std::size_t>(config_.d_model);
  const auto n_head = static_cast<std::size_t>(config_.n_head);
  const std::size_t hd = d / n_head;
  const float scale = 1.0f / std::sqrt(static_cast<float>(hd));

  if (cache.keys_.empty()) {
    cache.keys_.assign(layers_.size(), {});
    cache.values_.assign(layers_.size(), {});
  }
  LMPEEL_CHECK(cache.keys_.size() == layers_.size());
  LMPEEL_CHECK(cache.length_ + tokens.size() <=
               static_cast<std::size_t>(config_.max_seq));

  std::vector<float> x(d), a(d), qkv(3 * d), ctx_vec(d), attn(d), m(d),
      h1(4 * d), g1(4 * d), h2(d);
  LayerNormCache ln_scratch;

  for (const int id : tokens) {
    LMPEEL_CHECK(id >= 0 && id < config_.vocab);
    const std::size_t pos = cache.length_;
    const float* te = tok_emb_.data() + static_cast<std::size_t>(id) * d;
    const float* pe = pos_emb_.data() + pos * d;
    for (std::size_t c = 0; c < d; ++c) x[c] = te[c] + pe[c];

    for (std::size_t l = 0; l < layers_.size(); ++l) {
      Layer& layer = layers_[l];
      // ln1 over the single row
      {
        Tensor xin(1, d), aout(1, d);
        std::copy(x.begin(), x.end(), xin.data());
        layer_norm(xin, layer.ln1_g.row(0), layer.ln1_b.row(0), aout,
                   ln_scratch);
        std::copy(aout.data(), aout.data() + d, a.begin());
      }
      // qkv projection for this position
      for (std::size_t j = 0; j < 3 * d; ++j) {
        float acc = layer.b_qkv.data()[j];
        for (std::size_t c = 0; c < d; ++c) {
          acc += a[c] * layer.w_qkv.data()[c * 3 * d + j];
        }
        qkv[j] = acc;
      }
      // append k, v to the cache
      std::vector<float>& kcache = cache.keys_[l];
      std::vector<float>& vcache = cache.values_[l];
      kcache.insert(kcache.end(), qkv.begin() + d, qkv.begin() + 2 * d);
      vcache.insert(vcache.end(), qkv.begin() + 2 * d, qkv.end());

      // attention of the new query over all cached positions
      const std::size_t t_len = pos + 1;
      for (std::size_t h = 0; h < n_head; ++h) {
        const float* q = qkv.data() + h * hd;
        // scores + softmax over u in [0, t_len)
        std::vector<float> probs(t_len);
        float hi = -1e30f;
        for (std::size_t u = 0; u < t_len; ++u) {
          const float* k = kcache.data() + u * d + h * hd;
          float acc = 0.0f;
          for (std::size_t c = 0; c < hd; ++c) acc += q[c] * k[c];
          probs[u] = acc * scale;
          hi = std::max(hi, probs[u]);
        }
        float sum = 0.0f;
        for (std::size_t u = 0; u < t_len; ++u) {
          probs[u] = std::exp(probs[u] - hi);
          sum += probs[u];
        }
        const float inv = 1.0f / sum;
        float* ctx_h = ctx_vec.data() + h * hd;
        std::fill_n(ctx_h, hd, 0.0f);
        for (std::size_t u = 0; u < t_len; ++u) {
          const float p = probs[u] * inv;
          const float* v = vcache.data() + u * d + h * hd;
          for (std::size_t c = 0; c < hd; ++c) ctx_h[c] += p * v[c];
        }
      }
      // output projection + residual
      for (std::size_t j = 0; j < d; ++j) {
        float acc = layer.b_o.data()[j];
        for (std::size_t c = 0; c < d; ++c) {
          acc += ctx_vec[c] * layer.w_o.data()[c * d + j];
        }
        attn[j] = acc;
      }
      for (std::size_t c = 0; c < d; ++c) x[c] += attn[c];

      // MLP block
      {
        Tensor xin(1, d), mout(1, d);
        std::copy(x.begin(), x.end(), xin.data());
        layer_norm(xin, layer.ln2_g.row(0), layer.ln2_b.row(0), mout,
                   ln_scratch);
        std::copy(mout.data(), mout.data() + d, m.begin());
      }
      for (std::size_t j = 0; j < 4 * d; ++j) {
        float acc = layer.b_fc1.data()[j];
        for (std::size_t c = 0; c < d; ++c) {
          acc += m[c] * layer.w_fc1.data()[c * 4 * d + j];
        }
        h1[j] = acc;
      }
      {
        Tensor h1t(1, 4 * d), g1t(1, 4 * d);
        std::copy(h1.begin(), h1.end(), h1t.data());
        gelu(h1t, g1t);
        std::copy(g1t.data(), g1t.data() + 4 * d, g1.begin());
      }
      for (std::size_t j = 0; j < d; ++j) {
        float acc = layer.b_fc2.data()[j];
        for (std::size_t c = 0; c < 4 * d; ++c) {
          acc += g1[c] * layer.w_fc2.data()[c * d + j];
        }
        h2[j] = acc;
      }
      for (std::size_t c = 0; c < d; ++c) x[c] += h2[c];
    }
    ++cache.length_;
  }
  cache.account();

  // Final layer norm + tied head for the last position only.
  Tensor xin(1, d), f(1, d);
  std::copy(x.begin(), x.end(), xin.data());
  layer_norm(xin, lnf_g_.row(0), lnf_b_.row(0), f, ln_scratch);
  for (int v = 0; v < config_.vocab; ++v) {
    const float* e = tok_emb_.data() + static_cast<std::size_t>(v) * d;
    float acc = 0.0f;
    for (std::size_t c = 0; c < d; ++c) acc += f.data()[c] * e[c];
    out[v] = acc;
  }
}

void TransformerLm::next_logits(std::span<const int> context,
                                std::span<float> out) {
  LMPEEL_CHECK(!context.empty());
  // Crop to the positional window; the transformer cannot see further back.
  std::span<const int> window = context;
  if (window.size() > static_cast<std::size_t>(config_.max_seq)) {
    window = window.subspan(window.size() -
                            static_cast<std::size_t>(config_.max_seq));
  }
  forward(window, nullptr, {}, out);
}

double TransformerLm::loss_and_backward(
    std::span<const int> tokens, std::span<const std::uint8_t> target_mask,
    bool do_backward) {
  LMPEEL_CHECK(tokens.size() >= 2);
  const std::size_t t_len = tokens.size() - 1;
  LMPEEL_CHECK(target_mask.empty() || target_mask.size() == t_len);
  const auto d = static_cast<std::size_t>(config_.d_model);
  const auto n_head = static_cast<std::size_t>(config_.n_head);
  const std::size_t hd = d / n_head;
  const float scale = 1.0f / std::sqrt(static_cast<float>(hd));

  // Only the target rows reach the loss, so only they get logits; every
  // other row of dlogits would be zero.
  std::vector<std::size_t> targets;
  for (std::size_t t = 0; t < t_len; ++t) {
    if (target_mask.empty() || target_mask[t]) targets.push_back(t);
  }
  LMPEEL_CHECK_MSG(!targets.empty(), "no target positions selected");
  const std::size_t n_targets = targets.size();

  Cache cache;
  forward(tokens.subspan(0, t_len), &cache, targets, {});

  // Cross-entropy + dlogits, one row per target.
  double loss = 0.0;
  Tensor dlogits(n_targets, config_.vocab);
  const float inv_n = 1.0f / static_cast<float>(n_targets);
  for (std::size_t r = 0; r < n_targets; ++r) {
    const std::size_t t = targets[r];
    const float* lr = cache.logits.data() + r * config_.vocab;
    // log-softmax
    float hi = lr[0];
    for (int v = 1; v < config_.vocab; ++v) hi = std::max(hi, lr[v]);
    double sum = 0.0;
    for (int v = 0; v < config_.vocab; ++v) {
      sum += std::exp(static_cast<double>(lr[v] - hi));
    }
    const double logz = static_cast<double>(hi) + std::log(sum);
    const int target = tokens[t + 1];
    LMPEEL_CHECK(target >= 0 && target < config_.vocab);
    loss += logz - static_cast<double>(lr[target]);
    if (do_backward) {
      float* dl = dlogits.data() + r * config_.vocab;
      for (int v = 0; v < config_.vocab; ++v) {
        const float p = static_cast<float>(
            std::exp(static_cast<double>(lr[v]) - logz));
        dl[v] = p * inv_n;
      }
      dl[target] -= inv_n;
    }
  }
  loss /= static_cast<double>(n_targets);
  if (!do_backward) return loss;

  obs::Span backward_span("lm.transformer.backward");

  // ---- backward -------------------------------------------------------
  // Head (weight-tied): logits = f * E^T at the target rows.
  // df = dlogits · E, and dE += dlogits^T · f (shared embedding matrix).
  // Rows of df off the targets are +0, exactly what a zero row of dlogits
  // gives.
  Tensor df_targets(n_targets, d);
  matmul(dlogits, tok_emb_, df_targets);
  matmul_grad_b(dlogits, cache.head_f, d_tok_emb_);
  Tensor df(t_len, d);
  for (std::size_t r = 0; r < n_targets; ++r) {
    std::copy_n(df_targets.data() + r * d, d, df.data() + targets[r] * d);
  }

  Tensor dx(t_len, d);
  layer_norm_backward(cache.x_final, lnf_g_.row(0), df, cache.lnf, dx,
                      d_lnf_g_.row(0), d_lnf_b_.row(0));

  for (std::size_t l = layers_.size(); l-- > 0;) {
    Layer& layer = layers_[l];
    Cache::LayerCache& lc = cache.layers[l];

    // x3 = x2 + h2(m(x2)); dx currently holds dL/dx3.
    Tensor dh2 = dx;  // residual branch

    Tensor g(t_len, 4 * d);
    gelu_from_tanh(lc.h1, lc.tanh_u, g);
    Tensor dg(t_len, 4 * d);
    matmul_grad_a(dh2, layer.w_fc2, dg);
    matmul_grad_b(g, dh2, layer.d_w_fc2);
    bias_grad(dh2, layer.d_b_fc2);

    Tensor dh1(t_len, 4 * d);
    gelu_backward(lc.h1, lc.tanh_u, dg, dh1);

    Tensor dm(t_len, d);
    matmul_grad_a(dh1, layer.w_fc1, dm);
    matmul_grad_b(lc.m, dh1, layer.d_w_fc1);
    bias_grad(dh1, layer.d_b_fc1);

    // dx2 = dx (residual) + ln2-backward(dm)
    Tensor dx2 = dx;
    layer_norm_backward(lc.x2, layer.ln2_g.row(0), dm, lc.ln2, dx2,
                        layer.d_ln2_g.row(0), layer.d_ln2_b.row(0));

    // x2 = x_in + attn(ln1(x_in)); dattn = dx2.
    Tensor dctx(t_len, d);
    matmul_grad_a(dx2, layer.w_o, dctx);
    matmul_grad_b(lc.ctx, dx2, layer.d_w_o);
    bias_grad(dx2, layer.d_b_o);

    Tensor dqkv(t_len, 3 * d);
    attention_backward(lc.qkv, lc.probs, dctx, scale, dqkv);

    Tensor da(t_len, d);
    matmul_grad_a(dqkv, layer.w_qkv, da);
    matmul_grad_b(lc.a, dqkv, layer.d_w_qkv);
    bias_grad(dqkv, layer.d_b_qkv);

    // dx_in = dx2 (residual) + ln1-backward(da)
    Tensor dx_in = dx2;
    layer_norm_backward(lc.x_in, layer.ln1_g.row(0), da, lc.ln1, dx_in,
                        layer.d_ln1_g.row(0), layer.d_ln1_b.row(0));
    dx = std::move(dx_in);
  }

  // Embedding backward.
  for (std::size_t t = 0; t < t_len; ++t) {
    const float* dxr = dx.data() + t * d;
    float* te =
        d_tok_emb_.data() + static_cast<std::size_t>(tokens[t]) * d;
    float* pe = d_pos_emb_.data() + t * d;
    for (std::size_t c = 0; c < d; ++c) {
      te[c] += dxr[c];
      pe[c] += dxr[c];
    }
  }
  return loss;
}

double TransformerLm::train_sequence(
    std::span<const int> tokens, std::span<const std::uint8_t> target_mask) {
  return loss_and_backward(tokens, target_mask, /*do_backward=*/true);
}

double TransformerLm::evaluate_sequence(
    std::span<const int> tokens, std::span<const std::uint8_t> target_mask) {
  return loss_and_backward(tokens, target_mask, /*do_backward=*/false);
}

void TransformerLm::zero_gradients() {
  d_tok_emb_.zero();
  d_pos_emb_.zero();
  d_lnf_g_.zero();
  d_lnf_b_.zero();
  for (Layer& layer : layers_) {
    layer.d_ln1_g.zero();
    layer.d_ln1_b.zero();
    layer.d_w_qkv.zero();
    layer.d_b_qkv.zero();
    layer.d_w_o.zero();
    layer.d_b_o.zero();
    layer.d_ln2_g.zero();
    layer.d_ln2_b.zero();
    layer.d_w_fc1.zero();
    layer.d_b_fc1.zero();
    layer.d_w_fc2.zero();
    layer.d_b_fc2.zero();
  }
}

std::vector<Tensor*> TransformerLm::parameters() {
  std::vector<Tensor*> out = {&tok_emb_, &pos_emb_, &lnf_g_, &lnf_b_};
  for (Layer& l : layers_) {
    out.insert(out.end(),
               {&l.ln1_g, &l.ln1_b, &l.w_qkv, &l.b_qkv, &l.w_o, &l.b_o,
                &l.ln2_g, &l.ln2_b, &l.w_fc1, &l.b_fc1, &l.w_fc2, &l.b_fc2});
  }
  return out;
}

std::vector<Tensor*> TransformerLm::gradients() {
  std::vector<Tensor*> out = {&d_tok_emb_, &d_pos_emb_, &d_lnf_g_, &d_lnf_b_};
  for (Layer& l : layers_) {
    out.insert(out.end(), {&l.d_ln1_g, &l.d_ln1_b, &l.d_w_qkv, &l.d_b_qkv,
                           &l.d_w_o, &l.d_b_o, &l.d_ln2_g, &l.d_ln2_b,
                           &l.d_w_fc1, &l.d_b_fc1, &l.d_w_fc2, &l.d_b_fc2});
  }
  return out;
}

void TransformerLm::save(std::ostream& out) const {
  const char magic[4] = {'L', 'M', 'P', 'T'};
  out.write(magic, 4);
  const std::int32_t header[5] = {config_.vocab, config_.d_model,
                                  config_.n_head, config_.n_layer,
                                  config_.max_seq};
  out.write(reinterpret_cast<const char*>(header), sizeof header);
  // parameters() is non-const by design (optimisers mutate through it);
  // serialisation only reads.
  auto* self = const_cast<TransformerLm*>(this);
  for (const Tensor* p : self->parameters()) {
    const auto n = static_cast<std::uint64_t>(p->size());
    out.write(reinterpret_cast<const char*>(&n), sizeof n);
    out.write(reinterpret_cast<const char*>(p->data()),
              static_cast<std::streamsize>(n * sizeof(float)));
  }
  LMPEEL_CHECK_MSG(out.good(), "transformer checkpoint write failed");
}

void TransformerLm::load(std::istream& in) {
  char magic[4];
  in.read(magic, 4);
  LMPEEL_CHECK_MSG(in.good() && magic[0] == 'L' && magic[1] == 'M' &&
                       magic[2] == 'P' && magic[3] == 'T',
                   "not a transformer checkpoint");
  std::int32_t header[5];
  in.read(reinterpret_cast<char*>(header), sizeof header);
  LMPEEL_CHECK_MSG(
      header[0] == config_.vocab && header[1] == config_.d_model &&
          header[2] == config_.n_head && header[3] == config_.n_layer &&
          header[4] == config_.max_seq,
      "checkpoint config does not match this model");
  for (Tensor* p : parameters()) {
    std::uint64_t n = 0;
    in.read(reinterpret_cast<char*>(&n), sizeof n);
    LMPEEL_CHECK_MSG(in.good() && n == p->size(),
                     "checkpoint tensor size mismatch");
    in.read(reinterpret_cast<char*>(p->data()),
            static_cast<std::streamsize>(n * sizeof(float)));
  }
  LMPEEL_CHECK_MSG(in.good(), "transformer checkpoint read failed");
}

std::size_t TransformerLm::parameter_count() const {
  std::size_t n = tok_emb_.size() + pos_emb_.size() + lnf_g_.size() +
                  lnf_b_.size();
  for (const Layer& l : layers_) {
    n += l.ln1_g.size() + l.ln1_b.size() + l.w_qkv.size() + l.b_qkv.size() +
         l.w_o.size() + l.b_o.size() + l.ln2_g.size() + l.ln2_b.size() +
         l.w_fc1.size() + l.b_fc1.size() + l.w_fc2.size() + l.b_fc2.size();
  }
  return n;
}

}  // namespace lmpeel::lm
