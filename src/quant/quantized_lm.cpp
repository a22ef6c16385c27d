#include "quant/quantized_lm.hpp"

#include <algorithm>
#include <cmath>

#include "lm/attention.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/check.hpp"

namespace lmpeel::quant {

namespace {

// Per-thread matmul scratch: decode steps may be split across the global
// thread pool (serve::TransformerBatchDecoder), and each chunk calls
// decode_batch concurrently — thread_local keeps the buffers reusable
// without sharing.
QuantScratch& tls_scratch() {
  static thread_local QuantScratch scratch;
  return scratch;
}

}  // namespace

const char* format_name(WeightFormat format) {
  return format == WeightFormat::kInt8 ? "int8" : "fp16";
}

QuantizedLm::QuantizedLm(lm::TransformerLm& source, WeightFormat format,
                         Arch arch)
    : config_(source.config()),
      format_(format),
      arch_(arch),
      kernels_(&kernels(arch)) {
  const std::vector<lm::Tensor*> params = source.parameters();
  std::size_t idx = 0;
  auto next = [&]() -> const lm::Tensor& { return *params[idx++]; };

  const lm::Tensor& tok_emb = next();
  pos_emb_ = next();
  lnf_g_ = next();
  lnf_b_ = next();
  if (format_ == WeightFormat::kInt8) {
    tok_emb_q_ = QTensor::from_rows(tok_emb);
  } else {
    tok_emb_h_ = HTensor::from_rows(tok_emb);
  }

  layers_.resize(static_cast<std::size_t>(config_.n_layer));
  for (QLayer& layer : layers_) {
    layer.ln1_g = next();
    layer.ln1_b = next();
    const lm::Tensor& w_qkv = next();
    layer.b_qkv = next();
    const lm::Tensor& w_o = next();
    layer.b_o = next();
    layer.ln2_g = next();
    layer.ln2_b = next();
    const lm::Tensor& w_fc1 = next();
    layer.b_fc1 = next();
    const lm::Tensor& w_fc2 = next();
    layer.b_fc2 = next();
    if (format_ == WeightFormat::kInt8) {
      layer.w_qkv = QTensor::from_matmul_weights(w_qkv);
      layer.w_o = QTensor::from_matmul_weights(w_o);
      layer.w_fc1 = QTensor::from_matmul_weights(w_fc1);
      layer.w_fc2 = QTensor::from_matmul_weights(w_fc2);
    } else {
      layer.h_qkv = HTensor::from_matmul_weights(w_qkv);
      layer.h_o = HTensor::from_matmul_weights(w_o);
      layer.h_fc1 = HTensor::from_matmul_weights(w_fc1);
      layer.h_fc2 = HTensor::from_matmul_weights(w_fc2);
    }
  }
  LMPEEL_CHECK(idx == params.size());

  f32_bytes_ = source.parameter_count() * sizeof(float);
  std::size_t bytes = pos_emb_.size() * sizeof(float) +
                      (lnf_g_.size() + lnf_b_.size()) * sizeof(float);
  bytes += format_ == WeightFormat::kInt8 ? tok_emb_q_.bytes()
                                          : tok_emb_h_.bytes();
  for (const QLayer& l : layers_) {
    bytes += (l.ln1_g.size() + l.ln1_b.size() + l.b_qkv.size() +
              l.b_o.size() + l.ln2_g.size() + l.ln2_b.size() +
              l.b_fc1.size() + l.b_fc2.size()) *
             sizeof(float);
    if (format_ == WeightFormat::kInt8) {
      bytes += l.w_qkv.bytes() + l.w_o.bytes() + l.w_fc1.bytes() +
               l.w_fc2.bytes();
    } else {
      bytes += l.h_qkv.bytes() + l.h_o.bytes() + l.h_fc1.bytes() +
               l.h_fc2.bytes();
    }
  }
  weight_bytes_ = bytes;
}

QuantizedLm::~QuantizedLm() { bind_weight_budget(nullptr); }

std::string QuantizedLm::name() const {
  return std::string("quantized-lm-") + format_name(format_);
}

void QuantizedLm::bind_weight_budget(guard::Budget* budget) {
  if (budget == budget_) return;
  if (budget_ != nullptr) budget_->uncharge(weight_bytes_);
  budget_ = budget;
  if (budget_ != nullptr) budget_->charge(weight_bytes_);
}

std::vector<QuantizedLm::TensorReport> QuantizedLm::tensor_reports() const {
  std::vector<TensorReport> out;
  const bool i8 = format_ == WeightFormat::kInt8;
  auto add = [&](const std::string& name, const QTensor& q,
                 const HTensor& h) {
    TensorReport r;
    r.name = name;
    if (i8) {
      r.rows = q.k;
      r.cols = q.n;
      r.scale = q.scale;
      r.max_abs_error = q.max_abs_error;
      r.rms_error = q.rms_error;
      r.bytes = q.bytes();
    } else {
      r.rows = h.k;
      r.cols = h.n;
      r.max_abs_error = h.max_abs_error;
      r.rms_error = h.rms_error;
      r.bytes = h.bytes();
    }
    out.push_back(std::move(r));
  };
  add("tok_emb", tok_emb_q_, tok_emb_h_);
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const std::string p = "layer" + std::to_string(l) + ".";
    add(p + "w_qkv", layers_[l].w_qkv, layers_[l].h_qkv);
    add(p + "w_o", layers_[l].w_o, layers_[l].h_o);
    add(p + "w_fc1", layers_[l].w_fc1, layers_[l].h_fc1);
    add(p + "w_fc2", layers_[l].w_fc2, layers_[l].h_fc2);
  }
  return out;
}

void QuantizedLm::project(const lm::Tensor& act, const QTensor& q,
                          const HTensor& h, const lm::Tensor* bias,
                          lm::Tensor& out) const {
  if (format_ == WeightFormat::kInt8) {
    qmatmul(act, q, bias, *kernels_, tls_scratch(), out);
  } else {
    hmatmul(act, h, bias, *kernels_, out);
  }
}

void QuantizedLm::embed(int id, std::size_t pos, float* row) const {
  const auto d = static_cast<std::size_t>(config_.d_model);
  const float* pe = pos_emb_.data() + pos * d;
  if (format_ == WeightFormat::kInt8) {
    const std::int8_t* te =
        tok_emb_q_.q.data() + static_cast<std::size_t>(id) * d;
    const float s = tok_emb_q_.scale;
    for (std::size_t c = 0; c < d; ++c) {
      row[c] = static_cast<float>(te[c]) * s + pe[c];
    }
  } else {
    const std::uint16_t* te =
        tok_emb_h_.h.data() + static_cast<std::size_t>(id) * d;
    for (std::size_t c = 0; c < d; ++c) {
      row[c] = half_to_float(te[c]) + pe[c];
    }
  }
}

void QuantizedLm::head(const lm::Tensor& f, lm::Tensor& logits) const {
  if (format_ == WeightFormat::kInt8) {
    qmatmul(f, tok_emb_q_, nullptr, *kernels_, tls_scratch(), logits);
  } else {
    hmatmul(f, tok_emb_h_, nullptr, *kernels_, logits);
  }
}

void QuantizedLm::extend(lm::KvCache& cache, std::span<const int> suffix,
                         std::span<float> out) {
  obs::Registry::global()
      .counter("lm.transformer.forward_tokens")
      .add(suffix.size());
  obs::Registry::global()
      .counter("quant.dequant_matmul_tokens")
      .add(suffix.size());
  const std::size_t base = cache.length_;
  const std::size_t s_len = suffix.size();
  LMPEEL_CHECK_MSG(s_len > 0, "prefill requires a non-empty suffix");
  LMPEEL_CHECK(base + s_len <= static_cast<std::size_t>(config_.max_seq));
  LMPEEL_CHECK(out.size() == static_cast<std::size_t>(config_.vocab));
  const auto d = static_cast<std::size_t>(config_.d_model);
  const auto n_head = static_cast<std::size_t>(config_.n_head);
  const std::size_t hd = d / n_head;
  const float scale = 1.0f / std::sqrt(static_cast<float>(hd));

  if (cache.paged()) {
    cache.paged_.grow(base, base + s_len);
  } else if (cache.keys_.empty()) {
    cache.keys_.assign(layers_.size(), {});
    cache.values_.assign(layers_.size(), {});
  } else {
    LMPEEL_CHECK(cache.keys_.size() == layers_.size());
  }

  lm::Tensor x(s_len, d);
  for (std::size_t t = 0; t < s_len; ++t) {
    const int id = suffix[t];
    LMPEEL_CHECK(id >= 0 && id < config_.vocab);
    embed(id, base + t, x.data() + t * d);
  }

  lm::LayerNormCache ln_scratch;
  std::vector<float> prow;
  std::vector<mem::KvSpan> spans;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    QLayer& layer = layers_[l];

    lm::Tensor a(s_len, d);
    lm::layer_norm(x, layer.ln1_g.row(0), layer.ln1_b.row(0), a, ln_scratch);

    lm::Tensor qkv(s_len, 3 * d);
    project(a, layer.w_qkv, layer.h_qkv, &layer.b_qkv, qkv);

    // Append every suffix K/V row before attending — row t then reads a
    // strict prefix of the cache, exactly like the f32 prefill_from.  The
    // appended rows are f32, so downstream prefix sharing / spill /
    // restore behave identically to the f32 backend.
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
      spans.assign(1,
                   mem::KvSpan{kcache.data(), vcache.data(), base + s_len});
    }

    lm::Tensor ctx(s_len, d);
    prow.resize(base + s_len);
    for (std::size_t h = 0; h < n_head; ++h) {
      lm::attend_rows(qkv.data() + h * hd, 3 * d, spans.data(), spans.size(),
                      d, h * hd, base, s_len, hd, scale, prow.data(), 0,
                      ctx.data() + h * hd, d);
    }

    lm::Tensor attn(s_len, d);
    project(ctx, layer.w_o, layer.h_o, &layer.b_o, attn);
    {
      float* xp = x.data();
      const float* ap = attn.data();
      for (std::size_t i = 0; i < x.size(); ++i) xp[i] += ap[i];
    }

    lm::Tensor m(s_len, d);
    lm::layer_norm(x, layer.ln2_g.row(0), layer.ln2_b.row(0), m, ln_scratch);
    lm::Tensor h1(s_len, 4 * d);
    project(m, layer.w_fc1, layer.h_fc1, &layer.b_fc1, h1);
    lm::Tensor g(s_len, 4 * d);
    lm::gelu(h1, g);
    lm::Tensor h2(s_len, d);
    project(g, layer.w_fc2, layer.h_fc2, &layer.b_fc2, h2);
    {
      float* xp = x.data();
      const float* hp = h2.data();
      for (std::size_t i = 0; i < x.size(); ++i) xp[i] += hp[i];
    }
  }

  lm::Tensor f(s_len, d);
  lm::layer_norm(x, lnf_g_.row(0), lnf_b_.row(0), f, ln_scratch);
  lm::Tensor f_last(1, d);
  std::copy_n(f.data() + (s_len - 1) * d, d, f_last.data());
  lm::Tensor logits(1, static_cast<std::size_t>(config_.vocab));
  head(f_last, logits);
  std::copy_n(logits.data(), out.size(), out.data());

  cache.length_ = base + s_len;
  cache.account();
}

void QuantizedLm::prefill(lm::KvCache& cache, std::span<const int> tokens,
                          std::span<float> out) {
  obs::Span span("quant.prefill");
  LMPEEL_CHECK_MSG(cache.length() == 0, "prefill requires an empty cache");
  extend(cache, tokens, out);
}

void QuantizedLm::prefill_from(lm::KvCache& cache,
                               std::span<const int> suffix,
                               std::span<float> out) {
  obs::Span span("quant.prefill_from");
  extend(cache, suffix, out);
}

void QuantizedLm::decode_batch(std::span<lm::KvCache* const> caches,
                               std::span<const int> tokens,
                               lm::Tensor& logits_out) {
  obs::Span span("quant.decode_batch");
  const std::size_t batch = caches.size();
  LMPEEL_CHECK(batch > 0 && tokens.size() == batch);
  LMPEEL_CHECK(logits_out.rows() == batch &&
               logits_out.cols() == static_cast<std::size_t>(config_.vocab));
  // Emitted under the same name as the f32 backend so decode-only tok/s
  // accounting (serve-bench, SLO monitor) reads identically for both.
  obs::Registry::global().counter("lm.transformer.decode_tokens").add(batch);
  obs::Registry::global().counter("quant.dequant_matmul_tokens").add(batch);
  const auto d = static_cast<std::size_t>(config_.d_model);
  const auto n_head = static_cast<std::size_t>(config_.n_head);
  const std::size_t hd = d / n_head;
  const float scale = 1.0f / std::sqrt(static_cast<float>(hd));

  lm::Tensor x(batch, d);
  for (std::size_t b = 0; b < batch; ++b) {
    lm::KvCache& cache = *caches[b];
    if (cache.paged()) {
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
    embed(tokens[b], cache.length_, x.data() + b * d);
  }

  lm::LayerNormCache ln_scratch;
  std::vector<float> prow;
  std::vector<mem::KvSpan> spans;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    QLayer& layer = layers_[l];

    lm::Tensor a(batch, d);
    lm::layer_norm(x, layer.ln1_g.row(0), layer.ln1_b.row(0), a, ln_scratch);

    lm::Tensor qkv(batch, 3 * d);
    project(a, layer.w_qkv, layer.h_qkv, &layer.b_qkv, qkv);

    lm::Tensor ctx(batch, d);
    for (std::size_t b = 0; b < batch; ++b) {
      lm::KvCache& cache = *caches[b];
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
        lm::attend_row(row + h * hd, spans.data(), spans.size(), d, h * hd,
                       t_len, hd, scale, prow.data(),
                       ctx.data() + b * d + h * hd);
      }
    }

    lm::Tensor attn(batch, d);
    project(ctx, layer.w_o, layer.h_o, &layer.b_o, attn);
    {
      float* xp = x.data();
      const float* ap = attn.data();
      for (std::size_t i = 0; i < x.size(); ++i) xp[i] += ap[i];
    }

    lm::Tensor m(batch, d);
    lm::layer_norm(x, layer.ln2_g.row(0), layer.ln2_b.row(0), m, ln_scratch);
    lm::Tensor h1(batch, 4 * d);
    project(m, layer.w_fc1, layer.h_fc1, &layer.b_fc1, h1);
    lm::Tensor g(batch, 4 * d);
    lm::gelu(h1, g);
    lm::Tensor h2(batch, d);
    project(g, layer.w_fc2, layer.h_fc2, &layer.b_fc2, h2);
    {
      float* xp = x.data();
      const float* hp = h2.data();
      for (std::size_t i = 0; i < x.size(); ++i) xp[i] += hp[i];
    }
  }

  lm::Tensor f(batch, d);
  lm::layer_norm(x, lnf_g_.row(0), lnf_b_.row(0), f, ln_scratch);
  head(f, logits_out);
  for (std::size_t b = 0; b < batch; ++b) {
    ++caches[b]->length_;
    caches[b]->account();
  }
}

void QuantizedLm::next_logits(std::span<const int> context,
                              std::span<float> out) {
  LMPEEL_CHECK(!context.empty());
  std::span<const int> window = context;
  if (window.size() > static_cast<std::size_t>(config_.max_seq)) {
    window = window.subspan(window.size() -
                            static_cast<std::size_t>(config_.max_seq));
  }
  lm::KvCache cache;
  prefill(cache, window, out);
}

}  // namespace lmpeel::quant
