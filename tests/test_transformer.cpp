#include "lm/transformer.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "lm/adamw.hpp"
#include "lm/corpus.hpp"
#include "lm/sampler.hpp"
#include "lm/trainer.hpp"
#include "tok/tokenizer.hpp"

namespace lmpeel::lm {
namespace {

TransformerConfig tiny_config(int vocab) {
  TransformerConfig cfg;
  cfg.vocab = vocab;
  cfg.d_model = 32;
  cfg.n_head = 2;
  cfg.n_layer = 2;
  cfg.max_seq = 64;
  return cfg;
}

TEST(Transformer, ParameterCountMatchesFormula) {
  const TransformerConfig cfg = tiny_config(100);
  TransformerLm model(cfg, 1);
  const std::size_t d = cfg.d_model;
  const std::size_t per_layer = 2 * d + (d * 3 * d + 3 * d) +
                                (d * d + d) + 2 * d + (d * 4 * d + 4 * d) +
                                (4 * d * d + d);
  const std::size_t expected = 100 * d + cfg.max_seq * d + 2 * d +
                               cfg.n_layer * per_layer;
  EXPECT_EQ(model.parameter_count(), expected);
  EXPECT_EQ(model.parameters().size(), model.gradients().size());
}

TEST(Transformer, GradientsMatchFiniteDifferences) {
  TransformerLm model(tiny_config(50), 2);
  const std::vector<int> seq{1, 4, 9, 16, 25, 36, 49, 2, 3};
  model.zero_gradients();
  model.train_sequence(seq);
  auto params = model.parameters();
  auto grads = model.gradients();

  // Probe a few parameters in distinct tensors (embeddings, attention
  // weights, MLP weights, layer norms).
  for (const std::size_t pi : {0u, 2u, 6u, 12u, 14u}) {
    ASSERT_LT(pi, params.size());
    const std::size_t i = params[pi]->size() / 2;
    float* w = params[pi]->data();
    const float eps = 1e-2f;
    const float orig = w[i];
    w[i] = orig + eps;
    const double up = model.evaluate_sequence(seq);
    w[i] = orig - eps;
    const double down = model.evaluate_sequence(seq);
    w[i] = orig;
    const double fd = (up - down) / (2.0 * eps);
    const double an = grads[pi]->data()[i];
    EXPECT_NEAR(fd, an, std::max(2e-3, std::abs(fd) * 0.05))
        << "parameter tensor " << pi;
  }
}

TEST(Transformer, CausalityHoldsAtInference) {
  // The logits for position t must not depend on tokens after t: comparing
  // next_logits on a prefix vs the same prefix embedded in a longer
  // context must agree on the prefix's final position.
  TransformerLm model(tiny_config(30), 3);
  const std::vector<int> prefix{5, 6, 7};
  std::vector<float> a(30), b(30);
  model.next_logits(prefix, a);
  // next_logits only sees the context it is given, so recompute with the
  // same tokens to confirm determinism (causality is structural: attention
  // is masked to u <= t).
  model.next_logits(prefix, b);
  for (int v = 0; v < 30; ++v) EXPECT_FLOAT_EQ(a[v], b[v]);
}

TEST(Transformer, MaskedLossOnlyCountsSelectedPositions) {
  TransformerLm model(tiny_config(40), 4);
  const std::vector<int> seq{1, 2, 3, 4, 5};
  std::vector<std::uint8_t> mask_all(4, 1);
  std::vector<std::uint8_t> mask_one(4, 0);
  mask_one[3] = 1;
  const double all = model.evaluate_sequence(seq, mask_all);
  const double one = model.evaluate_sequence(seq, mask_one);
  EXPECT_GT(all, 0.0);
  EXPECT_GT(one, 0.0);
  EXPECT_NE(all, one);
}

TEST(Transformer, NoTargetsThrows) {
  TransformerLm model(tiny_config(40), 4);
  const std::vector<int> seq{1, 2, 3};
  const std::vector<std::uint8_t> none(2, 0);
  EXPECT_THROW(model.evaluate_sequence(seq, none), std::runtime_error);
}

TEST(Transformer, ContextWindowCropsOldTokens) {
  TransformerConfig cfg = tiny_config(20);
  cfg.max_seq = 8;
  TransformerLm model(cfg, 5);
  std::vector<int> lengthy(30, 3);
  std::vector<float> out(20);
  EXPECT_NO_THROW(model.next_logits(lengthy, out));
}

TEST(Transformer, KvCacheMatchesFullForward) {
  TransformerLm model(tiny_config(60), 11);
  const std::vector<int> seq{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5};
  std::vector<float> full(60), cached(60);

  TransformerLm::KvCache cache;
  // Feed the prefix in two chunks, then one token at a time.
  model.decode(cache, std::span<const int>(seq).subspan(0, 4), cached);
  model.next_logits(std::span<const int>(seq).subspan(0, 4), full);
  for (int v = 0; v < 60; ++v) EXPECT_NEAR(full[v], cached[v], 2e-3f);

  for (std::size_t t = 4; t < seq.size(); ++t) {
    model.decode(cache, std::span<const int>(&seq[t], 1), cached);
    model.next_logits(std::span<const int>(seq).subspan(0, t + 1), full);
    for (int v = 0; v < 60; ++v) {
      ASSERT_NEAR(full[v], cached[v], 2e-3f) << "position " << t;
    }
  }
  EXPECT_EQ(cache.length(), seq.size());
  cache.clear();
  EXPECT_EQ(cache.length(), 0u);
}

TEST(Transformer, PrefillMatchesNextLogitsBitForBit) {
  TransformerLm model(tiny_config(60), 11);
  const std::vector<int> seq{3, 1, 4, 1, 5, 9, 2, 6};
  std::vector<float> full(60), prefilled(60);
  TransformerLm::KvCache cache;
  model.prefill(cache, seq, prefilled);
  model.next_logits(seq, full);
  EXPECT_EQ(cache.length(), seq.size());
  for (int v = 0; v < 60; ++v) {
    ASSERT_EQ(full[v], prefilled[v]) << "vocab " << v;
  }
  // prefill requires an empty cache.
  EXPECT_THROW(model.prefill(cache, seq, prefilled), std::runtime_error);
}

TEST(Transformer, DecodeBatchMatchesFullForwardBitForBit) {
  // The serve engine's core guarantee: a prefill + incremental batched
  // decode steps produce the exact same floats as next_logits over the
  // growing context — no tolerance, ragged lengths included.  Nine
  // sequences put the batched matmuls on the blocked 8-row kernel path
  // plus a tail row (and vocab 60 exercises the tied-head panel tail), so
  // every accumulation order in the SIMD kernels is covered bit-for-bit.
  TransformerLm model(tiny_config(60), 11);
  const std::vector<std::vector<int>> prompts{
      {3, 1, 4, 1, 5}, {9, 2},     {6, 5, 3, 5, 8, 9, 7},
      {2, 7, 1},       {8, 8, 4},  {1},
      {5, 9, 2, 6},    {10, 3, 3}, {4, 6, 1, 8, 2, 7}};
  const std::size_t batch = prompts.size();

  std::vector<TransformerLm::KvCache> caches(batch);
  std::vector<TransformerLm::KvCache*> cache_ptrs;
  std::vector<std::vector<int>> contexts = prompts;
  std::vector<float> scratch(60);
  for (std::size_t b = 0; b < batch; ++b) {
    model.prefill(caches[b], prompts[b], scratch);
    cache_ptrs.push_back(&caches[b]);
  }

  std::vector<int> next{7, 11, 13, 2, 5, 9, 17, 23, 31};
  Tensor logits(batch, 60);
  std::vector<float> full(60);
  for (int step = 0; step < 5; ++step) {
    model.decode_batch(cache_ptrs, next, logits);
    for (std::size_t b = 0; b < batch; ++b) {
      contexts[b].push_back(next[b]);
      model.next_logits(contexts[b], full);
      for (int v = 0; v < 60; ++v) {
        ASSERT_EQ(full[v], logits.at(b, static_cast<std::size_t>(v)))
            << "step " << step << " sequence " << b << " vocab " << v;
      }
      // Feed each sequence its own argmax so the streams diverge.
      next[b] = sample_greedy(logits.row(b));
    }
  }

  // A single-sequence batch goes down the same path.
  TransformerLm::KvCache solo;
  model.prefill(solo, prompts[0], scratch);
  TransformerLm::KvCache* solo_ptr = &solo;
  Tensor solo_logits(1, 60);
  const std::vector<int> one{7};
  model.decode_batch(std::span<TransformerLm::KvCache* const>(&solo_ptr, 1),
                     one, solo_logits);
  std::vector<int> ctx = prompts[0];
  ctx.push_back(7);
  model.next_logits(ctx, full);
  for (int v = 0; v < 60; ++v) {
    ASSERT_EQ(full[v], solo_logits.at(0, static_cast<std::size_t>(v)));
  }
}

TEST(Transformer, DecodeBatchRespectsMaxSeq) {
  TransformerConfig cfg = tiny_config(20);
  cfg.max_seq = 4;
  TransformerLm model(cfg, 12);
  TransformerLm::KvCache cache;
  std::vector<float> out(20);
  const std::vector<int> four{1, 2, 3, 4};
  model.prefill(cache, four, out);
  TransformerLm::KvCache* ptr = &cache;
  const std::vector<int> one{5};
  Tensor logits(1, 20);
  EXPECT_THROW(
      model.decode_batch(std::span<TransformerLm::KvCache* const>(&ptr, 1),
                         one, logits),
      std::runtime_error);
}

TEST(Transformer, KvCacheRespectsMaxSeq) {
  TransformerConfig cfg = tiny_config(20);
  cfg.max_seq = 4;
  TransformerLm model(cfg, 12);
  TransformerLm::KvCache cache;
  std::vector<float> out(20);
  const std::vector<int> four{1, 2, 3, 4};
  EXPECT_NO_THROW(model.decode(cache, four, out));
  const std::vector<int> one{5};
  EXPECT_THROW(model.decode(cache, one, out), std::runtime_error);
}

TEST(Transformer, TrainingReducesLossOnRepetitiveData) {
  tok::Tokenizer tz;
  TransformerConfig cfg;
  cfg.vocab = tz.vocab_size();
  cfg.d_model = 32;
  cfg.n_head = 2;
  cfg.n_layer = 2;
  cfg.max_seq = 64;
  TransformerLm model(cfg, 7);

  TrainerOptions options;
  options.steps = 60;
  options.batch_size = 4;
  options.optimizer.lr = 3e-3;
  LinearTaskOptions task;
  task.n_examples = 3;
  const auto result = train(
      model,
      [&](util::Rng& rng) {
        return encode_linear_example(tz, make_linear_prompt(task, rng));
      },
      options);
  ASSERT_EQ(result.loss_curve.size(), 60u);
  EXPECT_LT(result.final_loss, result.loss_curve.front() * 0.7);
}

// FNV-1a over the bytes of `word`, low byte first.
std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t word) {
  for (int b = 0; b < 8; ++b) {
    h ^= (word >> (8 * b)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

// Hashes the bit pattern of every float.  With `fold_zero_sign`, -0.0f
// hashes as +0.0f: accumulation that no longer skips zero terms may flip
// the sign of a zero gradient, which AdamW turns into the same parameter
// bits.
std::uint64_t hash_tensors(std::uint64_t h, const std::vector<Tensor*>& ts,
                           bool fold_zero_sign) {
  for (const Tensor* t : ts) {
    for (std::size_t i = 0; i < t->size(); ++i) {
      float v = t->data()[i];
      if (fold_zero_sign && v == 0.0f) v = 0.0f;
      h = fnv_mix(h, std::bit_cast<std::uint32_t>(v));
    }
  }
  return h;
}

// Pins the training arithmetic bit for bit: three AdamW steps over masked
// linear-function sequences, and one unmasked train_sequence in which every
// row is a target.  d_model 20 puts row and column tails into every
// projection kernel (20 % 8, 60 % 32, 80 % 32).  The expected hashes were
// computed with the unblocked reference backward kernels (strict-order
// dots, full [T x V] logits, tanh evaluated in both forward and backward);
// a change to any gradient's add sequence changes them.  libm's tanhf,
// exp and log results enter the hashes too.
TEST(Transformer, TrainingTrajectoryIsPinned) {
  tok::Tokenizer tz;
  TransformerConfig cfg;
  cfg.vocab = tz.vocab_size();
  cfg.d_model = 20;
  cfg.n_head = 2;
  cfg.n_layer = 2;
  cfg.max_seq = 64;
  LinearTaskOptions task;
  task.n_examples = 3;
  const auto draw = [&](util::Rng& rng) {
    return encode_linear_example(tz, make_linear_prompt(task, rng));
  };

  TransformerLm model(cfg, 21);
  TrainerOptions options;
  options.steps = 3;
  options.batch_size = 3;
  options.warmup_steps = 1;
  options.optimizer.lr = 3e-3;
  options.seed = 5;
  const TrainResult result = train(model, draw, options);
  std::uint64_t masked = 14695981039346656037ull;
  for (const double loss : result.loss_curve) {
    masked = fnv_mix(masked, std::bit_cast<std::uint64_t>(loss));
  }
  masked = hash_tensors(masked, model.parameters(), false);
  masked = hash_tensors(masked, model.gradients(), true);

  TransformerLm fresh(cfg, 22);
  util::Rng rng(9);
  const MaskedSequence seq = draw(rng);
  fresh.zero_gradients();
  const double loss = fresh.train_sequence(seq.tokens);
  std::uint64_t unmasked =
      fnv_mix(14695981039346656037ull, std::bit_cast<std::uint64_t>(loss));
  unmasked = hash_tensors(unmasked, fresh.gradients(), true);

  EXPECT_EQ(masked, 0x93c1acc147694d35ull) << std::hex << masked;
  EXPECT_EQ(unmasked, 0x7f544936a19bb7f1ull) << std::hex << unmasked;
}

TEST(Trainer, ZeroReportEveryThrows) {
  TransformerLm model(tiny_config(30), 8);
  TrainerOptions options;
  options.steps = 1;
  options.batch_size = 1;
  options.report_every = 0;
  options.on_step = [](std::size_t, double) {};
  const auto draw = [](util::Rng&) {
    return MaskedSequence{{1, 2, 3}, {1, 1}};
  };
  EXPECT_THROW(train(model, draw, options), std::runtime_error);
}

TEST(AdamW, StepMovesParametersAgainstGradient) {
  TransformerLm model(tiny_config(30), 8);
  const std::vector<int> seq{1, 2, 3, 4};
  model.zero_gradients();
  const double before = model.train_sequence(seq);
  AdamWConfig cfg;
  cfg.lr = 1e-2;
  cfg.weight_decay = 0.0;
  AdamW opt(model.parameters(), model.gradients(), cfg);
  EXPECT_GT(opt.gradient_norm(), 0.0);
  opt.step();
  EXPECT_EQ(opt.steps_taken(), 1u);
  const double after = model.evaluate_sequence(seq);
  EXPECT_LT(after, before);
}

TEST(CosineLr, WarmupThenDecay) {
  EXPECT_NEAR(cosine_lr(1.0, 0, 10, 100), 0.1, 1e-9);   // warmup ramp
  EXPECT_NEAR(cosine_lr(1.0, 9, 10, 100), 1.0, 1e-9);   // warmup end
  EXPECT_NEAR(cosine_lr(1.0, 10, 10, 100), 1.0, 1e-6);  // peak
  EXPECT_NEAR(cosine_lr(1.0, 100, 10, 100), 0.1, 1e-6); // floor (min_ratio)
  // Monotone decreasing after warmup.
  double prev = 2.0;
  for (std::size_t s = 10; s <= 100; s += 10) {
    const double lr = cosine_lr(1.0, s, 10, 100);
    EXPECT_LE(lr, prev + 1e-12);
    prev = lr;
  }
}

TEST(Corpus, LinearPromptAnswerIsConsistent) {
  LinearTaskOptions options;
  util::Rng rng(3);
  for (int i = 0; i < 20; ++i) {
    const LinearPrompt p = make_linear_prompt(options, rng);
    EXPECT_EQ(p.answer,
              std::to_string(p.slope * p.query_x + p.intercept));
    EXPECT_NE(p.text.find("x=" + std::to_string(p.query_x) + ", y="),
              std::string::npos);
  }
}

TEST(Corpus, MaskSelectsAnswerTokensOnly) {
  tok::Tokenizer tz;
  LinearTaskOptions options;
  options.n_examples = 2;
  util::Rng rng(4);
  const LinearPrompt p = make_linear_prompt(options, rng);
  const MaskedSequence seq = encode_linear_example(tz, p);
  ASSERT_EQ(seq.target_mask.size(), seq.tokens.size() - 1);
  std::size_t active = 0;
  for (const auto m : seq.target_mask) active += m;
  // answer tokens + <eos>
  EXPECT_EQ(active, tz.encode(p.answer).size() + 1);
  EXPECT_EQ(seq.tokens.back(), tok::kEos);
}

TEST(Corpus, DecimalCorpusParses) {
  util::Rng rng(5);
  const std::string corpus = make_decimal_corpus(20, 0.001, 10.0, rng);
  std::size_t lines = 0;
  for (const char c : corpus) lines += c == '\n';
  EXPECT_EQ(lines, 20u);
  EXPECT_NE(corpus.find("Performance: "), std::string::npos);
}

}  // namespace
}  // namespace lmpeel::lm
