// Micro-benchmarks of the substrates (google-benchmark): tokenizer
// throughput, induction-model logit computation (integer and fraction
// positions), transformer forward pass, the training backward kernels and
// one training sequence, attention forward and backward, the AdamW step,
// BPE training, GBT training, syr2k model evaluation, dataset generation,
// haystack enumeration (Monte-Carlo and exact) and the edit-distance
// neighbour order.  These validate that
// the HPC-parallel substrate is fast enough for the paper-scale sweeps and
// catch performance regressions.
#include <benchmark/benchmark.h>

#include <cmath>
#include <sstream>
#include <string>

#include "core/pipeline.hpp"
#include "gbt/booster.hpp"
#include "haystack/decoding_set.hpp"
#include "lm/adamw.hpp"
#include "lm/attention.hpp"
#include "lm/corpus.hpp"
#include "lm/generate.hpp"
#include "lm/tensor.hpp"
#include "lm/transformer.hpp"
#include "perf/dataset.hpp"
#include "prompt/render.hpp"
#include "tok/bpe.hpp"

namespace {

using namespace lmpeel;

core::Pipeline& shared_pipeline() {
  static core::Pipeline pipeline;
  return pipeline;
}

void BM_TokenizerEncode(benchmark::State& state) {
  auto& pipeline = shared_pipeline();
  const auto builder = pipeline.builder(perf::SizeClass::SM);
  const auto& data = pipeline.dataset(perf::SizeClass::SM);
  std::vector<perf::Sample> examples(data.samples().begin(),
                                     data.samples().begin() + 10);
  const std::string text = builder.user_text(examples, data[77].config);
  std::size_t tokens = 0;
  for (auto _ : state) {
    const auto ids = pipeline.tokenizer().encode(text);
    benchmark::DoNotOptimize(ids.data());
    tokens += ids.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(tokens));
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * text.size()));
}
BENCHMARK(BM_TokenizerEncode);

// Arg 0: in-context examples.  The context ends right after the query's
// leading space, at the value's integer position.
void BM_InductionNextLogits(benchmark::State& state) {
  auto& pipeline = shared_pipeline();
  const auto builder = pipeline.builder(perf::SizeClass::SM);
  const auto& data = pipeline.dataset(perf::SizeClass::SM);
  std::vector<perf::Sample> examples(
      data.samples().begin(),
      data.samples().begin() + state.range(0));
  auto ids = builder.encode(pipeline.tokenizer(), examples, data[5].config);
  ids.push_back(pipeline.tokenizer().space_token());
  std::vector<float> logits(pipeline.model().vocab_size());
  for (auto _ : state) {
    pipeline.model().next_logits(ids, logits);
    benchmark::DoNotOptimize(logits.data());
  }
}
BENCHMARK(BM_InductionNextLogits)->Arg(10)->Arg(50)->Arg(100);

// As BM_InductionNextLogits, with the first example's integer group, dot
// and first fraction group already emitted, so the call runs the digit
// prior's neighbourhoods and the 1000-group background at a fraction
// position, as most of a sweep's value tokens do.
void BM_InductionNextLogitsFraction(benchmark::State& state) {
  auto& pipeline = shared_pipeline();
  const auto& tz = pipeline.tokenizer();
  const auto builder = pipeline.builder(perf::SizeClass::SM);
  const auto& data = pipeline.dataset(perf::SizeClass::SM);
  std::vector<perf::Sample> examples(
      data.samples().begin(),
      data.samples().begin() + state.range(0));
  auto ids = builder.encode(tz, examples, data[5].config);
  ids.push_back(tz.space_token());
  const auto value = tz.encode(prompt::render_value(
      examples.front().runtime,
      pipeline.config().prompt_options.number_format));
  if (value.size() < 4) {
    state.SkipWithError("value has no second fraction group");
    return;
  }
  ids.insert(ids.end(), value.begin(), value.begin() + 3);
  std::vector<float> logits(pipeline.model().vocab_size());
  for (auto _ : state) {
    pipeline.model().next_logits(ids, logits);
    benchmark::DoNotOptimize(logits.data());
  }
}
BENCHMARK(BM_InductionNextLogitsFraction)->Arg(10)->Arg(100);

void BM_TransformerForward(benchmark::State& state) {
  lm::TransformerConfig config;
  config.vocab = 1500;
  config.d_model = 64;
  config.n_head = 4;
  config.n_layer = 2;
  config.max_seq = 128;
  lm::TransformerLm model(config, 1);
  std::vector<int> context(state.range(0));
  for (std::size_t i = 0; i < context.size(); ++i) {
    context[i] = static_cast<int>(i * 37 % config.vocab);
  }
  std::vector<float> logits(config.vocab);
  for (auto _ : state) {
    model.next_logits(context, logits);
    benchmark::DoNotOptimize(logits.data());
  }
}
BENCHMARK(BM_TransformerForward)->Arg(32)->Arg(128);

// Args {m, k, n}: da[m, k] += grad[m, n] · b[k, n]^T.  The two shapes are
// the MLP's at d_model 64 over a 70-token sequence.  Items are MACs.
void BM_MatmulGradA(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto n = static_cast<std::size_t>(state.range(2));
  util::Rng rng(1);
  lm::Tensor grad(m, n), b(k, n), da(m, k);
  grad.randomize(rng, 1.0f);
  b.randomize(rng, 1.0f);
  for (auto _ : state) {
    lm::matmul_grad_a(grad, b, da);
    benchmark::DoNotOptimize(da.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * m * k * n));
}
BENCHMARK(BM_MatmulGradA)->Args({70, 64, 256})->Args({70, 256, 64});

// Args {m, k, n}: db[k, n] += a[m, k]^T · grad[m, n].  Items are MACs.
void BM_MatmulGradB(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto n = static_cast<std::size_t>(state.range(2));
  util::Rng rng(2);
  lm::Tensor a(m, k), grad(m, n), db(k, n);
  a.randomize(rng, 1.0f);
  grad.randomize(rng, 1.0f);
  for (auto _ : state) {
    lm::matmul_grad_b(a, grad, db);
    benchmark::DoNotOptimize(db.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * m * k * n));
}
BENCHMARK(BM_MatmulGradB)->Args({70, 64, 256})->Args({70, 256, 64});

// Forward + backward over one linear-function sequence (70 tokens at these
// task options) with its answer mask, on the lmbench train_icl model.
// Items are tokens.
void BM_TrainSequence(benchmark::State& state) {
  const tok::Tokenizer tokenizer;
  lm::TransformerConfig config;
  config.vocab = tokenizer.vocab_size();
  config.d_model = 64;
  config.n_head = 4;
  config.n_layer = 2;
  config.max_seq = 96;
  lm::TransformerLm model(config, 1);
  lm::LinearTaskOptions task;
  task.n_examples = 6;
  task.slope_max = 4;
  task.intercept_max = 9;
  task.x_max = 9;
  util::Rng rng(3);
  const lm::MaskedSequence seq =
      lm::encode_linear_example(tokenizer, lm::make_linear_prompt(task, rng));
  for (auto _ : state) {
    model.zero_gradients();
    benchmark::DoNotOptimize(model.train_sequence(seq.tokens, seq.target_mask));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * seq.tokens.size()));
}
BENCHMARK(BM_TrainSequence)->Unit(benchmark::kMillisecond);

// Args {head_dim, T}: one decode-shaped query over T cached keys (rows
// head_dim * 6 floats apart, the serve_mixed KV layout at head_dim 64).
// Items are keys.
void BM_AttendRow(benchmark::State& state) {
  const auto hd = static_cast<std::size_t>(state.range(0));
  const auto t_len = static_cast<std::size_t>(state.range(1));
  const std::size_t stride = 6 * hd;
  util::Rng rng(4);
  lm::Tensor k(t_len, stride), v(t_len, stride), q(1, hd);
  k.randomize(rng, 1.0f);
  v.randomize(rng, 1.0f);
  q.randomize(rng, 1.0f);
  const mem::KvSpan span{k.data(), v.data(), t_len};
  std::vector<float> prow(t_len), ctx(hd);
  const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
  for (auto _ : state) {
    lm::attend_row(q.data(), &span, 1, stride, 2 * hd, t_len, hd, scale,
                   prow.data(), ctx.data());
    benchmark::DoNotOptimize(ctx.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * t_len));
}
BENCHMARK(BM_AttendRow)
    ->Args({16, 96})
    ->Args({16, 192})
    ->Args({16, 408})
    ->Args({64, 96})
    ->Args({64, 192})
    ->Args({64, 408});

// The attention backward of one train_icl layer: 70 tokens, d_model 64,
// 4 heads, with the forward's probabilities.  Items are tokens.
void BM_AttentionBackward(benchmark::State& state) {
  constexpr std::size_t kT = 70, kD = 64, kHeads = 4, kHd = kD / kHeads;
  util::Rng rng(5);
  lm::Tensor qkv(kT, 3 * kD), dctx(kT, kD), ctx(kT, kD), dqkv(kT, 3 * kD);
  qkv.randomize(rng, 1.0f);
  dctx.randomize(rng, 0.1f);
  const float scale = 1.0f / std::sqrt(static_cast<float>(kHd));
  const mem::KvSpan span{qkv.data() + kD, qkv.data() + 2 * kD, kT};
  std::vector<lm::Tensor> probs(kHeads, lm::Tensor(kT, kT));
  for (std::size_t h = 0; h < kHeads; ++h) {
    lm::attend_rows(qkv.data() + h * kHd, 3 * kD, &span, 1, 3 * kD, h * kHd,
                    0, kT, kHd, scale, probs[h].data(), kT,
                    ctx.data() + h * kHd, kD);
  }
  for (auto _ : state) {
    dqkv.zero();
    lm::attention_backward(qkv, probs, dctx, scale, dqkv);
    benchmark::DoNotOptimize(dqkv.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kT));
}
BENCHMARK(BM_AttentionBackward);

// One AdamW step over the lmbench train_icl model's parameters.  Items are
// parameters.
void BM_AdamWStep(benchmark::State& state) {
  const tok::Tokenizer tokenizer;
  lm::TransformerConfig config;
  config.vocab = tokenizer.vocab_size();
  config.d_model = 64;
  config.n_head = 4;
  config.n_layer = 2;
  config.max_seq = 96;
  lm::TransformerLm model(config, 1);
  util::Rng rng(6);
  std::size_t n = 0;
  for (lm::Tensor* g : model.gradients()) {
    g->randomize(rng, 0.01f);
    n += g->size();
  }
  lm::AdamW optimizer(model.parameters(), model.gradients(), {});
  for (auto _ : state) optimizer.step(1e-4);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK(BM_AdamWStep);

// BPE training on the Pipeline's corpus (400 merges), the bulk of
// core::Pipeline's constructor.
void BM_BpeTrain(benchmark::State& state) {
  const core::PipelineConfig config;
  const std::string corpus = core::Pipeline::bpe_corpus(config);
  for (auto _ : state) {
    tok::Vocab vocab;
    tok::Bpe bpe;
    bpe.train(corpus, vocab, config.bpe_merges);
    benchmark::DoNotOptimize(bpe.merge_count());
  }
}
BENCHMARK(BM_BpeTrain)->Unit(benchmark::kMillisecond);

void BM_GbtFit(benchmark::State& state) {
  auto& pipeline = shared_pipeline();
  const auto& data = pipeline.dataset(perf::SizeClass::SM);
  const auto x = data.feature_matrix();
  const auto y = data.targets();
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  const std::size_t cols = perf::ConfigSpace::kNumFeatures;
  const std::vector<double> tx(x.begin(), x.begin() + rows * cols);
  const std::vector<double> ty(y.begin(), y.begin() + rows);
  gbt::BoosterParams params;
  params.n_estimators = 50;
  params.max_depth = 5;
  for (auto _ : state) {
    gbt::GradientBoostedTrees model;
    model.fit(tx, cols, ty, params, 1);
    benchmark::DoNotOptimize(model.n_trees());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * rows));
}
BENCHMARK(BM_GbtFit)->Arg(500)->Arg(2000)->Arg(8519);

void BM_Syr2kEvaluate(benchmark::State& state) {
  const perf::Syr2kModel model;
  const perf::ConfigSpace space;
  std::size_t i = 0;
  for (auto _ : state) {
    const double t = model.expected_runtime(
        space.at(i % space.size()), perf::SizeClass::XL);
    benchmark::DoNotOptimize(t);
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Syr2kEvaluate);

void BM_DatasetGenerate(benchmark::State& state) {
  const perf::Syr2kModel model;
  for (auto _ : state) {
    const auto data =
        perf::Dataset::generate(model, perf::SizeClass::SM, 42);
    benchmark::DoNotOptimize(data.size());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * perf::kSpaceSize));
}
BENCHMARK(BM_DatasetGenerate)->Unit(benchmark::kMillisecond);

// Arg 0: 0 forces the Monte-Carlo path (5000 samples), 1 enumerates the
// same trace exactly.  Items are samples or reachable paths.
void BM_HaystackEnumeration(benchmark::State& state) {
  auto& pipeline = shared_pipeline();
  const auto& tz = pipeline.tokenizer();
  const auto builder = pipeline.builder(perf::SizeClass::SM);
  const auto& data = pipeline.dataset(perf::SizeClass::SM);
  std::vector<perf::Sample> examples(data.samples().begin(),
                                     data.samples().begin() + 25);
  const auto ids = builder.encode(tz, examples, data[9].config);
  lm::GenerateOptions gen;
  gen.sampler = {1.0, 0, 1.0};
  gen.stop_token = tz.newline_token();
  gen.seed = 1;
  const auto generation = lm::generate(pipeline.model(), ids, gen);
  const auto span = haystack::find_value_span(generation.trace, tz);
  if (!span.has_value()) {
    state.SkipWithError("no value span");
    return;
  }
  const bool exact = state.range(0) != 0;
  const double paths =
      generation.trace.permutations(span->first, span->second);
  haystack::DecodingOptions options;
  options.exact_limit = exact ? paths : 1;
  options.mc_samples = 5000;
  for (auto _ : state) {
    const auto set = haystack::build_decoding_set(
        generation.trace, tz, span->first, span->second, options);
    benchmark::DoNotOptimize(set.values.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      static_cast<double>(state.iterations()) *
      (exact ? paths : static_cast<double>(options.mc_samples))));
}
BENCHMARK(BM_HaystackEnumeration)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_EditDistanceOrder(benchmark::State& state) {
  // The first n rows of the SM dataset, round-tripped through the CSV
  // interchange (a Dataset is only built by generate or read_csv).
  std::stringstream full, part;
  shared_pipeline().dataset(perf::SizeClass::SM).write_csv(full);
  const auto rows = static_cast<std::size_t>(state.range(0));
  std::string line;
  for (std::size_t i = 0; i <= rows && std::getline(full, line); ++i) {
    part << line << '\n';
  }
  const auto data = perf::Dataset::read_csv(part);
  std::size_t centre = 0;
  for (auto _ : state) {
    const auto order = perf::edit_distance_order(data, centre);
    benchmark::DoNotOptimize(order.data());
    centre = (centre + 97) % data.size();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * data.size()));
}
BENCHMARK(BM_EditDistanceOrder)->Arg(8519);

}  // namespace

BENCHMARK_MAIN();
