// train_icl — the function-class ICL run (§I refs [9]-[13]) at reduced
// scale.
//
// Each job continues lm::train on the linear-function corpus (d_model 64,
// 4 heads, 2 layers, batch 6) for a fixed step count, then runs greedy
// eval episodes.  The trainer's backward kernels run nowhere else; the
// forward kernels also run in serve_mixed, so a backward-only change
// should move this workload alone.
#include <iostream>

#include "bench.hpp"
#include "lm/corpus.hpp"
#include "lm/generate.hpp"
#include "lm/trainer.hpp"
#include "lm/transformer.hpp"
#include "tok/tokenizer.hpp"
#include "util/rng.hpp"

namespace lmbench {
namespace {

using namespace lmpeel;

constexpr std::size_t kStepsPerJob = 10;
constexpr std::size_t kBatch = 6;
constexpr int kEvalEpisodes = 8;
/// Cross-entropy (nats) the answer tokens must fall below by the end of a
/// run: about half of an untrained model's ln(vocab) = 7.2.
constexpr double kLossBound = 3.5;

lm::LinearTaskOptions task_options() {
  // Single-token answers (y < 100), as in bench/function_class_icl.
  lm::LinearTaskOptions task;
  task.n_examples = 6;
  task.slope_min = 1;
  task.slope_max = 4;
  task.intercept_min = 0;
  task.intercept_max = 9;
  task.x_min = 1;
  task.x_max = 9;
  return task;
}

class TrainIcl final : public Workload {
 public:
  explicit TrainIcl(std::uint64_t seed) : seed_(seed) {}

  void setup(Tracer*) override {
    model_.reset();
    tokenizer_ = tok::Tokenizer();
    lm::TransformerConfig config;
    config.vocab = tokenizer_.vocab_size();
    config.d_model = 64;
    config.n_head = 4;
    config.n_layer = 2;
    config.max_seq = 96;
    model_ = std::make_unique<lm::TransformerLm>(
        config, util::hash_combine(seed_, 0x7a1));
  }

  Pass run(double seconds, Tracer* tracer) override {
    Pass pass;
    const lm::LinearTaskOptions task = task_options();
    std::vector<double> step_ms;
    std::uint64_t train_tokens = 0;
    double train_s = 0.0, first_loss = 0.0, last_job_loss = 0.0;
    std::size_t exact = 0, episodes = 0;
    std::vector<double> job_ms;
    std::vector<double> job_rate;  // per job: training tokens/s
    const double deadline = now_us() + seconds * 1e6;
    // Whole jobs only: the next starts if it should end by the deadline.
    for (std::uint64_t job = 0;
         job == 0 || now_us() + job_ms.back() * 1e3 <= deadline; ++job) {
      const double job_t0 = now_us();
      double prev_us = job_t0;
      double job_loss = 0.0;
      lm::TrainerOptions options;
      options.steps = kStepsPerJob;
      options.batch_size = kBatch;
      options.optimizer.lr = 2.5e-3;
      options.warmup_steps = job == 0 ? 5 : 0;
      options.seed = util::hash_combine(seed_, job);
      options.report_every = 1;
      options.on_step = [&](std::size_t step, double loss) {
        const double now = now_us();
        step_ms.push_back((now - prev_us) * 1e-3);
        if (tracer != nullptr) {
          tracer->add("lm.train.step", prev_us, now, job + 1);
        }
        prev_us = now;
        if (job == 0 && step == 0) first_loss = loss;
        job_loss += loss / kStepsPerJob;
        if (job == 0) pass.digest = digest_double(pass.digest, loss);
      };
      const auto next_sequence = [&](util::Rng& rng) {
        const MaybeScope timed(tracer, "lm.train.next_sequence");
        lm::MaskedSequence seq = lm::encode_linear_example(
            tokenizer_, lm::make_linear_prompt(task, rng));
        train_tokens += seq.tokens.size();
        return seq;
      };
      const std::uint64_t tokens0 = train_tokens;
      lm::train(*model_, next_sequence, options);
      const double job_train_s = (now_us() - job_t0) * 1e-6;
      train_s += job_train_s;
      job_rate.push_back(static_cast<double>(train_tokens - tokens0) /
                         job_train_s);
      last_job_loss = job_loss;

      for (int e = 0; e < kEvalEpisodes; ++e) {
        util::Rng rng(seed_, 0xe7a1 + e);
        const lm::LinearPrompt prompt = lm::make_linear_prompt(task, rng);
        std::vector<int> ids{tok::kBos};
        tokenizer_.encode_append(prompt.text, ids);
        lm::GenerateOptions gen;
        gen.sampler = {0.0, 0, 1.0};  // greedy
        gen.max_tokens = 4;
        const lm::Generation generation = lm::generate(*model_, ids, gen);
        const std::string text = tokenizer_.decode(generation.tokens);
        ++episodes;
        if (text.rfind(prompt.answer, 0) == 0) ++exact;
        if (job == 0) {
          for (const int t : generation.tokens) {
            pass.digest = digest_mix(pass.digest, t);
          }
        }
      }
      job_ms.push_back((now_us() - job_t0) * 1e-3);
    }
    pass.attempted += step_ms.size();
    pass.check(last_job_loss < first_loss && last_job_loss < kLossBound,
               "final loss " + std::to_string(last_job_loss) +
                   " below initial " + std::to_string(first_loss) +
                   " and below " + std::to_string(kLossBound));

    pass.e2e["work_per_s"] = median(job_rate);
    pass.e2e["latency_p50_ms"] = median(step_ms);
    pass.e2e["latency_p95_ms"] = percentile(step_ms, 95.0);
    std::cout << "train_icl: " << job_ms.size() << " jobs, " << step_ms.size()
              << " steps, " << train_tokens << " sequence tokens in "
              << train_s << " s; latency = optimizer step (n="
              << step_ms.size() << "); eval exact " << exact << "/"
              << episodes << "\n";

    if (tracer != nullptr) {
      const double sample_s = tracer->total_s("lm.train.next_sequence");
      const lm::TransformerConfig& c = model_->config();
      const TransformerShape shape{double(c.vocab), double(c.d_model),
                                   double(c.n_layer),
                                   double(model_->parameter_count())};
      // Forward vs forward+backward on one fixed batch; the difference is
      // the backward pass.  Gradients are zeroed afterwards and no
      // optimizer step runs, so the model is unchanged.
      util::Rng rng(seed_, 0xfb);
      std::vector<lm::MaskedSequence> batch;
      for (std::size_t b = 0; b < kBatch; ++b) {
        batch.push_back(lm::encode_linear_example(
            tokenizer_, lm::make_linear_prompt(task, rng)));
      }
      std::vector<double> fwd_ms, both_ms;
      for (int rep = 0; rep < 5; ++rep) {
        double t0 = now_us();
        for (const auto& seq : batch) {
          const Tracer::Scope timed(*tracer, "lm.transformer.evaluate_sequence");
          model_->evaluate_sequence(seq.tokens, seq.target_mask);
        }
        fwd_ms.push_back((now_us() - t0) * 1e-3);
        t0 = now_us();
        for (const auto& seq : batch) {
          const Tracer::Scope timed(*tracer, "lm.transformer.train_sequence");
          model_->train_sequence(seq.tokens, seq.target_mask);
        }
        both_ms.push_back((now_us() - t0) * 1e-3);
        model_->zero_gradients();
      }
      auto& L = pass.layer;
      L["lm.train.step_ms"] = median(step_ms);
      L["lm.train.sample_share"] = sample_s / train_s;
      L["lm.train.fwd_ms"] = median(fwd_ms);
      L["lm.train.bwd_ms"] = median(both_ms) - median(fwd_ms);
      L["lm.train.gflops"] =
          train_flops(shape, static_cast<double>(train_tokens)) / train_s *
          1e-9;
      std::cout << "train_icl: computed training cost "
                << train_flops(shape, static_cast<double>(train_tokens))
                << " FLOP (6*P*T, P=" << shape.params << ", T=" << train_tokens
                << "; computed from shapes)\n";
    }
    return pass;
  }

  std::map<std::string, std::string> labels() const override {
    return {{"model", "TransformerLm f32 d_model 64, 4 heads, 2 layers, "
                      "max_seq 96, default tokenizer vocab " +
                          std::to_string(tokenizer_.vocab_size())},
            {"train_job", std::to_string(kStepsPerJob) + " steps x batch " +
                              std::to_string(kBatch) + ", lr 2.5e-3, then " +
                              std::to_string(kEvalEpisodes) +
                              " greedy eval episodes"}};
  }

 private:
  std::uint64_t seed_;
  tok::Tokenizer tokenizer_;
  std::unique_ptr<lm::TransformerLm> model_;
};

}  // namespace

std::unique_ptr<Workload> make_train_icl(std::uint64_t seed) {
  return std::make_unique<TrainIcl>(seed);
}

}  // namespace lmbench
