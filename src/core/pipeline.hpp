// Shared experiment fixture: one tokenizer (BPE-trained on a deterministic
// prompt corpus), the performance model, cached datasets per size, and the
// language model under study.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "lm/induction_lm.hpp"
#include "perf/dataset.hpp"
#include "prompt/template.hpp"
#include "tok/tokenizer.hpp"

namespace lmpeel::core {

struct PipelineConfig {
  std::uint64_t dataset_seed = 42;
  std::size_t bpe_merges = 400;
  lm::InductionParams lm_params;
  prompt::PromptOptions prompt_options;
};

class Pipeline {
 public:
  explicit Pipeline(PipelineConfig config = {});

  /// The deterministic corpus the constructor trains BPE on: the prompt
  /// templates themselves, so the tokenizer sees exactly the vocabulary
  /// the experiments use (and the "Performance:" marker tokenises stably).
  static std::string bpe_corpus(const PipelineConfig& config);

  const PipelineConfig& config() const noexcept { return config_; }
  const tok::Tokenizer& tokenizer() const noexcept { return tokenizer_; }
  const perf::Syr2kModel& perf_model() const noexcept { return perf_model_; }
  lm::InductionLm& model() noexcept { return *model_; }

  /// Lazily generated, cached full-space dataset for a size.
  const perf::Dataset& dataset(perf::SizeClass size);

  prompt::PromptBuilder builder(perf::SizeClass size) const {
    return prompt::PromptBuilder(size, config_.prompt_options);
  }

 private:
  PipelineConfig config_;
  tok::Tokenizer tokenizer_;
  perf::Syr2kModel perf_model_;
  std::unique_ptr<lm::InductionLm> model_;
  std::map<perf::SizeClass, perf::Dataset> datasets_;
};

}  // namespace lmpeel::core
