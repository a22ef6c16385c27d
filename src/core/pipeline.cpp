#include "core/pipeline.hpp"

#include "obs/span.hpp"
#include "util/rng.hpp"

namespace lmpeel::core {

Pipeline::Pipeline(PipelineConfig config) : config_(std::move(config)) {
  obs::Span span("core.pipeline_init");
  tokenizer_.train_bpe(bpe_corpus(config_), config_.bpe_merges);
  model_ = std::make_unique<lm::InductionLm>(tokenizer_, config_.lm_params);
}

std::string Pipeline::bpe_corpus(const PipelineConfig& config) {
  std::string corpus;
  util::Rng rng(config.dataset_seed, 0xb9e);
  const perf::ConfigSpace space;
  for (const perf::SizeClass size : {perf::SizeClass::SM, perf::SizeClass::XL}) {
    const prompt::PromptBuilder pb(size, config.prompt_options);
    corpus += pb.system_text();
    corpus += '\n';
    corpus += pb.problem_text();
    corpus += '\n';
    for (int i = 0; i < 24; ++i) {
      const auto idx =
          static_cast<std::size_t>(rng.uniform_int(0, space.size() - 1));
      corpus += prompt::render_config(space.at(idx), size);
      corpus += '\n';
      corpus += "Performance: 0.0022155\n\n";
    }
    corpus += "Please complete the following:\nPerformance class: good\n"
              "Performance class: bad\n";
    corpus +=
        "Based on the provided examples, the predicted performance is\n"
        "The estimated runtime for this configuration is\n"
        "I cannot accurately determine the runtime for this configuration "
        "without additional information.\n"
        "More profiling data would be required to estimate this "
        "configuration's performance.\n";
  }
  return corpus;
}

const perf::Dataset& Pipeline::dataset(perf::SizeClass size) {
  auto it = datasets_.find(size);
  if (it == datasets_.end()) {
    obs::Span span("core.dataset_generate");
    it = datasets_
             .emplace(size, perf::Dataset::generate(perf_model_, size,
                                                    config_.dataset_seed))
             .first;
    obs::Registry::global().counter("core.datasets_generated").add();
  }
  return it->second;
}

}  // namespace lmpeel::core
