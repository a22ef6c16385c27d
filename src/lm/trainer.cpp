#include "lm/trainer.hpp"

#include "obs/span.hpp"
#include "util/check.hpp"

namespace lmpeel::lm {

TrainResult train(
    TransformerLm& model,
    const std::function<MaskedSequence(util::Rng&)>& next_sequence,
    const TrainerOptions& options) {
  LMPEEL_CHECK(options.steps > 0 && options.batch_size > 0);
  LMPEEL_CHECK_MSG(options.report_every > 0, "report_every must be positive");
  AdamW optimizer(model.parameters(), model.gradients(), options.optimizer);

  TrainResult result;
  result.loss_curve.reserve(options.steps);

  obs::Span train_span("lm.train");
  for (std::size_t step = 0; step < options.steps; ++step) {
    obs::Span step_span("lm.train_step");
    model.zero_gradients();
    double batch_loss = 0.0;
    for (std::size_t b = 0; b < options.batch_size; ++b) {
      util::Rng rng(options.seed, step * options.batch_size + b);
      const MaskedSequence seq = next_sequence(rng);
      LMPEEL_CHECK(seq.tokens.size() >= 2);
      batch_loss += model.train_sequence(seq.tokens, seq.target_mask);
    }
    batch_loss /= static_cast<double>(options.batch_size);

    // Rescale accumulated gradients to the batch mean.
    const float inv_batch = 1.0f / static_cast<float>(options.batch_size);
    for (Tensor* g : model.gradients()) {
      float* data = g->data();
      for (std::size_t i = 0; i < g->size(); ++i) data[i] *= inv_batch;
    }

    const double lr = cosine_lr(options.optimizer.lr, step,
                                options.warmup_steps, options.steps);
    optimizer.step(lr);

    result.loss_curve.push_back(batch_loss);
    if (options.on_step && (step % options.report_every == 0 ||
                            step + 1 == options.steps)) {
      options.on_step(step, batch_loss);
    }
  }
  result.final_loss = result.loss_curve.back();
  return result;
}

}  // namespace lmpeel::lm
