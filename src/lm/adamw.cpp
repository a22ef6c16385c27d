#include "lm/adamw.hpp"

#include <cmath>
#include <numbers>

#include "lm/f32_kernels.hpp"
#include "obs/span.hpp"
#include "util/check.hpp"

namespace lmpeel::lm {

AdamW::AdamW(std::vector<Tensor*> params, std::vector<Tensor*> grads,
             AdamWConfig config)
    : params_(std::move(params)), grads_(std::move(grads)), config_(config) {
  LMPEEL_CHECK(params_.size() == grads_.size());
  m_.resize(params_.size());
  v_.resize(params_.size());
  for (std::size_t i = 0; i < params_.size(); ++i) {
    LMPEEL_CHECK(params_[i]->size() == grads_[i]->size());
    m_[i].assign(params_[i]->size(), 0.0f);
    v_[i].assign(params_[i]->size(), 0.0f);
  }
}

double AdamW::gradient_norm() const {
  double acc = 0.0;
  for (const Tensor* g : grads_) {
    const float* data = g->data();
    for (std::size_t i = 0; i < g->size(); ++i) {
      acc += static_cast<double>(data[i]) * static_cast<double>(data[i]);
    }
  }
  return std::sqrt(acc);
}

void AdamW::step(double lr_override) {
  obs::Span span("lm.adamw.step");
  obs::Registry::global().counter("lm.adamw.steps").add();
  const double lr = lr_override >= 0.0 ? lr_override : config_.lr;
  ++t_;
  double clip_scale = 1.0;
  if (config_.clip_norm > 0.0) {
    const double norm = gradient_norm();
    if (norm > config_.clip_norm) clip_scale = config_.clip_norm / norm;
  }
  const AdamWStepParams params{
      .clip_scale = clip_scale,
      .beta1 = config_.beta1,
      .beta2 = config_.beta2,
      .one_minus_beta1 = 1.0 - config_.beta1,
      .one_minus_beta2 = 1.0 - config_.beta2,
      .bias_correction1 =
          1.0 - std::pow(config_.beta1, static_cast<double>(t_)),
      .bias_correction2 =
          1.0 - std::pow(config_.beta2, static_cast<double>(t_)),
      .eps = config_.eps,
      .weight_decay = config_.weight_decay,
      .lr = lr,
  };
  // The per-element update runs in the dispatched per-arch copy, lanes
  // across elements (lm/f32_kernels.hpp).
  const F32Kernels& kernels = f32_kernels();
  for (std::size_t p = 0; p < params_.size(); ++p) {
    kernels.adamw_update(params_[p]->data(), grads_[p]->data(),
                         m_[p].data(), v_[p].data(), params_[p]->size(),
                         params);
  }
}

double cosine_lr(double base_lr, std::size_t step, std::size_t warmup,
                 std::size_t total_steps, double min_ratio) {
  LMPEEL_CHECK(total_steps > 0);
  if (warmup > 0 && step < warmup) {
    return base_lr * static_cast<double>(step + 1) /
           static_cast<double>(warmup);
  }
  const double progress =
      std::min(1.0, static_cast<double>(step - warmup) /
                        std::max<double>(1.0, static_cast<double>(
                                                  total_steps - warmup)));
  const double cosine = 0.5 * (1.0 + std::cos(std::numbers::pi * progress));
  return base_lr * (min_ratio + (1.0 - min_ratio) * cosine);
}

}  // namespace lmpeel::lm
