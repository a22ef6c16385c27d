#include "gbt/booster.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "obs/span.hpp"
#include "util/check.hpp"

namespace lmpeel::gbt {

std::string BoosterParams::to_string() const {
  std::ostringstream os;
  os << "n_estimators=" << n_estimators << " lr=" << learning_rate
     << " max_depth=" << max_depth << " min_leaf=" << min_samples_leaf
     << " lambda=" << lambda << " subsample=" << subsample
     << " colsample=" << colsample;
  return os.str();
}

void GradientBoostedTrees::fit(std::span<const double> x, std::size_t cols,
                               std::span<const double> y,
                               const BoosterParams& params,
                               std::uint64_t seed) {
  obs::Span span("gbt.fit");
  LMPEEL_CHECK(cols > 0);
  LMPEEL_CHECK(x.size() % cols == 0);
  const std::size_t rows = x.size() / cols;
  LMPEEL_CHECK(rows == y.size());
  LMPEEL_CHECK(rows > 0);
  LMPEEL_CHECK(params.n_estimators >= 0);
  LMPEEL_CHECK(params.learning_rate > 0.0);
  // Binned before any state changes, so rejected features leave the model
  // as it was.
  const BinnedMatrix binned(x, cols);

  trees_.clear();
  train_mse_.clear();
  cols_ = cols;
  learning_rate_ = params.learning_rate;

  // Base prediction: target mean (the optimal constant for squared error).
  base_prediction_ =
      std::accumulate(y.begin(), y.end(), 0.0) / static_cast<double>(rows);
  base_set_ = true;

  std::vector<double> prediction(rows, base_prediction_);
  std::vector<double> gradients(rows);
  const std::vector<double> hessians(rows, 1.0);

  TreeParams tree_params;
  tree_params.max_depth = params.max_depth;
  tree_params.min_samples_leaf = params.min_samples_leaf;
  tree_params.min_child_weight = params.min_child_weight;
  tree_params.lambda = params.lambda;
  tree_params.colsample = params.colsample;

  util::Rng rng(seed);
  std::vector<std::size_t> all_rows(rows);
  std::iota(all_rows.begin(), all_rows.end(), 0);

  for (int round = 0; round < params.n_estimators; ++round) {
    obs::Span round_span("gbt.boost_round");
    obs::Registry::global().counter("gbt.rounds").add();
    for (std::size_t i = 0; i < rows; ++i) {
      gradients[i] = prediction[i] - y[i];  // d/dp of 1/2 (p - y)^2
    }

    std::vector<std::size_t> tree_rows;
    if (params.subsample >= 1.0) {
      tree_rows = all_rows;
    } else {
      tree_rows.reserve(static_cast<std::size_t>(rows * params.subsample) + 1);
      for (std::size_t i = 0; i < rows; ++i) {
        if (rng.bernoulli(params.subsample)) tree_rows.push_back(i);
      }
      if (tree_rows.empty()) tree_rows.push_back(
          static_cast<std::size_t>(rng.uniform_int(0, rows - 1)));
    }

    RegressionTree tree;
    tree.fit(binned, gradients, hessians, tree_rows, tree_params, rng);

    double mse = 0.0;
    for (std::size_t i = 0; i < rows; ++i) {
      prediction[i] +=
          learning_rate_ * tree.predict_row(x.data() + i * cols);
      const double err = prediction[i] - y[i];
      mse += err * err;
    }
    train_mse_.push_back(mse / static_cast<double>(rows));
    trees_.push_back(std::move(tree));
  }
}

double GradientBoostedTrees::predict_row(std::span<const double> row) const {
  LMPEEL_CHECK_MSG(base_set_, "predict on an unfitted booster");
  LMPEEL_CHECK(row.size() == cols_);
  double out = base_prediction_;
  for (const auto& tree : trees_) {
    out += learning_rate_ * tree.predict_row(row.data());
  }
  return out;
}

std::vector<double> GradientBoostedTrees::predict(
    std::span<const double> x) const {
  LMPEEL_CHECK(cols_ > 0 && x.size() % cols_ == 0);
  const std::size_t rows = x.size() / cols_;
  std::vector<double> out(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    out[i] = predict_row(x.subspan(i * cols_, cols_));
  }
  return out;
}

std::vector<double> GradientBoostedTrees::feature_importance() const {
  std::vector<double> importance(cols_, 0.0);
  for (const auto& tree : trees_) {
    const auto& gain = tree.feature_gain();
    for (std::size_t f = 0; f < cols_; ++f) importance[f] += gain[f];
  }
  return importance;
}

}  // namespace lmpeel::gbt
