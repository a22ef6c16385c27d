#include "gbt/booster.hpp"
#include "gbt/random_search.hpp"
#include "gbt/tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>

#include "eval/metrics.hpp"
#include "perf/dataset.hpp"
#include "util/rng.hpp"

namespace lmpeel::gbt {
namespace {

/// y = 3*x0 + noiseless step on x1.
void make_synthetic(std::size_t n, std::vector<double>& x,
                    std::vector<double>& y) {
  x.clear();
  y.clear();
  util::Rng rng(7);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.uniform(0.0, 1.0);
    const double b = rng.uniform(0.0, 1.0);
    x.push_back(a);
    x.push_back(b);
    y.push_back(3.0 * a + (b > 0.5 ? 2.0 : 0.0));
  }
}

TEST(RegressionTree, FitsConstantTargetExactly) {
  std::vector<double> x{0.0, 1.0, 2.0, 3.0};
  std::vector<double> g(4), h(4, 1.0);
  for (std::size_t i = 0; i < 4; ++i) g[i] = 0.0 - 5.0;  // pred 0, target 5
  std::vector<std::size_t> rows{0, 1, 2, 3};
  RegressionTree tree;
  util::Rng rng(1);
  tree.fit(BinnedMatrix(x, 1), g, h, rows, TreeParams{.lambda = 0.0}, rng);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(tree.predict_row(&x[i]), 5.0, 1e-9);
  }
}

TEST(RegressionTree, SplitsAStepFunction) {
  // Targets step at x=0.5; one split should capture it exactly.
  std::vector<double> x, g;
  const std::vector<double> targets{1.0, 1.0, 1.0, 9.0, 9.0, 9.0};
  const std::vector<double> xs{0.1, 0.2, 0.3, 0.7, 0.8, 0.9};
  for (std::size_t i = 0; i < 6; ++i) {
    x.push_back(xs[i]);
    g.push_back(0.0 - targets[i]);
  }
  const std::vector<double> h(6, 1.0);
  std::vector<std::size_t> rows(6);
  std::iota(rows.begin(), rows.end(), 0);
  RegressionTree tree;
  util::Rng rng(1);
  tree.fit(BinnedMatrix(x, 1), g, h, rows,
           TreeParams{.max_depth = 1, .lambda = 0.0}, rng);
  EXPECT_NEAR(tree.predict_row(&xs[0]), 1.0, 1e-9);
  EXPECT_NEAR(tree.predict_row(&xs[5]), 9.0, 1e-9);
  EXPECT_GT(tree.feature_gain()[0], 0.0);
}

TEST(RegressionTree, MinSamplesLeafRespected) {
  std::vector<double> x{0.0, 1.0, 2.0, 3.0};
  std::vector<double> g{-1.0, -2.0, -3.0, -4.0};
  const std::vector<double> h(4, 1.0);
  std::vector<std::size_t> rows{0, 1, 2, 3};
  RegressionTree tree;
  util::Rng rng(1);
  TreeParams params;
  params.min_samples_leaf = 4;  // cannot split at all
  tree.fit(BinnedMatrix(x, 1), g, h, rows, params, rng);
  EXPECT_EQ(tree.node_count(), 1u);
}

/// The sort-based exact enumeration that the histogram split finder
/// replaced, kept as the naive reference: every node re-sorts its rows by
/// each candidate feature and tries every boundary between distinct values.
/// It draws column subsamples in the same order as RegressionTree.
class SortedReferenceTree {
 public:
  struct Node {
    int feature = -1;
    double threshold = 0.0;
    double value = 0.0;
    double gain = 0.0;
    std::int32_t left = -1;
    std::int32_t right = -1;
  };

  SortedReferenceTree(const std::vector<double>& x, std::size_t cols,
                      const std::vector<double>& gradients,
                      const std::vector<double>& hessians,
                      std::vector<std::size_t> rows, const TreeParams& params,
                      util::Rng& rng)
      : x_(x), cols_(cols), gradients_(gradients), hessians_(hessians),
        params_(params), rng_(rng), rows_(std::move(rows)) {
    build(0, rows_.size(), 0);
  }

  const Node& root() const { return nodes_.front(); }

  double predict_row(const double* row) const {
    std::int32_t node = 0;
    for (;;) {
      const Node& n = nodes_[node];
      if (n.feature < 0) return n.value;
      node = row[n.feature] <= n.threshold ? n.left : n.right;
    }
  }

 private:
  double at(std::size_t row, std::size_t col) const {
    return x_[row * cols_ + col];
  }

  std::int32_t build(std::size_t begin, std::size_t end, int depth) {
    double grad_sum = 0.0, hess_sum = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      grad_sum += gradients_[rows_[i]];
      hess_sum += hessians_[rows_[i]];
    }
    const auto make_leaf = [&] {
      Node leaf;
      leaf.value = -grad_sum / (hess_sum + params_.lambda);
      nodes_.push_back(leaf);
      return static_cast<std::int32_t>(nodes_.size() - 1);
    };
    const std::size_t count = end - begin;
    if (depth >= params_.max_depth || count < 2 * params_.min_samples_leaf) {
      return make_leaf();
    }

    std::vector<int> candidate_features;
    for (std::size_t f = 0; f < cols_; ++f) {
      if (params_.colsample >= 1.0 || rng_.bernoulli(params_.colsample)) {
        candidate_features.push_back(static_cast<int>(f));
      }
    }
    if (candidate_features.empty()) {
      candidate_features.push_back(
          static_cast<int>(rng_.uniform_int(0, cols_ - 1)));
    }

    const double parent_score =
        grad_sum * grad_sum / (hess_sum + params_.lambda);
    double best_gain = 0.0, best_threshold = 0.0;
    int best_feature = -1;
    std::vector<std::size_t> sorted(rows_.begin() + begin,
                                    rows_.begin() + end);
    for (const int f : candidate_features) {
      std::sort(sorted.begin(), sorted.end(),
                [&](std::size_t a, std::size_t b) {
                  return at(a, f) < at(b, f);
                });
      double gl = 0.0, hl = 0.0;
      std::size_t left_count = 0;
      for (std::size_t i = 0; i + 1 < sorted.size(); ++i) {
        gl += gradients_[sorted[i]];
        hl += hessians_[sorted[i]];
        ++left_count;
        const double v = at(sorted[i], f);
        const double v_next = at(sorted[i + 1], f);
        if (v == v_next) continue;
        if (left_count < params_.min_samples_leaf ||
            sorted.size() - left_count < params_.min_samples_leaf) {
          continue;
        }
        const double gr = grad_sum - gl;
        const double hr = hess_sum - hl;
        if (hl < params_.min_child_weight || hr < params_.min_child_weight) {
          continue;
        }
        const double gain = 0.5 * (gl * gl / (hl + params_.lambda) +
                                   gr * gr / (hr + params_.lambda) -
                                   parent_score);
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = f;
          best_threshold = 0.5 * (v + v_next);
        }
      }
    }
    if (best_feature < 0 || best_gain <= 1e-12) return make_leaf();

    const auto mid_it = std::partition(
        rows_.begin() + begin, rows_.begin() + end, [&](std::size_t r) {
          return at(r, best_feature) <= best_threshold;
        });
    const auto mid = static_cast<std::size_t>(mid_it - rows_.begin());
    const auto self = static_cast<std::int32_t>(nodes_.size());
    nodes_.emplace_back();
    nodes_[self].feature = best_feature;
    nodes_[self].threshold = best_threshold;
    nodes_[self].gain = best_gain;
    const std::int32_t left = build(begin, mid, depth + 1);
    const std::int32_t right = build(mid, end, depth + 1);
    nodes_[self].left = left;
    nodes_[self].right = right;
    return self;
  }

  const std::vector<double>& x_;
  std::size_t cols_;
  const std::vector<double>& gradients_;
  const std::vector<double>& hessians_;
  TreeParams params_;
  util::Rng& rng_;
  std::vector<std::size_t> rows_;
  std::vector<Node> nodes_;
};

/// A seeded split-search problem over syr2k-like columns: booleans,
/// 11-valued log2 tile sizes and continuous values.
struct SplitProblem {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<double> x, gradients, hessians;
  TreeParams params;
};

SplitProblem make_split_problem(util::Rng& rng) {
  SplitProblem p;
  p.rows = static_cast<std::size_t>(rng.uniform_int(16, 300));
  p.cols = static_cast<std::size_t>(rng.uniform_int(1, 6));
  std::vector<std::int64_t> kind(p.cols);
  std::vector<double> weight(p.cols);
  for (std::size_t f = 0; f < p.cols; ++f) {
    kind[f] = rng.uniform_int(0, 2);
    weight[f] = rng.normal();
  }
  const bool unit_hessians = rng.bernoulli(0.5);
  for (std::size_t r = 0; r < p.rows; ++r) {
    double signal = 0.0;
    for (std::size_t f = 0; f < p.cols; ++f) {
      double v = 0.0, scaled = 0.0;
      switch (kind[f]) {
        case 0:
          v = scaled = rng.bernoulli(0.5) ? 1.0 : 0.0;
          break;
        case 1:
          v = std::ldexp(1.0, static_cast<int>(rng.uniform_int(0, 10)));
          scaled = std::log2(v) / 10.0;
          break;
        default:
          v = scaled = rng.uniform(-1.0, 1.0);
      }
      p.x.push_back(v);
      signal += weight[f] * scaled;
    }
    p.gradients.push_back(rng.normal(-signal, 0.3));
    p.hessians.push_back(unit_hessians ? 1.0 : rng.uniform(0.5, 2.0));
  }
  p.params.min_samples_leaf = static_cast<std::size_t>(rng.uniform_int(1, 16));
  p.params.min_child_weight = rng.uniform(0.0, 8.0);
  p.params.lambda = std::exp(rng.uniform(std::log(1e-2), std::log(10.0)));
  p.params.colsample = rng.bernoulli(0.5) ? 1.0 : rng.uniform(0.5, 1.0);
  return p;
}

void expect_close(double actual, double expected) {
  EXPECT_LE(std::abs(actual - expected),
            1e-9 * std::max(1.0, std::abs(expected)))
      << actual << " vs " << expected;
}

TEST(RegressionTree, HistogramSplitsMatchSortedReference) {
  util::Rng problems(2026);
  int root_splits = 0;
  for (int i = 0; i < 200; ++i) {
    SCOPED_TRACE("problem " + std::to_string(i));
    const SplitProblem p = make_split_problem(problems);
    const BinnedMatrix binned(p.x, p.cols);
    std::vector<std::size_t> rows(p.rows);
    std::iota(rows.begin(), rows.end(), 0);

    // Root split: same feature, same threshold, gain within 1e-9 relative.
    TreeParams stump = p.params;
    stump.max_depth = 1;
    const std::uint64_t stump_seed = problems.next();
    util::Rng ref_rng(stump_seed), rng(stump_seed);
    const SortedReferenceTree ref(p.x, p.cols, p.gradients, p.hessians, rows,
                                  stump, ref_rng);
    RegressionTree tree;
    tree.fit(binned, p.gradients, p.hessians, rows, stump, rng);
    const SortedReferenceTree::Node& root = ref.root();
    if (root.feature < 0) {
      EXPECT_EQ(tree.node_count(), 1u);
    } else {
      ++root_splits;
      ASSERT_EQ(tree.node_count(), 3u);
      const auto& gain = tree.feature_gain();
      EXPECT_EQ(std::count_if(gain.begin(), gain.end(),
                              [](double g) { return g > 0.0; }),
                1);
      EXPECT_LE(std::abs(gain[root.feature] - root.gain), 1e-9 * root.gain);
      // The threshold is the reference's to the bit: it goes left and the
      // next double up goes right.
      std::vector<double> probe(p.cols, 0.0);
      for (const double at :
           {root.threshold, std::nextafter(root.threshold, 1e300)}) {
        probe[root.feature] = at;
        expect_close(tree.predict_row(probe.data()),
                     ref.predict_row(probe.data()));
      }
    }

    // Depth-3 trees predict every row alike.
    TreeParams deep = p.params;
    deep.max_depth = 3;
    const std::uint64_t deep_seed = problems.next();
    util::Rng deep_ref_rng(deep_seed), deep_rng(deep_seed);
    const SortedReferenceTree deep_ref(p.x, p.cols, p.gradients, p.hessians,
                                       rows, deep, deep_ref_rng);
    RegressionTree deep_tree;
    deep_tree.fit(binned, p.gradients, p.hessians, rows, deep, deep_rng);
    for (std::size_t r = 0; r < p.rows; ++r) {
      expect_close(deep_tree.predict_row(&p.x[r * p.cols]),
                   deep_ref.predict_row(&p.x[r * p.cols]));
    }
  }
  // Most problems must actually split, or the comparison proves little.
  EXPECT_GT(root_splits, 150);
}

TEST(BinnedMatrix, CodesAreRanksIntoSortedDistinctValues) {
  const std::vector<double> x{4.0, 0.5, 1.0, 0.5, 4.0, -2.0, 16.0, 0.5};
  const BinnedMatrix binned(x, 2);
  EXPECT_EQ(binned.rows(), 4u);
  EXPECT_EQ(binned.cols(), 2u);
  EXPECT_EQ(std::vector<double>(binned.values(0).begin(),
                                binned.values(0).end()),
            (std::vector<double>{1.0, 4.0, 16.0}));
  EXPECT_EQ(std::vector<double>(binned.values(1).begin(),
                                binned.values(1).end()),
            (std::vector<double>{-2.0, 0.5}));
  const std::vector<int> codes0{1, 0, 1, 2}, codes1{1, 1, 0, 1};
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(binned.code(r, 0), codes0[r]);
    EXPECT_EQ(binned.code(r, 1), codes1[r]);
  }
  EXPECT_EQ(binned.bin_offset(0), 0u);
  EXPECT_EQ(binned.bin_offset(1), 3u);
  EXPECT_EQ(binned.bin_offset(2), 5u);
}

TEST(BinnedMatrix, RejectsNonFiniteFeatures) {
  const std::vector<double> y{1.0, 2.0};
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    const std::vector<double> x{0.0, 1.0, bad, 2.0};
    EXPECT_THROW(BinnedMatrix(x, 2), std::runtime_error);
    // The booster bins before its first tree, so a NaN never reaches a
    // split search, and the rejected fit leaves the model unfitted.
    GradientBoostedTrees model;
    EXPECT_THROW(model.fit(x, 2, y, BoosterParams{}, 1), std::runtime_error);
    EXPECT_FALSE(model.fitted());
  }
}

TEST(BinnedMatrix, RejectsMoreDistinctValuesThanBinCodes) {
  std::vector<double> x(65537);
  std::iota(x.begin(), x.end(), 0.0);
  EXPECT_THROW(BinnedMatrix(x, 1), std::runtime_error);
  x.pop_back();  // 65536 distinct values is the most a uint16_t code holds
  const BinnedMatrix binned(x, 1);
  EXPECT_EQ(binned.values(0).size(), 65536u);
  EXPECT_EQ(binned.code(65535, 0), 65535);
}

TEST(RegressionTree, ConstantColumnNeverSplits) {
  // Column 0 is constant; column 1 carries a step the tree must find.
  std::vector<double> x, g;
  for (int i = 0; i < 8; ++i) {
    x.push_back(7.0);
    x.push_back(i);
    g.push_back(i < 4 ? -1.0 : -9.0);
  }
  const std::vector<double> h(8, 1.0);
  std::vector<std::size_t> rows(8);
  std::iota(rows.begin(), rows.end(), 0);
  util::Rng rng(1);
  RegressionTree tree;
  tree.fit(BinnedMatrix(x, 2), g, h, rows, TreeParams{.max_depth = 4}, rng);
  EXPECT_EQ(tree.feature_gain()[0], 0.0);
  EXPECT_GT(tree.feature_gain()[1], 0.0);

  // With the constant column alone there is nothing to split on.
  std::vector<double> constant(8, 7.0);
  RegressionTree stump;
  stump.fit(BinnedMatrix(constant, 1), g, h, rows, TreeParams{.max_depth = 4},
            rng);
  EXPECT_EQ(stump.node_count(), 1u);
}

TEST(Booster, TrainingLossDecreasesMonotonically) {
  std::vector<double> x, y;
  make_synthetic(400, x, y);
  GradientBoostedTrees model;
  BoosterParams params;
  params.n_estimators = 40;
  params.learning_rate = 0.3;
  params.max_depth = 3;
  model.fit(x, 2, y, params, 1);
  const auto& curve = model.training_curve();
  ASSERT_EQ(curve.size(), 40u);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LE(curve[i], curve[i - 1] + 1e-12);
  }
}

TEST(Booster, LearnsTheSyntheticFunction) {
  std::vector<double> x, y;
  make_synthetic(800, x, y);
  GradientBoostedTrees model;
  BoosterParams params;
  params.n_estimators = 150;
  params.learning_rate = 0.2;
  params.max_depth = 4;
  model.fit(x, 2, y, params, 1);
  const auto pred = model.predict(x);
  EXPECT_GT(eval::r2_score(y, pred), 0.97);
}

TEST(Booster, ZeroTreesPredictsMean) {
  std::vector<double> x{0.0, 1.0};
  std::vector<double> y{2.0, 4.0};
  GradientBoostedTrees model;
  BoosterParams params;
  params.n_estimators = 0;
  model.fit(x, 1, y, params, 1);
  EXPECT_DOUBLE_EQ(model.predict_row(std::vector<double>{9.0}), 3.0);
}

TEST(Booster, PredictBeforeFitThrows) {
  GradientBoostedTrees model;
  EXPECT_THROW(model.predict_row(std::vector<double>{1.0}),
               std::runtime_error);
}

TEST(Booster, FeatureImportanceIdentifiesSignal) {
  // x0 drives the target; x1 is pure noise.
  std::vector<double> x, y;
  util::Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    const double a = rng.uniform(0.0, 1.0);
    x.push_back(a);
    x.push_back(rng.uniform(0.0, 1.0));
    y.push_back(a * 10.0);
  }
  GradientBoostedTrees model;
  BoosterParams params;
  params.n_estimators = 30;
  params.max_depth = 3;
  model.fit(x, 2, y, params, 1);
  const auto importance = model.feature_importance();
  EXPECT_GT(importance[0], 10.0 * importance[1]);
}

TEST(Booster, SubsamplingStillLearns) {
  std::vector<double> x, y;
  make_synthetic(600, x, y);
  GradientBoostedTrees model;
  BoosterParams params;
  params.n_estimators = 120;
  params.learning_rate = 0.2;
  params.max_depth = 4;
  params.subsample = 0.7;
  params.colsample = 0.8;
  model.fit(x, 2, y, params, 5);
  EXPECT_GT(eval::r2_score(y, model.predict(x)), 0.9);
}

TEST(RandomSearch, FindsBetterThanWorstCandidate) {
  std::vector<double> x, y;
  make_synthetic(300, x, y);
  RandomSearchOptions options;
  options.iterations = 12;
  options.seed = 5;
  const auto result = random_search(x, 2, y, options);
  EXPECT_EQ(result.evaluated, 12);
  EXPECT_TRUE(result.best_model.fitted());
  // The refitted best model must fit the training data decently.
  EXPECT_GT(eval::r2_score(y, result.best_model.predict(x)), 0.8);
  EXPECT_GT(result.best_params.n_estimators, 0);
}

TEST(RandomSearch, DeterministicForSeed) {
  std::vector<double> x, y;
  make_synthetic(200, x, y);
  RandomSearchOptions options;
  options.iterations = 6;
  options.seed = 9;
  const auto a = random_search(x, 2, y, options);
  const auto b = random_search(x, 2, y, options);
  EXPECT_EQ(a.best_params.to_string(), b.best_params.to_string());
  EXPECT_DOUBLE_EQ(a.best_validation_mse, b.best_validation_mse);
}

TEST(RandomSearch, TableIShapeOnSyr2k) {
  // Table I's conclusions, not its bits: on the measured syr2k datasets a
  // small random search predicts held-out runtimes better from the full
  // training budget than from 100 rows, and the full-budget model is a good
  // surrogate (XL the easier fit).
  const perf::Syr2kModel model;
  const std::size_t cols = perf::ConfigSpace::kNumFeatures;
  for (const auto& [size, floor] :
       {std::pair{perf::SizeClass::SM, 0.6}, std::pair{perf::SizeClass::XL, 0.9}}) {
    const std::string name = perf::size_name(size);
    const perf::Dataset data = perf::Dataset::generate(model, size, 42);
    const auto x = data.feature_matrix();
    const auto y = data.targets();
    util::Rng split_rng(7);
    const perf::Split split =
        perf::train_test_split(data.size(), 8519, split_rng);
    std::vector<double> r2;
    for (const std::size_t train_count : {std::size_t{100}, std::size_t{8519}}) {
      std::vector<double> tx, ty;
      for (std::size_t i = 0; i < train_count; ++i) {
        const std::size_t r = split.train[i];
        tx.insert(tx.end(), x.begin() + r * cols, x.begin() + (r + 1) * cols);
        ty.push_back(y[r]);
      }
      RandomSearchOptions options;
      options.iterations = 4;
      options.seed = 11;
      const auto search = random_search(tx, cols, ty, options);
      std::vector<double> truth, pred;
      for (const std::size_t r : split.test) {
        truth.push_back(y[r]);
        pred.push_back(search.best_model.predict_row(
            std::span<const double>(x).subspan(r * cols, cols)));
      }
      r2.push_back(eval::r2_score(truth, pred));
      RecordProperty(name + "_r2_n" + std::to_string(train_count),
                     std::to_string(r2.back()));
    }
    EXPECT_LT(r2[0], r2[1]) << name;
    EXPECT_GT(r2[1], floor) << name;
  }
}

TEST(SampleBoosterParams, StaysInDocumentedRanges) {
  util::Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    const BoosterParams p = sample_booster_params(rng);
    EXPECT_GE(p.n_estimators, 25);
    EXPECT_LE(p.n_estimators, 300);
    EXPECT_GE(p.learning_rate, 0.01);
    EXPECT_LE(p.learning_rate, 0.5);
    EXPECT_GE(p.max_depth, 2);
    EXPECT_LE(p.max_depth, 10);
    EXPECT_GE(p.min_samples_leaf, 1u);
    EXPECT_LE(p.min_samples_leaf, 16u);
    EXPECT_GE(p.subsample, 0.6);
    EXPECT_LE(p.colsample, 1.0);
  }
}

}  // namespace
}  // namespace lmpeel::gbt
