#include "gbt/tree.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.hpp"

namespace lmpeel::gbt {

namespace {

constexpr std::size_t kMaxBins =
    std::size_t{std::numeric_limits<std::uint16_t>::max()} + 1;

struct SplitChoice {
  double gain = 0.0;
  int feature = -1;
  std::uint16_t bin = 0;  ///< last bin that goes left
  double threshold = 0.0;
};

/// Per-bin sums over one node's rows.
struct Bin {
  double grad = 0.0;
  double hess = 0.0;
  std::size_t count = 0;
};

double leaf_value(double grad_sum, double hess_sum, double lambda) {
  return -grad_sum / (hess_sum + lambda);
}

}  // namespace

BinnedMatrix::BinnedMatrix(std::span<const double> x, std::size_t cols)
    : cols_(cols) {
  LMPEEL_CHECK(cols > 0 && x.size() % cols == 0);
  rows_ = x.size() / cols;
  LMPEEL_CHECK(rows_ > 0);
  codes_.resize(x.size());
  offsets_.assign(1, 0);
  std::vector<double> distinct;
  for (std::size_t f = 0; f < cols; ++f) {
    distinct.clear();
    for (std::size_t r = 0; r < rows_; ++r) {
      const double v = x[r * cols + f];
      LMPEEL_CHECK_MSG(std::isfinite(v), "gbt features must be finite");
      distinct.push_back(v);
    }
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    LMPEEL_CHECK_MSG(distinct.size() <= kMaxBins,
                     "a gbt feature has more than 65536 distinct values");
    for (std::size_t r = 0; r < rows_; ++r) {
      codes_[r * cols + f] = static_cast<std::uint16_t>(
          std::lower_bound(distinct.begin(), distinct.end(), x[r * cols + f]) -
          distinct.begin());
    }
    values_.insert(values_.end(), distinct.begin(), distinct.end());
    offsets_.push_back(values_.size());
  }
}

struct RegressionTree::Builder {
  const BinnedMatrix& data;
  std::span<const double> gradients;
  std::span<const double> hessians;
  const TreeParams& params;
  util::Rng& rng;
  std::vector<std::size_t> rows;  ///< each node owns a contiguous slice
  std::vector<int> features;      ///< the current node's candidates
  std::vector<Bin> hist;          ///< one slot per bin of every feature
};

void RegressionTree::fit(const BinnedMatrix& data,
                         std::span<const double> gradients,
                         std::span<const double> hessians,
                         std::span<const std::size_t> row_indices,
                         const TreeParams& params, util::Rng& rng) {
  LMPEEL_CHECK(gradients.size() == data.rows());
  LMPEEL_CHECK(hessians.size() == data.rows());
  LMPEEL_CHECK(!row_indices.empty());
  LMPEEL_CHECK(params.max_depth >= 0);

  nodes_.clear();
  feature_gain_.assign(data.cols(), 0.0);
  Builder b{data,
            gradients,
            hessians,
            params,
            rng,
            {row_indices.begin(), row_indices.end()},
            {},
            std::vector<Bin>(data.bin_offset(data.cols()))};
  b.features.reserve(data.cols());
  build(b, 0, b.rows.size(), 0);
}

std::int32_t RegressionTree::build(Builder& b, std::size_t begin,
                                   std::size_t end, int depth) {
  const BinnedMatrix& data = b.data;
  const TreeParams& params = b.params;
  double grad_sum = 0.0, hess_sum = 0.0;
  for (std::size_t i = begin; i < end; ++i) {
    grad_sum += b.gradients[b.rows[i]];
    hess_sum += b.hessians[b.rows[i]];
  }

  const auto make_leaf = [&] {
    Node leaf;
    leaf.value = leaf_value(grad_sum, hess_sum, params.lambda);
    nodes_.push_back(leaf);
    return static_cast<std::int32_t>(nodes_.size() - 1);
  };

  const std::size_t count = end - begin;
  if (depth >= params.max_depth || count < 2 * params.min_samples_leaf) {
    return make_leaf();
  }

  // Column subsampling: choose which features this node may split on.
  std::vector<int>& features = b.features;
  features.clear();
  for (std::size_t f = 0; f < data.cols(); ++f) {
    if (params.colsample >= 1.0 || b.rng.bernoulli(params.colsample)) {
      features.push_back(static_cast<int>(f));
    }
  }
  if (features.empty()) {
    features.push_back(
        static_cast<int>(b.rng.uniform_int(0, data.cols() - 1)));
  }

  // Per-bin gradient/hessian/count sums over the node's rows.
  for (const int f : features) {
    std::fill_n(b.hist.begin() + data.bin_offset(f), data.values(f).size(),
                Bin{});
  }
  for (std::size_t i = begin; i < end; ++i) {
    const std::size_t r = b.rows[i];
    const double g = b.gradients[r];
    const double h = b.hessians[r];
    for (const int f : features) {
      Bin& bin = b.hist[data.bin_offset(f) + data.code(r, f)];
      bin.grad += g;
      bin.hess += h;
      ++bin.count;
    }
  }

  // Each boundary between two non-empty bins is a candidate split; with one
  // bin per distinct value these are all the places the rows can be split.
  const double parent_score = grad_sum * grad_sum / (hess_sum + params.lambda);
  SplitChoice best;
  for (const int f : features) {
    const std::span<const double> values = data.values(f);
    const Bin* bins = b.hist.data() + data.bin_offset(f);
    double gl = 0.0, hl = 0.0;
    std::size_t left_count = 0;
    std::size_t prev = 0;  // last non-empty bin, valid once left_count > 0
    for (std::size_t v = 0; v < values.size(); ++v) {
      if (bins[v].count == 0) continue;
      if (left_count > 0 && left_count >= params.min_samples_leaf &&
          count - left_count >= params.min_samples_leaf) {
        const double gr = grad_sum - gl;
        const double hr = hess_sum - hl;
        if (hl >= params.min_child_weight && hr >= params.min_child_weight) {
          const double gain = 0.5 * (gl * gl / (hl + params.lambda) +
                                     gr * gr / (hr + params.lambda) -
                                     parent_score);
          if (gain > best.gain) {
            best.gain = gain;
            best.feature = f;
            best.bin = static_cast<std::uint16_t>(prev);
            best.threshold = 0.5 * (values[prev] + values[v]);
          }
        }
      }
      gl += bins[v].grad;
      hl += bins[v].hess;
      left_count += bins[v].count;
      prev = v;
    }
  }

  if (best.feature < 0 || best.gain <= 1e-12) {
    return make_leaf();
  }

  // Partition the row slice in place: bins up to best.bin go left.
  const auto mid_it = std::partition(
      b.rows.begin() + begin, b.rows.begin() + end, [&](std::size_t r) {
        return data.code(r, best.feature) <= best.bin;
      });
  const std::size_t mid = static_cast<std::size_t>(mid_it - b.rows.begin());
  LMPEEL_CHECK(mid > begin && mid < end);  // both sides non-empty by search

  feature_gain_[best.feature] += best.gain;

  const auto self = static_cast<std::int32_t>(nodes_.size());
  nodes_.emplace_back();
  nodes_[self].feature = best.feature;
  nodes_[self].threshold = best.threshold;
  const std::int32_t left = build(b, begin, mid, depth + 1);
  const std::int32_t right = build(b, mid, end, depth + 1);
  nodes_[self].left = left;
  nodes_[self].right = right;
  return self;
}

double RegressionTree::predict_row(const double* row) const {
  LMPEEL_CHECK(!nodes_.empty());
  std::int32_t node = 0;
  for (;;) {
    const Node& n = nodes_[node];
    if (n.feature < 0) return n.value;
    node = row[n.feature] <= n.threshold ? n.left : n.right;
  }
}

}  // namespace lmpeel::gbt
