// Regression tree with exact histogram split finding.
//
// This is the weak learner inside the gradient-boosting baseline
// (DESIGN.md S5).  Splits minimise the regularised squared-error objective
// used by XGBoost: for a node with gradient sum G and hessian sum H (here
// hessians are 1 per sample, i.e. plain squared error), the gain of a split
// is  1/2 * [GL^2/(HL+λ) + GR^2/(HR+λ) - G^2/(H+λ)].
// Features are binned once per boosting fit with one bin per distinct value
// (BinnedMatrix).  A node accumulates (G, H, count) per bin over its rows and
// scans the non-empty bins in value order: XGBoost's `hist` method without
// the quantile sketch.  Every boundary between two distinct values is a bin
// boundary, so the search is exact (the same splits as enumerating the
// node's sorted values) at O(rows + bins) per feature per node.  The syr2k
// features take at most 11 distinct values.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace lmpeel::gbt {

/// A row-major feature matrix recoded as ranks: each value becomes its index
/// into its feature's sorted distinct values.  Every value must be finite,
/// and a feature may take at most 65536 distinct values (the code range).
class BinnedMatrix {
 public:
  /// Bins row-major `x` (rows x cols).
  BinnedMatrix(std::span<const double> x, std::size_t cols);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }

  /// Rank of x[row][col] among the distinct values of feature `col`.
  std::uint16_t code(std::size_t row, std::size_t col) const noexcept {
    return codes_[row * cols_ + col];
  }

  /// Sorted distinct values of feature `col`: values(col)[code(r, col)] is
  /// x[r][col].
  std::span<const double> values(std::size_t col) const noexcept {
    return {values_.data() + offsets_[col],
            offsets_[col + 1] - offsets_[col]};
  }

  /// Position of feature `col`'s first bin when all features' bins are laid
  /// end to end; bin_offset(cols()) is the total bin count.
  std::size_t bin_offset(std::size_t col) const noexcept {
    return offsets_[col];
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::uint16_t> codes_;  ///< row-major, rows x cols
  std::vector<double> values_;        ///< every feature's distinct values
  std::vector<std::size_t> offsets_;  ///< cols + 1 offsets into values_
};

struct TreeParams {
  int max_depth = 6;
  std::size_t min_samples_leaf = 1;
  double min_child_weight = 1.0;  ///< minimum hessian sum per child
  double lambda = 1.0;            ///< L2 leaf regularisation
  double colsample = 1.0;         ///< fraction of features tried per node
};

/// Flattened binary tree; nodes are stored in a vector, children by index.
class RegressionTree {
 public:
  /// Fits to gradients/hessians over the given row subset.
  /// For plain squared-error boosting pass hessians of all ones and
  /// gradients = (prediction - target).  Leaf values are the regularised
  /// Newton step -G/(H+λ).
  void fit(const BinnedMatrix& data, std::span<const double> gradients,
           std::span<const double> hessians,
           std::span<const std::size_t> row_indices, const TreeParams& params,
           util::Rng& rng);

  double predict_row(const double* row) const;

  /// Total gain contributed by splits on each feature (length = cols).
  const std::vector<double>& feature_gain() const noexcept {
    return feature_gain_;
  }

  std::size_t node_count() const noexcept { return nodes_.size(); }
  bool empty() const noexcept { return nodes_.empty(); }

 private:
  struct Node {
    // Leaves have feature == -1 and `value` set.
    int feature = -1;
    double threshold = 0.0;  ///< go left when x[feature] <= threshold
    double value = 0.0;
    std::int32_t left = -1;
    std::int32_t right = -1;
  };

  /// State shared by one fit's recursion, scratch buffers included.
  struct Builder;

  std::int32_t build(Builder& b, std::size_t begin, std::size_t end,
                     int depth);

  std::vector<Node> nodes_;
  std::vector<double> feature_gain_;
};

}  // namespace lmpeel::gbt
