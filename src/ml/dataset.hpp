// Flat row-major dataset container and fit scores for the reuse-bound
// regression pipeline (Section IV-C: 300 offline samples, 20 % held out
// for the Table IV comparison).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/assert.hpp"

namespace micco::ml {

class Dataset {
 public:
  explicit Dataset(std::size_t n_features) : n_features_(n_features) {
    MICCO_EXPECTS(n_features >= 1);
  }

  std::size_t n_features() const { return n_features_; }
  std::size_t size() const { return targets_.size(); }
  bool empty() const { return targets_.empty(); }

  /// Appends one sample; `features.size()` must equal n_features().
  void add(std::span<const double> features, double target);

  std::span<const double> row(std::size_t i) const {
    MICCO_EXPECTS(i < size());
    return {features_.data() + i * n_features_, n_features_};
  }

  double target(std::size_t i) const {
    MICCO_EXPECTS(i < size());
    return targets_[i];
  }

  std::span<const double> targets() const { return targets_; }

  /// Subset by row indices (bootstrap samples, CV folds).
  Dataset subset(std::span<const std::size_t> indices) const;

 private:
  std::size_t n_features_;
  std::vector<double> features_;  // row-major, size() * n_features_
  std::vector<double> targets_;
};

/// Coefficient of determination of predictions against ground truth.
/// 1 is perfect; 0 matches always predicting the mean; negative is worse.
double r2_score(std::span<const double> truth,
                std::span<const double> predicted);

/// Mean squared error.
double mse(std::span<const double> truth, std::span<const double> predicted);

}  // namespace micco::ml
