// Random Forest regressor: bagged CART trees with per-split feature
// subsampling. MICCO's production model (Table IV: R^2 = 0.95 with 150
// trees).
#pragma once

#include <cstdint>
#include <vector>

#include "ml/decision_tree.hpp"

namespace micco::ml {

struct ForestConfig {
  int n_trees = 150;  ///< the paper's setting
  TreeConfig tree;
  std::uint64_t seed = 11;
};

class RandomForest final : public Regressor {
 public:
  explicit RandomForest(ForestConfig config = {});

  std::string name() const override { return "RandomForest"; }
  void fit(const Dataset& data) override;
  double predict(std::span<const double> features) const override;

  std::size_t tree_count() const { return trees_.size(); }

  /// Individual fitted trees (serialization / inspection).
  const RegressionTree& tree_at(std::size_t i) const {
    MICCO_EXPECTS(i < trees_.size());
    return trees_[i];
  }

  /// Rebuilds a forest from deserialized trees.
  static RandomForest from_trees(std::vector<RegressionTree> trees,
                                 ForestConfig config = {});

 private:
  ForestConfig config_;
  std::vector<RegressionTree> trees_;
};

}  // namespace micco::ml
