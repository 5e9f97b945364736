// Gradient-boosted regression trees: sequential shallow trees fit to the
// residuals of the running prediction, shrunk by a learning rate. Table IV
// comparator (R^2 = 0.91 with 150 stages, learning rate 0.1).
#pragma once

#include <cstdint>
#include <vector>

#include "ml/decision_tree.hpp"

namespace micco::ml {

struct BoostingConfig {
  int n_stages = 150;         ///< the paper's "number of boosting stages"
  double learning_rate = 0.1; ///< the paper's setting
  TreeConfig tree{.max_depth = 3,
                  .min_samples_split = 2,
                  .min_samples_leaf = 1,
                  .max_features = 0,
                  .seed = 1};
  std::uint64_t seed = 13;
};

class GradientBoosting final : public Regressor {
 public:
  explicit GradientBoosting(BoostingConfig config = {});

  std::string name() const override { return "GradientBoosting"; }
  void fit(const Dataset& data) override;
  double predict(std::span<const double> features) const override;

  std::size_t stage_count() const { return stages_.size(); }

 private:
  BoostingConfig config_;
  double base_prediction_ = 0.0;
  std::vector<RegressionTree> stages_;
};

}  // namespace micco::ml
