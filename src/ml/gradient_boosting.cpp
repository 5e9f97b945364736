#include "ml/gradient_boosting.hpp"

#include "common/stats.hpp"

namespace micco::ml {

GradientBoosting::GradientBoosting(BoostingConfig config) : config_(config) {
  MICCO_EXPECTS(config.n_stages >= 1);
  MICCO_EXPECTS(config.learning_rate > 0.0 && config.learning_rate <= 1.0);
}

void GradientBoosting::fit(const Dataset& data) {
  MICCO_EXPECTS(!data.empty());
  stages_.clear();
  stages_.reserve(static_cast<std::size_t>(config_.n_stages));

  base_prediction_ = stats::mean(data.targets());

  // Running predictions and residuals (squared loss: residual = y - f(x)).
  std::vector<double> prediction(data.size(), base_prediction_);
  Pcg32 rng(config_.seed, /*stream=*/0xb0057ULL);

  TreeConfig tree_cfg = config_.tree;
  for (int stage = 0; stage < config_.n_stages; ++stage) {
    Dataset residuals(data.n_features());
    for (std::size_t i = 0; i < data.size(); ++i) {
      residuals.add(data.row(i), data.target(i) - prediction[i]);
    }

    tree_cfg.seed = static_cast<std::uint64_t>(rng.uniform_int(0, (1LL << 62)));
    RegressionTree tree(tree_cfg);
    tree.fit(residuals);

    for (std::size_t i = 0; i < data.size(); ++i) {
      prediction[i] += config_.learning_rate * tree.predict(data.row(i));
    }
    stages_.push_back(std::move(tree));
  }
}

double GradientBoosting::predict(std::span<const double> features) const {
  MICCO_EXPECTS_MSG(!stages_.empty(), "predict before fit");
  double acc = base_prediction_;
  for (const RegressionTree& tree : stages_) {
    acc += config_.learning_rate * tree.predict(features);
  }
  return acc;
}

}  // namespace micco::ml
