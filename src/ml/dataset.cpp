#include "ml/dataset.hpp"

#include "common/stats.hpp"

namespace micco::ml {

void Dataset::add(std::span<const double> features, double target) {
  MICCO_EXPECTS(features.size() == n_features_);
  features_.insert(features_.end(), features.begin(), features.end());
  targets_.push_back(target);
}

Dataset Dataset::subset(std::span<const std::size_t> indices) const {
  Dataset out(n_features_);
  for (const std::size_t i : indices) out.add(row(i), target(i));
  return out;
}

double r2_score(std::span<const double> truth,
                std::span<const double> predicted) {
  MICCO_EXPECTS(truth.size() == predicted.size());
  MICCO_EXPECTS(!truth.empty());
  const double mean = stats::mean(truth);
  double ss_res = 0.0;
  double ss_tot = 0.0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    ss_res += (truth[i] - predicted[i]) * (truth[i] - predicted[i]);
    ss_tot += (truth[i] - mean) * (truth[i] - mean);
  }
  if (ss_tot == 0.0) return ss_res == 0.0 ? 1.0 : 0.0;
  return 1.0 - ss_res / ss_tot;
}

double mse(std::span<const double> truth, std::span<const double> predicted) {
  MICCO_EXPECTS(truth.size() == predicted.size());
  MICCO_EXPECTS(!truth.empty());
  double acc = 0.0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    acc += (truth[i] - predicted[i]) * (truth[i] - predicted[i]);
  }
  return acc / static_cast<double>(truth.size());
}

}  // namespace micco::ml
