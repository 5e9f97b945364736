#include "core/bounds_model.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "common/stopwatch.hpp"
#include "ml/gradient_boosting.hpp"
#include "ml/linear_regression.hpp"
#include "ml/random_forest.hpp"
#include "ml/serialize.hpp"

namespace micco {

std::array<ml::Dataset, 3> build_bound_datasets(
    std::span<const TrainingSample> samples) {
  std::array<ml::Dataset, 3> out{
      ml::Dataset(DataCharacteristics::kFeatureCount),
      ml::Dataset(DataCharacteristics::kFeatureCount),
      ml::Dataset(DataCharacteristics::kFeatureCount)};
  double features[DataCharacteristics::kFeatureCount];
  for (const TrainingSample& s : samples) {
    s.characteristics.to_features(features);
    for (std::size_t b = 0; b < 3; ++b) {
      out[b].add(std::span<const double>(features,
                                         DataCharacteristics::kFeatureCount),
                 static_cast<double>(s.best_bounds[b]));
    }
  }
  return out;
}

RegressionBoundsProvider::RegressionBoundsProvider(
    ml::MultiOutputRegressor model, std::int64_t max_bound)
    : model_(std::move(model)), max_bound_(max_bound) {
  MICCO_EXPECTS(max_bound >= 0);
}

ReuseBounds RegressionBoundsProvider::bounds_for(
    const DataCharacteristics& c) {
  double features[DataCharacteristics::kFeatureCount];
  c.to_features(features);
  const std::vector<double> raw = model_.predict(
      std::span<const double>(features, DataCharacteristics::kFeatureCount));
  ReuseBounds bounds;
  for (std::size_t b = 0; b < 3; ++b) {
    const auto rounded = static_cast<std::int64_t>(std::llround(raw[b]));
    bounds[b] = std::clamp<std::int64_t>(rounded, 0, max_bound_);
  }
  return bounds;
}

void save_bounds_model(const ml::MultiOutputRegressor& model,
                       std::ostream& out) {
  MICCO_EXPECTS(model.n_outputs() == 3);
  for (std::size_t b = 0; b < 3; ++b) ml::save_regressor(model.model(b), out);
}

std::unique_ptr<RegressionBoundsProvider> load_bounds_model(
    const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in.good()) {
    *error = "cannot open model " + path;
    return nullptr;
  }
  std::vector<std::unique_ptr<ml::Regressor>> models;
  std::string model_error;
  while (models.size() < 3) {
    models.push_back(ml::load_regressor(in, &model_error));
    if (!models.back()) {
      *error = "bad model file: " + model_error;
      return nullptr;
    }
  }
  return std::make_unique<RegressionBoundsProvider>(
      ml::MultiOutputRegressor::from_models(std::move(models)), 2);
}

TrainedBoundsModel train_bounds_model(std::span<const TrainingSample> samples,
                                      const ml::RegressorFactory& factory,
                                      const std::string& model_name,
                                      std::int64_t max_bound,
                                      std::uint64_t seed) {
  MICCO_EXPECTS(samples.size() >= 5);

  // One shared shuffled split across the three outputs (same rows in train
  // and test for every bound).
  Pcg32 rng(seed, /*stream=*/0x5e1ec7ULL);
  std::vector<std::size_t> order(samples.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.shuffle(order);
  const std::size_t n_test =
      std::max<std::size_t>(1, samples.size() / 5);  // the paper's 20 %

  std::vector<TrainingSample> train_samples;
  std::vector<TrainingSample> test_samples;
  train_samples.reserve(samples.size() - n_test);
  test_samples.reserve(n_test);
  for (std::size_t i = 0; i < order.size(); ++i) {
    (i < n_test ? test_samples : train_samples)
        .push_back(samples[order[i]]);
  }

  const std::array<ml::Dataset, 3> train_sets =
      build_bound_datasets(train_samples);
  const std::array<ml::Dataset, 3> test_sets =
      build_bound_datasets(test_samples);

  TrainedBoundsModel out;
  out.report.model_name = model_name;

  Stopwatch train_watch;
  ml::MultiOutputRegressor model(factory, 3);
  model.fit(train_sets);
  out.report.train_ms = train_watch.elapsed_ms();

  double r2_sum = 0.0;
  for (std::size_t b = 0; b < 3; ++b) {
    const std::vector<double> predicted =
        model.model(b).predict_all(test_sets[b]);
    out.report.per_bound_r2[b] =
        ml::r2_score(test_sets[b].targets(), predicted);
    r2_sum += out.report.per_bound_r2[b];
  }
  out.report.mean_r2 = r2_sum / 3.0;

  // Single-sample inference latency (Fig. 6 claims negligible overhead).
  Stopwatch infer_watch;
  constexpr int kReps = 200;
  for (int rep = 0; rep < kReps; ++rep) {
    (void)model.predict(test_sets[0].row(
        static_cast<std::size_t>(rep) % test_sets[0].size()));
  }
  out.report.inference_us = infer_watch.elapsed_us() / kReps;

  out.provider =
      std::make_unique<RegressionBoundsProvider>(std::move(model), max_bound);
  return out;
}

ml::RegressorFactory linear_regression_factory() {
  return [] { return std::make_unique<ml::LinearRegression>(); };
}

ml::RegressorFactory gradient_boosting_factory() {
  return [] {
    ml::BoostingConfig config;
    config.n_stages = 150;      // the paper's boosting stages
    config.learning_rate = 0.1; // the paper's learning rate
    return std::make_unique<ml::GradientBoosting>(config);
  };
}

ml::RegressorFactory random_forest_factory() {
  return [] {
    ml::ForestConfig config;
    config.n_trees = 150;  // the paper's forest size
    return std::make_unique<ml::RandomForest>(config);
  };
}

TrainedBoundsModel train_default_model(const TunerConfig& tuner_config) {
  const TuningData data = generate_tuning_data(tuner_config);
  return train_bounds_model(data.samples, random_forest_factory(),
                            "RandomForest", tuner_config.max_bound);
}

}  // namespace micco
