// Regression bounds model: trains a multi-output regressor on the tuner's
// labelled corpus and serves per-vector reuse-bound predictions online
// (step 2 of Fig. 6). Also hosts the Table IV model comparison.
#pragma once

#include <array>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "core/tuner.hpp"
#include "ml/regressor.hpp"

namespace micco {

/// Trained model + held-out quality, per reuse bound and averaged.
struct BoundsModelReport {
  std::string model_name;
  std::array<double, 3> per_bound_r2{0.0, 0.0, 0.0};
  double mean_r2 = 0.0;
  double train_ms = 0.0;
  double inference_us = 0.0;  ///< mean single-sample latency
};

/// Builds the per-output datasets (shared features, one target column per
/// reuse bound) from labelled training samples.
std::array<ml::Dataset, 3> build_bound_datasets(
    std::span<const TrainingSample> samples);

/// Online provider backed by a trained multi-output regressor. Predictions
/// are rounded to integers and clamped to [0, max_bound].
class RegressionBoundsProvider final : public BoundsProvider {
 public:
  RegressionBoundsProvider(ml::MultiOutputRegressor model,
                           std::int64_t max_bound);

  ReuseBounds bounds_for(const DataCharacteristics& c) override;

 private:
  ml::MultiOutputRegressor model_;
  std::int64_t max_bound_;
};

/// A bounds model file (`micco train` writes it, `run`/`serve --model` read
/// it) holds a MultiOutputRegressor's three per-bound regressors in
/// ml/serialize's format; the loaded provider clamps to max bound 2.
void save_bounds_model(const ml::MultiOutputRegressor& model,
                       std::ostream& out);
/// nullptr, with `error` set ("cannot open model <path>" or "bad model
/// file: <reason>"), on failure; never aborts on bad data.
std::unique_ptr<RegressionBoundsProvider> load_bounds_model(
    const std::string& path, std::string* error);

/// Trains a model on an 80/20 split of `samples` (the paper: "20% of which
/// is test data") and reports held-out R^2. The returned provider is fit on
/// the *training* portion only, like the paper's offline model.
struct TrainedBoundsModel {
  std::unique_ptr<RegressionBoundsProvider> provider;
  BoundsModelReport report;
};

TrainedBoundsModel train_bounds_model(std::span<const TrainingSample> samples,
                                      const ml::RegressorFactory& factory,
                                      const std::string& model_name,
                                      std::int64_t max_bound,
                                      std::uint64_t seed = 5);

/// Factories for the three Table IV models with the paper's settings
/// (150 trees / 150 stages, learning rate 0.1).
ml::RegressorFactory linear_regression_factory();
ml::RegressorFactory gradient_boosting_factory();
ml::RegressorFactory random_forest_factory();

/// Convenience: sweep + train the production Random Forest provider in one
/// call (used by examples and bench_redstar).
TrainedBoundsModel train_default_model(const TunerConfig& tuner_config);

}  // namespace micco
