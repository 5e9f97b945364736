#include "core/bounds_model.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>

#include "ml/serialize.hpp"

namespace micco {
namespace {

std::vector<TrainingSample> synthetic_corpus(int n, std::uint64_t seed) {
  // A deterministic nonlinear bounds landscape: high repeated rate with low
  // bias wants loose bound 0; bias pushes bound 1; fresh-heavy vectors want
  // loose bound 2.
  std::vector<TrainingSample> samples;
  Pcg32 rng(seed);
  for (int i = 0; i < n; ++i) {
    TrainingSample s;
    s.characteristics.vector_size = rng.uniform_below(2) ? 16.0 : 64.0;
    s.characteristics.tensor_extent = rng.uniform_below(2) ? 128.0 : 384.0;
    s.characteristics.distribution_bias = rng.uniform01();
    s.characteristics.repeated_rate = rng.uniform01();
    const double rate = s.characteristics.repeated_rate;
    const double bias = s.characteristics.distribution_bias;
    s.best_bounds[0] = (rate > 0.6 && bias < 0.5) ? 2 : 0;
    s.best_bounds[1] = bias > 0.5 ? 2 : 1;
    s.best_bounds[2] = rate < 0.3 ? 2 : 0;
    s.best_gflops = 1000.0;
    samples.push_back(s);
  }
  return samples;
}

TEST(BoundDatasets, ShapeAndContent) {
  const auto samples = synthetic_corpus(10, 1);
  const auto sets = build_bound_datasets(samples);
  for (const auto& set : sets) {
    EXPECT_EQ(set.size(), 10u);
    EXPECT_EQ(set.n_features(),
              static_cast<std::size_t>(DataCharacteristics::kFeatureCount));
  }
  EXPECT_DOUBLE_EQ(sets[0].target(0),
                   static_cast<double>(samples[0].best_bounds[0]));
  EXPECT_DOUBLE_EQ(sets[2].target(5),
                   static_cast<double>(samples[5].best_bounds[2]));
}

TEST(TrainBoundsModel, ForestLearnsTheLandscape) {
  const auto samples = synthetic_corpus(300, 2);
  const TrainedBoundsModel trained = train_bounds_model(
      samples, random_forest_factory(), "RandomForest", 2);
  EXPECT_GT(trained.report.mean_r2, 0.6);
  EXPECT_GT(trained.report.train_ms, 0.0);
  EXPECT_GT(trained.report.inference_us, 0.0);
  ASSERT_NE(trained.provider, nullptr);
}

TEST(TrainBoundsModel, ForestBeatsLinearOnNonlinearLandscape) {
  const auto samples = synthetic_corpus(300, 3);
  const TrainedBoundsModel forest = train_bounds_model(
      samples, random_forest_factory(), "RandomForest", 2);
  const TrainedBoundsModel linear = train_bounds_model(
      samples, linear_regression_factory(), "LinearRegression", 2);
  EXPECT_GT(forest.report.mean_r2, linear.report.mean_r2);
}

TEST(TrainBoundsModel, ProviderPredictionsClampedToRange) {
  const auto samples = synthetic_corpus(100, 4);
  TrainedBoundsModel trained = train_bounds_model(
      samples, random_forest_factory(), "RandomForest", 2);

  DataCharacteristics probe;
  probe.vector_size = 64;
  probe.tensor_extent = 384;
  probe.distribution_bias = 0.9;
  probe.repeated_rate = 0.9;
  const ReuseBounds b = trained.provider->bounds_for(probe);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_GE(b[i], 0);
    EXPECT_LE(b[i], 2);
  }
}

TEST(TrainBoundsModel, ProviderTracksLandscapeDirection) {
  const auto samples = synthetic_corpus(400, 5);
  TrainedBoundsModel trained = train_bounds_model(
      samples, random_forest_factory(), "RandomForest", 2);

  DataCharacteristics reuse_heavy;
  reuse_heavy.vector_size = 64;
  reuse_heavy.tensor_extent = 384;
  reuse_heavy.distribution_bias = 0.1;
  reuse_heavy.repeated_rate = 0.9;

  DataCharacteristics fresh_heavy = reuse_heavy;
  fresh_heavy.repeated_rate = 0.05;

  // The landscape sets bound0 high for reuse-heavy/unbiased vectors and
  // bound2 high for fresh-heavy ones; forest smoothing may not hit the
  // exact label, but the ordering must hold in both directions.
  const ReuseBounds at_reuse = trained.provider->bounds_for(reuse_heavy);
  const ReuseBounds at_fresh = trained.provider->bounds_for(fresh_heavy);
  EXPECT_GT(at_reuse[0], at_fresh[0]);
  EXPECT_GT(at_fresh[2], at_reuse[2]);
}

TEST(TrainBoundsModel, GradientBoostingAlsoLearns) {
  const auto samples = synthetic_corpus(300, 6);
  const TrainedBoundsModel gbm = train_bounds_model(
      samples, gradient_boosting_factory(), "GradientBoosting", 2);
  EXPECT_GT(gbm.report.mean_r2, 0.5);
  EXPECT_EQ(gbm.report.model_name, "GradientBoosting");
}

TEST(BoundsModelFile, RoundTripsAndRejectsBadFiles) {
  const auto samples = synthetic_corpus(100, 8);
  ml::MultiOutputRegressor model(random_forest_factory(), 3);
  model.fit(build_bound_datasets(samples));
  const std::string path =
      "/tmp/micco_bounds_" + std::to_string(::getpid()) + ".mm";
  std::string error;
  {
    std::ofstream out(path);
    ml::save_regressor(model.model(0), out);  // one regressor of three
  }
  EXPECT_EQ(load_bounds_model(path, &error), nullptr);
  EXPECT_TRUE(error.starts_with("bad model file: ")) << error;
  {
    std::ofstream out(path);
    save_bounds_model(model, out);
  }
  const auto loaded = load_bounds_model(path, &error);
  std::remove(path.c_str());
  ASSERT_NE(loaded, nullptr) << error;
  EXPECT_EQ(load_bounds_model(path, &error), nullptr);
  EXPECT_EQ(error, "cannot open model " + path);

  // A split on a feature past DataCharacteristics' four, or a node that is
  // its own child, is refused at load, not at the first prediction (an
  // abort) or in it (a loop that never ends).
  constexpr const char* kLeaves = "-1 0 1 -1 -1\n-1 0 2 -1 -1\n";
  for (const auto& [root, problem] :
       {std::pair{"7 0.5 0 1 2\n", "split feature out of range"},
        std::pair{"0 0.5 0 0 0\n", "tree child index out of range"}}) {
    {
      std::ofstream out(path);
      out << "micco-model v1 forest 1\ntree 3\n" << root << kLeaves;
      for (int b = 1; b < 3; ++b) {
        out << "micco-model v1 forest 1\ntree 3\n0 0.5 0 1 2\n" << kLeaves;
      }
    }
    EXPECT_EQ(load_bounds_model(path, &error), nullptr) << root;
    EXPECT_EQ(error, std::string("bad model file: ") + problem);
  }
  std::remove(path.c_str());

  RegressionBoundsProvider direct(std::move(model), 2);
  for (const TrainingSample& s : samples) {
    EXPECT_EQ(loaded->bounds_for(s.characteristics),
              direct.bounds_for(s.characteristics));
  }
}

TEST(TrainBoundsModel, TooFewSamplesAborts) {
  const auto samples = synthetic_corpus(3, 7);
  EXPECT_DEATH((void)train_bounds_model(samples, random_forest_factory(),
                                        "RandomForest", 2),
               "size");
}

}  // namespace
}  // namespace micco
