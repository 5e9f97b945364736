#include "ml/decision_tree.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"

namespace micco::ml {
namespace {

Dataset step_function_data() {
  // y = 1 for x < 0, y = 5 for x >= 0: one split separates it perfectly.
  Dataset d(1);
  for (int i = -10; i < 10; ++i) {
    const double x = static_cast<double>(i) + 0.5;
    const double features[1] = {x};
    d.add(features, x < 0 ? 1.0 : 5.0);
  }
  return d;
}

TEST(RegressionTree, LearnsStepFunctionExactly) {
  RegressionTree tree;
  tree.fit(step_function_data());
  const double left[1] = {-3.0};
  const double right[1] = {3.0};
  EXPECT_DOUBLE_EQ(tree.predict(left), 1.0);
  EXPECT_DOUBLE_EQ(tree.predict(right), 5.0);
}

TEST(RegressionTree, ConstantTargetGivesSingleLeaf) {
  Dataset d(1);
  for (int i = 0; i < 10; ++i) {
    const double features[1] = {static_cast<double>(i)};
    d.add(features, 7.0);
  }
  RegressionTree tree;
  tree.fit(d);
  EXPECT_EQ(tree.node_count(), 1u);
  const double probe[1] = {99.0};
  EXPECT_DOUBLE_EQ(tree.predict(probe), 7.0);
}

TEST(RegressionTree, DepthLimitRespected) {
  Dataset d(1);
  Pcg32 rng(1);
  for (int i = 0; i < 200; ++i) {
    const double x = rng.uniform_real(0, 10);
    const double features[1] = {x};
    d.add(features, std::sin(x));
  }
  TreeConfig cfg;
  cfg.max_depth = 3;
  RegressionTree tree(cfg);
  tree.fit(d);
  EXPECT_LE(tree.depth(), 4);  // depth counts nodes along the path
}

TEST(RegressionTree, DeeperTreesFitBetter) {
  Dataset d(1);
  Pcg32 rng(2);
  for (int i = 0; i < 300; ++i) {
    const double x = rng.uniform_real(0, 10);
    const double features[1] = {x};
    d.add(features, std::sin(x));
  }
  TreeConfig shallow;
  shallow.max_depth = 2;
  TreeConfig deep;
  deep.max_depth = 8;
  RegressionTree ts(shallow), td(deep);
  ts.fit(d);
  td.fit(d);
  const double r2_shallow = r2_score(d.targets(), ts.predict_all(d));
  const double r2_deep = r2_score(d.targets(), td.predict_all(d));
  EXPECT_GT(r2_deep, r2_shallow);
  EXPECT_GT(r2_deep, 0.9);
}

TEST(RegressionTree, MinSamplesLeafEnforced) {
  Dataset d(1);
  for (int i = 0; i < 10; ++i) {
    const double features[1] = {static_cast<double>(i)};
    d.add(features, static_cast<double>(i));
  }
  TreeConfig cfg;
  cfg.min_samples_leaf = 5;
  RegressionTree tree(cfg);
  tree.fit(d);
  // Only the 5/5 split is legal -> exactly one internal node, two leaves.
  EXPECT_EQ(tree.node_count(), 3u);
}

TEST(RegressionTree, MultiFeatureSplitSelection) {
  // Target depends only on feature 1; the tree must split on it, making
  // feature 0's value irrelevant to predictions.
  Dataset d(2);
  Pcg32 rng(3);
  for (int i = 0; i < 100; ++i) {
    const double noise = rng.uniform_real(-100, 100);
    const double signal = rng.uniform_real(0, 1);
    const double features[2] = {noise, signal};
    d.add(features, signal > 0.5 ? 10.0 : -10.0);
  }
  RegressionTree tree;
  tree.fit(d);
  const double lo[2] = {57.0, 0.1};
  const double hi[2] = {-57.0, 0.9};
  EXPECT_NEAR(tree.predict(lo), -10.0, 1e-9);
  EXPECT_NEAR(tree.predict(hi), 10.0, 1e-9);
}

TEST(RegressionTree, FeatureSubsamplingStillFits) {
  Dataset d(3);
  Pcg32 rng(4);
  for (int i = 0; i < 200; ++i) {
    const double a = rng.uniform_real(0, 1);
    const double b = rng.uniform_real(0, 1);
    const double c = rng.uniform_real(0, 1);
    const double features[3] = {a, b, c};
    d.add(features, a + b + c);
  }
  TreeConfig cfg;
  cfg.max_features = 1;
  cfg.max_depth = 10;
  RegressionTree tree(cfg);
  tree.fit(d);
  EXPECT_GT(r2_score(d.targets(), tree.predict_all(d)), 0.5);
}

TEST(RegressionTree, DeterministicForFixedSeed) {
  Dataset d(2);
  Pcg32 rng(5);
  for (int i = 0; i < 100; ++i) {
    const double features[2] = {rng.uniform_real(0, 1),
                                rng.uniform_real(0, 1)};
    d.add(features, rng.uniform_real(0, 1));
  }
  TreeConfig cfg;
  cfg.max_features = 1;
  cfg.seed = 77;
  RegressionTree t1(cfg), t2(cfg);
  t1.fit(d);
  t2.fit(d);
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_DOUBLE_EQ(t1.predict(d.row(i)), t2.predict(d.row(i)));
  }
}

TEST(RegressionTree, SplitsBetweenAdjacentDoubles) {
  // x = 1 + 2^-52 has an odd mantissa, so 0.5 * (x + nextafter(x)) rounds
  // up to nextafter(x): a midpoint threshold would send both values left.
  const double lo = std::nextafter(1.0, 2.0);
  const double hi = std::nextafter(lo, 2.0);
  ASSERT_EQ(0.5 * (lo + hi), hi);
  const double low[1] = {lo};
  const double high[1] = {hi};
  Dataset d(1);
  for (int i = 0; i < 4; ++i) {
    d.add(low, 1.0);
    d.add(high, 9.0);
  }
  RegressionTree tree;
  tree.fit(d);
  EXPECT_EQ(tree.node_count(), 3u);
  EXPECT_DOUBLE_EQ(tree.predict(low), 1.0);
  EXPECT_DOUBLE_EQ(tree.predict(high), 9.0);
}

TEST(RegressionTree, PredictBeforeFitAborts) {
  RegressionTree tree;
  const double probe[1] = {0.0};
  EXPECT_DEATH((void)tree.predict(probe), "fit");
}

}  // namespace
}  // namespace micco::ml
