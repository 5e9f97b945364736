#include "ml/serialize.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.hpp"
#include "ml/linear_regression.hpp"

namespace micco::ml {
namespace {

Dataset training_data(int n, std::uint64_t seed) {
  Dataset d(2);
  Pcg32 rng(seed);
  for (int i = 0; i < n; ++i) {
    const double a = rng.uniform_real(0, 1);
    const double b = rng.uniform_real(0, 1);
    const double features[2] = {a, b};
    d.add(features, (a > 0.5 ? 2.0 : 0.0) + b * b);
  }
  return d;
}

/// Round-trips a model through the text format and checks predictions are
/// bit-identical on every training row.
void expect_roundtrip_identical(const Regressor& model, const Dataset& data) {
  std::stringstream buffer;
  save_regressor(model, buffer);
  std::string error;
  const std::unique_ptr<Regressor> loaded = load_regressor(buffer, &error);
  ASSERT_NE(loaded, nullptr) << error;
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_DOUBLE_EQ(model.predict(data.row(i)), loaded->predict(data.row(i)))
        << "row " << i;
  }
}

TEST(Serialize, ForestRoundTrip) {
  const Dataset d = training_data(100, 2);
  ForestConfig cfg;
  cfg.n_trees = 12;
  RandomForest forest(cfg);
  forest.fit(d);
  expect_roundtrip_identical(forest, d);
}

TEST(Serialize, LoadedForestHasSameTreeCount) {
  const Dataset d = training_data(60, 5);
  ForestConfig cfg;
  cfg.n_trees = 7;
  RandomForest forest(cfg);
  forest.fit(d);
  std::stringstream buffer;
  save_regressor(forest, buffer);
  const auto loaded = load_regressor(buffer);
  const auto* loaded_forest = dynamic_cast<RandomForest*>(loaded.get());
  ASSERT_NE(loaded_forest, nullptr);
  EXPECT_EQ(loaded_forest->tree_count(), 7u);
}

TEST(Serialize, RejectsGarbageInput) {
  std::stringstream buffer("not a model at all");
  std::string error;
  EXPECT_EQ(load_regressor(buffer, &error), nullptr);
  EXPECT_NE(error.find("not a micco model"), std::string::npos);
}

TEST(Serialize, RejectsUnknownVersion) {
  std::stringstream buffer("micco-model v99 forest 1");
  std::string error;
  EXPECT_EQ(load_regressor(buffer, &error), nullptr);
  EXPECT_NE(error.find("version"), std::string::npos);
}

TEST(Serialize, RejectsUnknownType) {
  // Model files hold forests only; other regressors' headers are unknown.
  for (const char* text : {"micco-model v1 neuralnet",
                           "micco-model v1 boosting 1 0.0 0.1\n"}) {
    std::stringstream buffer(text);
    std::string error;
    EXPECT_EQ(load_regressor(buffer, &error), nullptr) << text;
    EXPECT_NE(error.find("unknown model type"), std::string::npos) << text;
  }
}

TEST(Serialize, RejectsTruncatedTree) {
  std::stringstream buffer(
      "micco-model v1 forest 1\ntree 3\n-1 0 1.5 -1 -1\n");
  std::string error;
  EXPECT_EQ(load_regressor(buffer, &error), nullptr);
  EXPECT_NE(error.find("truncated"), std::string::npos);
}

TEST(Serialize, RejectsOutOfRangeChildIndices) {
  // Past the end, or at or before the node itself: trees are written
  // parent first, and a backward index would make predict() loop.
  for (const char* body : {
           "tree 1\n0 0.5 0 7 8\n",
           "tree 1\n0 0.5 0 0 0\n",
           "tree 3\n0 0.5 0 1 -1\n-1 0 1 -1 -1\n-1 0 2 -1 -1\n",
           "tree 3\n0 0.5 0 1 2\n0 0.5 0 0 2\n-1 0 2 -1 -1\n",
           "tree 3\n0 0.5 0 1 2\n0 0.5 0 2 1\n-1 0 2 -1 -1\n",
       }) {
    std::stringstream buffer(std::string("micco-model v1 forest 1\n") + body);
    std::string error;
    EXPECT_EQ(load_regressor(buffer, &error), nullptr) << body;
    EXPECT_EQ(error, "tree child index out of range") << body;
  }
}

TEST(Serialize, SavingUnfittedModelAborts) {
  std::stringstream buffer;
  RandomForest forest;
  EXPECT_DEATH(save_regressor(forest, buffer), "unfitted");
}

TEST(Serialize, SavingAnyOtherModelAborts) {
  const Dataset d = training_data(50, 4);
  LinearRegression lr;
  lr.fit(d);
  std::stringstream buffer;
  EXPECT_DEATH(save_regressor(lr, buffer), "only RandomForest");
}

TEST(TreeExport, NodesRoundTripStructurally) {
  const Dataset d = training_data(80, 7);
  RegressionTree tree;
  tree.fit(d);
  const auto nodes = tree.export_nodes();
  EXPECT_EQ(nodes.size(), tree.node_count());
  const RegressionTree rebuilt = RegressionTree::import_nodes(nodes);
  EXPECT_EQ(rebuilt.node_count(), tree.node_count());
  EXPECT_EQ(rebuilt.depth(), tree.depth());
}

}  // namespace
}  // namespace micco::ml
