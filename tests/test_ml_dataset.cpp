#include "ml/dataset.hpp"

#include <gtest/gtest.h>

namespace micco::ml {
namespace {

Dataset make_dataset(std::size_t rows) {
  Dataset d(2);
  for (std::size_t i = 0; i < rows; ++i) {
    const double x = static_cast<double>(i);
    const double features[2] = {x, 2.0 * x};
    d.add(features, 3.0 * x);
  }
  return d;
}

TEST(Dataset, AddAndAccess) {
  const Dataset d = make_dataset(3);
  EXPECT_EQ(d.size(), 3u);
  EXPECT_EQ(d.n_features(), 2u);
  EXPECT_DOUBLE_EQ(d.row(1)[0], 1.0);
  EXPECT_DOUBLE_EQ(d.row(1)[1], 2.0);
  EXPECT_DOUBLE_EQ(d.target(2), 6.0);
}

TEST(Dataset, EmptyByDefault) {
  Dataset d(4);
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.size(), 0u);
}

TEST(Dataset, WrongFeatureCountAborts) {
  Dataset d(3);
  const double features[2] = {1.0, 2.0};
  EXPECT_DEATH(d.add(std::span<const double>(features, 2), 0.0),
               "n_features");
}

TEST(Dataset, SubsetSelectsRows) {
  const Dataset d = make_dataset(5);
  const std::vector<std::size_t> idx{4, 0};
  const Dataset s = d.subset(idx);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s.row(0)[0], 4.0);
  EXPECT_DOUBLE_EQ(s.row(1)[0], 0.0);
  EXPECT_DOUBLE_EQ(s.target(0), 12.0);
}

TEST(Dataset, SubsetWithRepeats) {
  const Dataset d = make_dataset(3);
  const std::vector<std::size_t> idx{1, 1, 1};
  const Dataset s = d.subset(idx);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_DOUBLE_EQ(s.target(2), 3.0);
}

TEST(R2Score, PerfectPredictionIsOne) {
  const std::vector<double> truth{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(r2_score(truth, truth), 1.0);
}

TEST(R2Score, MeanPredictionIsZero) {
  const std::vector<double> truth{1.0, 2.0, 3.0};
  const std::vector<double> mean_pred{2.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(r2_score(truth, mean_pred), 0.0);
}

TEST(R2Score, WorseThanMeanIsNegative) {
  const std::vector<double> truth{1.0, 2.0, 3.0};
  const std::vector<double> bad{3.0, 3.0, 0.0};
  EXPECT_LT(r2_score(truth, bad), 0.0);
}

TEST(R2Score, ConstantTruthEdgeCases) {
  const std::vector<double> truth{2.0, 2.0};
  EXPECT_DOUBLE_EQ(r2_score(truth, truth), 1.0);
  const std::vector<double> off{2.0, 3.0};
  EXPECT_DOUBLE_EQ(r2_score(truth, off), 0.0);
}

TEST(Mse, KnownValue) {
  const std::vector<double> truth{1.0, 2.0};
  const std::vector<double> pred{2.0, 4.0};
  EXPECT_DOUBLE_EQ(mse(truth, pred), (1.0 + 4.0) / 2.0);
}

}  // namespace
}  // namespace micco::ml
