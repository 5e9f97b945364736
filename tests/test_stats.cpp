#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace micco::stats {
namespace {

TEST(Stats, MeanBasic) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
}

TEST(Stats, MeanEmptyIsZero) {
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
}

TEST(Stats, GeomeanBasic) {
  const std::vector<double> xs{1.0, 4.0, 16.0};
  EXPECT_NEAR(geomean(xs), 4.0, 1e-12);
}

TEST(Stats, GeomeanSingle) {
  const std::vector<double> xs{2.25};
  EXPECT_NEAR(geomean(xs), 2.25, 1e-12);
}

TEST(Stats, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(Stats, MinMax) {
  const std::vector<double> xs{3.0, -1.0, 7.5, 2.0};
  EXPECT_DOUBLE_EQ(max(xs), 7.5);
}

TEST(Stats, KahanSumHandlesSmallAddends) {
  std::vector<double> xs{1.0e16};
  for (int i = 0; i < 10; ++i) xs.push_back(1.0);
  EXPECT_DOUBLE_EQ(kahan_sum(xs), 1.0e16 + 10.0);
}

TEST(Stats, RanksSimple) {
  const std::vector<double> xs{10.0, 30.0, 20.0};
  const std::vector<double> r = ranks(xs);
  EXPECT_DOUBLE_EQ(r[0], 1.0);
  EXPECT_DOUBLE_EQ(r[1], 3.0);
  EXPECT_DOUBLE_EQ(r[2], 2.0);
}

TEST(Stats, RanksAverageTies) {
  const std::vector<double> xs{5.0, 5.0, 1.0, 9.0};
  const std::vector<double> r = ranks(xs);
  EXPECT_DOUBLE_EQ(r[0], 2.5);
  EXPECT_DOUBLE_EQ(r[1], 2.5);
  EXPECT_DOUBLE_EQ(r[2], 1.0);
  EXPECT_DOUBLE_EQ(r[3], 4.0);
}

TEST(Stats, PearsonPerfectPositive) {
  const std::vector<double> xs{1.0, 2.0, 3.0};
  const std::vector<double> ys{2.0, 4.0, 6.0};
  EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
}

TEST(Stats, PearsonPerfectNegative) {
  const std::vector<double> xs{1.0, 2.0, 3.0};
  const std::vector<double> ys{9.0, 6.0, 3.0};
  EXPECT_NEAR(pearson(xs, ys), -1.0, 1e-12);
}

TEST(Stats, PearsonZeroVarianceGivesZero) {
  const std::vector<double> xs{1.0, 1.0, 1.0};
  const std::vector<double> ys{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(pearson(xs, ys), 0.0);
}

TEST(Stats, SpearmanMonotoneNonlinearIsOne) {
  // Spearman sees through monotone nonlinearity (why the paper uses it).
  std::vector<double> xs, ys;
  for (int i = 1; i <= 20; ++i) {
    xs.push_back(i);
    ys.push_back(std::exp(0.3 * i));
  }
  EXPECT_NEAR(spearman(xs, ys), 1.0, 1e-12);
}

TEST(Stats, SpearmanAntitone) {
  std::vector<double> xs, ys;
  for (int i = 1; i <= 10; ++i) {
    xs.push_back(i);
    ys.push_back(1.0 / i);
  }
  EXPECT_NEAR(spearman(xs, ys), -1.0, 1e-12);
}

TEST(Stats, FormatPrecision) {
  EXPECT_EQ(format(3.14159, 2), "3.14");
  EXPECT_EQ(format(2.0, 0), "2");
}

}  // namespace
}  // namespace micco::stats
