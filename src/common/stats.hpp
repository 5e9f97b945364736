// Small descriptive-statistics helpers shared by the benches and the ML
// module: means, geometric means, variance, median, min/max, rank
// correlation.
#pragma once

#include <span>
#include <string>
#include <vector>

namespace micco::stats {

/// Arithmetic mean; 0 for an empty range.
double mean(std::span<const double> xs);

/// Population variance (divides by N); 0 for fewer than one element.
double variance(std::span<const double> xs);

/// Population standard deviation.
double stddev(std::span<const double> xs);

/// Geometric mean; requires all elements > 0. Used for the paper's
/// "geometric mean speedup" summaries.
double geomean(std::span<const double> xs);

/// Median (average of the two central elements for even sizes).
double median(std::span<const double> xs);

double min(std::span<const double> xs);
double max(std::span<const double> xs);

/// Sum with Kahan compensation, so long metric accumulations stay exact
/// enough to compare across schedulers.
double kahan_sum(std::span<const double> xs);

/// Ranks for Spearman correlation: average ranks for ties, 1-based.
std::vector<double> ranks(std::span<const double> xs);

/// Pearson product-moment correlation of two equal-length series.
/// Returns 0 when either series has zero variance.
double pearson(std::span<const double> xs, std::span<const double> ys);

/// Spearman's rank correlation coefficient (used for Fig. 5's heatmap).
double spearman(std::span<const double> xs, std::span<const double> ys);

/// Formats a double with fixed precision (bench table cells).
std::string format(double value, int precision = 2);

}  // namespace micco::stats
