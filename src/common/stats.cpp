#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "common/assert.hpp"

namespace micco::stats {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  return kahan_sum(xs) / static_cast<double>(xs.size());
}

double geomean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double log_acc = 0.0;
  for (const double x : xs) {
    MICCO_EXPECTS_MSG(x > 0.0, "geomean requires positive values");
    log_acc += std::log(x);
  }
  return std::exp(log_acc / static_cast<double>(xs.size()));
}

double median(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  if (n % 2 == 1) return sorted[n / 2];
  return 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}

double max(std::span<const double> xs) {
  MICCO_EXPECTS(!xs.empty());
  return *std::max_element(xs.begin(), xs.end());
}

double kahan_sum(std::span<const double> xs) {
  double sum = 0.0;
  double carry = 0.0;
  for (const double x : xs) {
    const double y = x - carry;
    const double t = sum + y;
    carry = (t - sum) - y;
    sum = t;
  }
  return sum;
}

std::vector<double> ranks(std::span<const double> xs) {
  const std::size_t n = xs.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return xs[a] < xs[b]; });

  std::vector<double> result(n, 0.0);
  std::size_t i = 0;
  while (i < n) {
    // Extend over the tie group [i, j) and assign the average rank.
    std::size_t j = i + 1;
    while (j < n && xs[order[j]] == xs[order[i]]) ++j;
    const double avg_rank =
        0.5 * (static_cast<double>(i + 1) + static_cast<double>(j));
    for (std::size_t k = i; k < j; ++k) result[order[k]] = avg_rank;
    i = j;
  }
  return result;
}

double pearson(std::span<const double> xs, std::span<const double> ys) {
  MICCO_EXPECTS(xs.size() == ys.size());
  if (xs.size() < 2) return 0.0;
  const double mx = mean(xs);
  const double my = mean(ys);
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

double spearman(std::span<const double> xs, std::span<const double> ys) {
  MICCO_EXPECTS(xs.size() == ys.size());
  const std::vector<double> rx = ranks(xs);
  const std::vector<double> ry = ranks(ys);
  return pearson(rx, ry);
}

std::string format(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

}  // namespace micco::stats
