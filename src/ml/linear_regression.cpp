#include "ml/linear_regression.hpp"

#include <cmath>

#include "common/assert.hpp"

namespace micco::ml {

std::vector<double> solve_linear_system(std::vector<double> a,
                                        std::vector<double> b) {
  const std::size_t n = b.size();
  MICCO_EXPECTS(a.size() == n * n);

  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivot.
    std::size_t pivot = col;
    double best = std::abs(a[col * n + col]);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double v = std::abs(a[r * n + col]);
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    MICCO_ASSERT_MSG(best > 0.0, "singular system in linear solve");
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(a[col * n + c], a[pivot * n + c]);
      }
      std::swap(b[col], b[pivot]);
    }
    // Eliminate below.
    const double diag = a[col * n + col];
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = a[r * n + col] / diag;
      if (factor == 0.0) continue;
      for (std::size_t c = col; c < n; ++c) {
        a[r * n + c] -= factor * a[col * n + c];
      }
      b[r] -= factor * b[col];
    }
  }

  // Back substitution.
  std::vector<double> x(n, 0.0);
  for (std::size_t ri = n; ri-- > 0;) {
    double acc = b[ri];
    for (std::size_t c = ri + 1; c < n; ++c) acc -= a[ri * n + c] * x[c];
    x[ri] = acc / a[ri * n + ri];
  }
  return x;
}

void LinearRegression::fit(const Dataset& data) {
  MICCO_EXPECTS(!data.empty());
  const std::size_t p = data.n_features() + 1;  // + intercept
  std::vector<double> xtx(p * p, 0.0);
  std::vector<double> xty(p, 0.0);

  std::vector<double> row(p, 0.0);
  for (std::size_t i = 0; i < data.size(); ++i) {
    row[0] = 1.0;
    const auto features = data.row(i);
    for (std::size_t j = 0; j < features.size(); ++j) row[j + 1] = features[j];
    const double y = data.target(i);
    for (std::size_t r = 0; r < p; ++r) {
      for (std::size_t c = 0; c < p; ++c) xtx[r * p + c] += row[r] * row[c];
      xty[r] += row[r] * y;
    }
  }
  for (std::size_t d = 0; d < p; ++d) xtx[d * p + d] += ridge_;

  weights_ = solve_linear_system(std::move(xtx), std::move(xty));
}

double LinearRegression::predict(std::span<const double> features) const {
  MICCO_EXPECTS_MSG(!weights_.empty(), "predict before fit");
  MICCO_EXPECTS(features.size() + 1 == weights_.size());
  double acc = weights_[0];
  for (std::size_t j = 0; j < features.size(); ++j) {
    acc += weights_[j + 1] * features[j];
  }
  return acc;
}

}  // namespace micco::ml
