// Ordinary least squares with an intercept term, solved via the normal
// equations with a small ridge stabiliser. The paper's Table IV baseline:
// its low R^2 (0.57) is the evidence that the characteristics -> bounds
// relationship is non-linear.
#pragma once

#include <vector>

#include "ml/regressor.hpp"

namespace micco::ml {

class LinearRegression final : public Regressor {
 public:
  /// `ridge` adds lambda*I to X^T X, keeping the solve well-posed when
  /// features are collinear (e.g. constant tensor size in a sweep).
  explicit LinearRegression(double ridge = 1e-8) : ridge_(ridge) {}

  std::string name() const override { return "LinearRegression"; }
  void fit(const Dataset& data) override;
  double predict(std::span<const double> features) const override;

  /// Learned weights; index 0 is the intercept.
  const std::vector<double>& weights() const { return weights_; }

 private:
  double ridge_;
  std::vector<double> weights_;
};

/// Solves the dense symmetric positive-definite-ish system A x = b in place
/// by Gaussian elimination with partial pivoting. Exposed for tests.
/// A is n x n row-major. Aborts on a (numerically) singular system.
std::vector<double> solve_linear_system(std::vector<double> a,
                                        std::vector<double> b);

}  // namespace micco::ml
