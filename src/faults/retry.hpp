// Retry policy for transient transfer faults.
//
// When the fault model declares a fetch attempt failed, the simulator does
// not abort: it charges the wasted transfer time plus an exponential backoff
// (all in *simulated* time) and tries again, up to `max_attempts` tries per
// transfer. A transfer that exhausts its attempts is escalated to a
// permanent device failure — the link to that device is presumed down — and
// the pipeline's recovery path takes over (see DESIGN.md §5c).
#pragma once

#include <algorithm>
#include <cmath>
#include <string>

#include "common/assert.hpp"

namespace micco {

struct RetryPolicy {
  /// Total tries per transfer (first attempt included). Must be >= 1.
  int max_attempts = 4;
  /// Backoff charged after the first failed attempt, seconds of simulated
  /// time. Each later backoff doubles the one before.
  double base_backoff_s = 1e-4;
  /// Ceiling on any single backoff interval.
  double max_backoff_s = 0.1;

  /// Backoff charged after the `attempt`-th failed try (1-based):
  /// min(base * 2^(attempt-1), max_backoff_s). Closed form, so the cost is
  /// O(1) at any attempt count, and saturating: huge exponents that
  /// overflow double (pow → inf) clamp to max_backoff_s instead of
  /// propagating inf/nan into simulated time.
  double backoff(int attempt) const {
    MICCO_EXPECTS(attempt >= 1);
    if (base_backoff_s <= 0.0) return 0.0;
    if (attempt == 1) return std::min(base_backoff_s, max_backoff_s);
    const double wait =
        base_backoff_s * std::pow(2.0, static_cast<double>(attempt - 1));
    if (!std::isfinite(wait) || wait >= max_backoff_s) return max_backoff_s;
    return wait;
  }

  /// Empty string when the policy is well formed, else a complaint.
  std::string validate() const {
    if (max_attempts < 1) return "retry: max_attempts must be >= 1";
    // NaN fails every comparison, so finiteness is checked first.
    if (!std::isfinite(base_backoff_s) || !std::isfinite(max_backoff_s)) {
      return "retry: backoffs must be finite";
    }
    if (base_backoff_s < 0.0) return "retry: base_backoff_s must be >= 0";
    if (max_backoff_s < base_backoff_s) {
      return "retry: max_backoff_s must be >= base_backoff_s";
    }
    return {};
  }
};

}  // namespace micco
