// Reuse bounds (Section III-B.2, Table II).
//
// A reuse bound is the load-imbalance slack the scheduler accepts to keep a
// data-reuse opportunity: a device is "available" for an incoming pair only
// while its per-vector tensor count stays under balanceNum + bound, with a
// separate bound per local-reuse tier:
//   bound[0] -> TwoRepeatedSame pairs (mapping 1),
//   bound[1] -> TwoRepeatedDiff / OneRepeated pairs (mappings 2-3),
//   bound[2] -> TwoNew pairs (mappings 4-7).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace micco {

struct ReuseBounds {
  std::array<std::int64_t, 3> values{0, 0, 0};

  constexpr ReuseBounds() = default;
  constexpr ReuseBounds(std::int64_t b0, std::int64_t b1, std::int64_t b2)
      : values{b0, b1, b2} {}

  std::int64_t operator[](std::size_t i) const { return values[i]; }
  std::int64_t& operator[](std::size_t i) { return values[i]; }

  /// MICCO-naive: zero slack everywhere (pure balance within each tier).
  static constexpr ReuseBounds naive() { return ReuseBounds{0, 0, 0}; }

  bool operator==(const ReuseBounds&) const = default;

  std::string to_string() const;
};

/// A box of bound triples: an integer interval [lo[k], hi[k]] per tier. A
/// MiccoScheduler that records its bound interval reports the box inside
/// which every triple would have made each of its decisions the same way
/// (DESIGN.md §5d).
struct BoundInterval {
  static constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  static constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

  std::array<std::int64_t, 3> lo{kMin, kMin, kMin};
  std::array<std::int64_t, 3> hi{kMax, kMax, kMax};

  /// The degenerate box holding `bounds` alone.
  static BoundInterval point(const ReuseBounds& bounds) {
    BoundInterval box;
    box.lo = bounds.values;
    box.hi = bounds.values;
    return box;
  }

  bool contains(const ReuseBounds& bounds) const {
    for (std::size_t k = 0; k < 3; ++k) {
      if (bounds[k] < lo[k] || bounds[k] > hi[k]) return false;
    }
    return true;
  }

  /// The part of this box inside `other`, tier by tier (a tier with no
  /// common bound comes back with lo > hi).
  BoundInterval intersect(const BoundInterval& other) const {
    BoundInterval box;
    for (std::size_t k = 0; k < 3; ++k) {
      box.lo[k] = std::max(lo[k], other.lo[k]);
      box.hi[k] = std::min(hi[k], other.hi[k]);
    }
    return box;
  }

  bool operator==(const BoundInterval&) const = default;
};

/// The thirteen bound triples swept in Fig. 8 (values 0..2).
const std::array<ReuseBounds, 13>& fig8_bound_sweep();

/// Full sweep grid for offline training-label search: all triples with each
/// component in [0, max_component].
std::vector<ReuseBounds> bound_grid(std::int64_t max_component);

}  // namespace micco
