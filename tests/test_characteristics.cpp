#include "workload/characteristics.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "common/rng.hpp"

namespace micco {
namespace {

ContractionTask make_task(TensorId a, TensorId b, TensorId out) {
  ContractionTask t;
  t.a = TensorDesc{a, 2, 16, 1};
  t.b = TensorDesc{b, 2, 16, 1};
  t.out = TensorDesc{out, 2, 16, 1};
  return t;
}

/// Oracle backed by an explicit set.
class SetResidency final : public ResidencyOracle {
 public:
  explicit SetResidency(std::unordered_set<TensorId> ids)
      : ids_(std::move(ids)) {}
  bool resident_anywhere(TensorId id) const override {
    return ids_.contains(id);
  }

 private:
  std::unordered_set<TensorId> ids_;
};

TEST(Characteristics, EmptyResidencyGivesZeroRepeatRate) {
  VectorWorkload v;
  v.tasks = {make_task(0, 1, 10), make_task(2, 3, 11)};
  const DataCharacteristics c = extract_characteristics(v, EmptyResidency{});
  EXPECT_DOUBLE_EQ(c.repeated_rate, 0.0);
  EXPECT_DOUBLE_EQ(c.vector_size, 4.0);
  EXPECT_DOUBLE_EQ(c.tensor_extent, 16.0);
}

TEST(Characteristics, RepeatedRateCountsResidentSlots) {
  VectorWorkload v;
  v.tasks = {make_task(0, 1, 10), make_task(2, 3, 11)};
  const DataCharacteristics c =
      extract_characteristics(v, SetResidency{{0, 2, 3}});
  EXPECT_DOUBLE_EQ(c.repeated_rate, 0.75);
}

TEST(Characteristics, RepeatedSlotCountedPerOccurrence) {
  // Tensor 0 occupies two slots; both count toward the rate.
  VectorWorkload v;
  v.tasks = {make_task(0, 0, 10), make_task(1, 2, 11)};
  const DataCharacteristics c = extract_characteristics(v, SetResidency{{0}});
  EXPECT_DOUBLE_EQ(c.repeated_rate, 0.5);
}

TEST(MultiplicitySkew, AllDistinctIsZero) {
  VectorWorkload v;
  v.tasks = {make_task(0, 1, 10), make_task(2, 3, 11)};
  EXPECT_DOUBLE_EQ(multiplicity_skew(v), 0.0);
}

TEST(MultiplicitySkew, SingleTensorDominanceIsOne) {
  VectorWorkload v;
  v.tasks = {make_task(7, 7, 10), make_task(7, 7, 11)};
  EXPECT_DOUBLE_EQ(multiplicity_skew(v), 1.0);
}

TEST(MultiplicitySkew, PartialConcentrationBetween) {
  VectorWorkload v;
  v.tasks = {make_task(0, 0, 10), make_task(0, 1, 11), make_task(2, 3, 12)};
  const double skew = multiplicity_skew(v);
  EXPECT_GT(skew, 0.0);
  EXPECT_LT(skew, 1.0);
}

TEST(MultiplicitySkew, MonotoneInConcentration) {
  VectorWorkload spread;
  spread.tasks = {make_task(0, 1, 10), make_task(2, 3, 11),
                  make_task(4, 5, 12), make_task(6, 7, 13)};
  VectorWorkload mild;
  mild.tasks = {make_task(0, 1, 10), make_task(0, 2, 11),
                make_task(3, 4, 12), make_task(5, 6, 13)};
  VectorWorkload heavy;
  heavy.tasks = {make_task(0, 0, 10), make_task(0, 0, 11),
                 make_task(0, 1, 12), make_task(2, 3, 13)};
  EXPECT_LT(multiplicity_skew(spread), multiplicity_skew(mild));
  EXPECT_LT(multiplicity_skew(mild), multiplicity_skew(heavy));
}

/// multiplicity_skew over a plain heap-allocated std::unordered_map: the
/// formula the arena-backed version must reproduce bit for bit (its HHI is
/// a floating-point sum in the map's iteration order).
double reference_skew(const VectorWorkload& vec) {
  std::unordered_map<TensorId, std::int64_t> counts;
  std::int64_t slots = 0;
  for (const ContractionTask& t : vec.tasks) {
    ++counts[t.a.id];
    ++counts[t.b.id];
    slots += 2;
  }
  if (slots == 0 || counts.empty()) return 0.0;
  const double n = static_cast<double>(counts.size());
  double hhi = 0.0;
  for (const auto& [id, c] : counts) {
    (void)id;
    const double share = static_cast<double>(c) / static_cast<double>(slots);
    hhi += share * share;
  }
  const double uniform_floor = 1.0 / n;
  if (n <= 1.0) return 1.0;
  const double skew = (hhi - uniform_floor) / (1.0 - uniform_floor);
  return skew < 0.0 ? 0.0 : (skew > 1.0 ? 1.0 : skew);
}

/// `pairs` tasks whose operands are drawn from `distinct` ids with uneven
/// multiplicities (half the draws from a small hot set), seeded.
VectorWorkload uneven_vector(int pairs, std::uint32_t distinct,
                             std::uint64_t seed) {
  Pcg32 rng(seed);
  const auto draw = [&] {
    const std::uint32_t range =
        rng.uniform_below(2) == 0 ? distinct : distinct / 16 + 1;
    return static_cast<TensorId>(rng.uniform_below(range));
  };
  VectorWorkload v;
  for (int i = 0; i < pairs; ++i) {
    const TensorId a = draw();
    const TensorId b = draw();
    v.tasks.push_back(make_task(a, b, 1'000'000 + static_cast<TensorId>(i)));
  }
  return v;
}

TEST(MultiplicitySkew, BitIdenticalToPlainMapWithinArena) {
  const VectorWorkload v = uneven_vector(96, 120, 17);
  const double skew = multiplicity_skew(v);
  EXPECT_GT(skew, 0.0);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(skew),
            std::bit_cast<std::uint64_t>(reference_skew(v)));
}

TEST(MultiplicitySkew, BitIdenticalToPlainMapPastArena) {
  // 5,000 distinct ids (one per pair's first operand) plus a repeated
  // second operand: the count map outgrows the stack arena and continues
  // on the heap.
  VectorWorkload v = uneven_vector(5000, 700, 23);
  for (std::size_t i = 0; i < v.tasks.size(); ++i) {
    v.tasks[i].a.id = 10'000 + i;
  }
  const double skew = multiplicity_skew(v);
  EXPECT_GT(skew, 0.0);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(skew),
            std::bit_cast<std::uint64_t>(reference_skew(v)));
}

TEST(Characteristics, FeatureVectorOrderIsStable) {
  DataCharacteristics c;
  c.vector_size = 64;
  c.tensor_extent = 384;
  c.distribution_bias = 0.5;
  c.repeated_rate = 0.25;
  double f[DataCharacteristics::kFeatureCount];
  c.to_features(f);
  EXPECT_DOUBLE_EQ(f[0], 64.0);
  EXPECT_DOUBLE_EQ(f[1], 384.0);
  EXPECT_DOUBLE_EQ(f[2], 0.5);
  EXPECT_DOUBLE_EQ(f[3], 0.25);
}

TEST(Characteristics, EmptyVectorIsAllZeros) {
  VectorWorkload v;
  const DataCharacteristics c = extract_characteristics(v, EmptyResidency{});
  EXPECT_DOUBLE_EQ(c.vector_size, 0.0);
  EXPECT_DOUBLE_EQ(c.tensor_extent, 0.0);
  EXPECT_DOUBLE_EQ(c.repeated_rate, 0.0);
  EXPECT_DOUBLE_EQ(c.distribution_bias, 0.0);
}

}  // namespace
}  // namespace micco
