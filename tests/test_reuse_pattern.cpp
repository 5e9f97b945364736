#include "sched/reuse_pattern.hpp"

#include <gtest/gtest.h>

#include "gpusim/cluster.hpp"

namespace micco {
namespace {

TensorDesc make_desc(TensorId id) { return TensorDesc{id, 2, 16, 1}; }

ContractionTask make_task(TensorId a, TensorId b, TensorId out) {
  ContractionTask t;
  t.a = make_desc(a);
  t.b = make_desc(b);
  t.out = make_desc(out);
  return t;
}

ClusterConfig two_devices() {
  ClusterConfig c;
  c.num_devices = 2;
  c.device_capacity_bytes = 1 << 20;
  return c;
}

// Fig. 4's four tensor-pair classes, reconstructed on a live simulator.
class ReusePatternTest : public ::testing::Test {
 protected:
  ReusePatternTest() : sim_(two_devices()) {
    // A1, A2 resident together on device 0 (TwoRepeatedSame example);
    // B1 on device 0, B2 on device 1 (TwoRepeatedDiff example);
    // C1 on device 0 (OneRepeated example).
    sim_.execute(make_task(/*A1=*/0, /*A2=*/1, 100), 0);
    sim_.execute(make_task(/*B1=*/2, /*C1=*/4, 101), 0);
    sim_.execute(make_task(/*B2=*/3, /*E=*/5, 102), 1);
  }
  const ClusterIndex& index() const { return sim_.cluster_index(); }
  ClusterSimulator sim_;
};

TEST_F(ReusePatternTest, TwoRepeatedSame) {
  EXPECT_EQ(classify_pair(make_task(0, 1, 200), index()),
            LocalReusePattern::kTwoRepeatedSame);
}

TEST_F(ReusePatternTest, TwoRepeatedDiff) {
  EXPECT_EQ(classify_pair(make_task(2, 3, 200), index()),
            LocalReusePattern::kTwoRepeatedDiff);
}

TEST_F(ReusePatternTest, OneRepeated) {
  EXPECT_EQ(classify_pair(make_task(4, /*new=*/77, 200), index()),
            LocalReusePattern::kOneRepeated);
  EXPECT_EQ(classify_pair(make_task(/*new=*/77, 4, 200), index()),
            LocalReusePattern::kOneRepeated);
}

TEST_F(ReusePatternTest, TwoNew) {
  EXPECT_EQ(classify_pair(make_task(77, 78, 200), index()),
            LocalReusePattern::kTwoNew);
}

TEST_F(ReusePatternTest, ReplicatedTensorStillSame) {
  // Replicate tensor 0 onto device 1; the pair (0, 1) still has a common
  // holder (device 0), so it stays TwoRepeatedSame.
  sim_.execute(make_task(0, 99, 103), 1);
  EXPECT_EQ(classify_pair(make_task(0, 1, 200), index()),
            LocalReusePattern::kTwoRepeatedSame);
}

TEST_F(ReusePatternTest, MappingClassesPerDevice) {
  // Pair (A1, A2): device 0 reuses both (mapping 1); device 1 none (4-7).
  EXPECT_EQ(classify_mapping(make_task(0, 1, 200), 0, index()),
            MappingClass::kBothReused);
  EXPECT_EQ(classify_mapping(make_task(0, 1, 200), 1, index()),
            MappingClass::kNoneReused);
  // Pair (B1, B2) on device 0: only operand A reused (mapping 2).
  EXPECT_EQ(classify_mapping(make_task(2, 3, 200), 0, index()),
            MappingClass::kFirstReused);
  // ... and on device 1: only operand B reused (mapping 3).
  EXPECT_EQ(classify_mapping(make_task(2, 3, 200), 1, index()),
            MappingClass::kSecondReused);
}

// Clusters past 64 devices: membership past device 63 lives in the holder
// list, not the one-word mask.
TEST(ReusePatternWide, CommonHolderPastDevice63IsSame) {
  // The masks over devices 0-63 do not intersect (2 vs 5); the only common
  // holder is device 66.
  ClusterIndex index(70);
  index.place(0, 2, 0);
  index.place(0, 66, 0);
  index.place(1, 5, 0);
  index.place(1, 66, 1);
  EXPECT_EQ(classify_pair(make_task(0, 1, 200), index),
            LocalReusePattern::kTwoRepeatedSame);
  EXPECT_EQ(classify_pair(make_task(1, 0, 200), index),
            LocalReusePattern::kTwoRepeatedSame);
  EXPECT_EQ(classify_mapping(make_task(0, 1, 200), 66, index),
            MappingClass::kBothReused);
  EXPECT_EQ(classify_mapping(make_task(0, 1, 200), 5, index),
            MappingClass::kSecondReused);
}

TEST(ReusePatternWide, HoldersOnOppositeSidesOf63AreDiff) {
  ClusterIndex index(70);
  index.place(0, 2, 0);
  index.place(1, 66, 0);
  EXPECT_EQ(classify_pair(make_task(0, 1, 200), index),
            LocalReusePattern::kTwoRepeatedDiff);
  EXPECT_EQ(classify_pair(make_task(1, 0, 200), index),
            LocalReusePattern::kTwoRepeatedDiff);
  EXPECT_EQ(classify_mapping(make_task(0, 1, 200), 66, index),
            MappingClass::kSecondReused);
}

TEST(ReusePatternNames, ToStringCoversAll) {
  EXPECT_STREQ(to_string(LocalReusePattern::kTwoRepeatedSame),
               "TwoRepeatedSame");
  EXPECT_STREQ(to_string(LocalReusePattern::kTwoRepeatedDiff),
               "TwoRepeatedDiff");
  EXPECT_STREQ(to_string(LocalReusePattern::kOneRepeated), "OneRepeated");
  EXPECT_STREQ(to_string(LocalReusePattern::kTwoNew), "TwoNew");
}

}  // namespace
}  // namespace micco
