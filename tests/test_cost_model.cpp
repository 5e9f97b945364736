#include "gpusim/cost_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace micco {
namespace {

ContractionTask make_task(std::int64_t extent, std::int64_t batch = 4,
                          int rank = 2) {
  ContractionTask t;
  t.a = TensorDesc{0, rank, extent, batch};
  t.b = TensorDesc{1, rank, extent, batch};
  t.out = TensorDesc{2, 2, extent, batch};
  return t;
}

TEST(CostModel, OccupancyRampsWithExtent) {
  EXPECT_LT(occupancy(128), occupancy(384));
  EXPECT_LT(occupancy(384), occupancy(512));
  EXPECT_DOUBLE_EQ(occupancy(512), 1.0);
  EXPECT_DOUBLE_EQ(occupancy(4096), 1.0);  // clamped at saturation
}

TEST(CostModel, OccupancyHasFloor) {
  EXPECT_DOUBLE_EQ(occupancy(1), kMinOccupancy);
}

TEST(CostModel, KernelTimeGrowsWithExtent) {
  EXPECT_LT(kernel_time(make_task(128)), kernel_time(make_task(256)));
  EXPECT_LT(kernel_time(make_task(256)), kernel_time(make_task(768)));
}

TEST(CostModel, KernelTimeGrowsWithBatch) {
  EXPECT_LT(kernel_time(make_task(256, 2)), kernel_time(make_task(256, 8)));
}

TEST(CostModel, KernelIncludesLaunchLatency) {
  EXPECT_GE(kernel_time(make_task(1, 1)), kKernelLaunchLatencyS);
}

TEST(CostModel, BaryonKernelsCostMoreThanMeson) {
  EXPECT_GT(kernel_time(make_task(64, 4, 3)),
            kernel_time(make_task(64, 4, 2)));
}

TEST(CostModel, LargerKernelsAchieveBetterEfficiency) {
  // GFLOP rate (flops / kernel time) must improve with tensor size, which
  // is what makes Fig. 10's absolute numbers climb with extent.
  const auto rate = [](std::int64_t extent) {
    const ContractionTask t = make_task(extent, 8);
    return static_cast<double>(t.flops()) / kernel_time(t);
  };
  EXPECT_LT(rate(128), rate(384));
  EXPECT_LT(rate(384), rate(768));
}

TEST(CostModel, TransferTimesScaleWithBytes) {
  EXPECT_LT(h2d_time(1 << 20), h2d_time(1 << 24));
  EXPECT_LT(p2p_time(1 << 20), p2p_time(1 << 24));
  EXPECT_LT(d2h_time(1 << 20), d2h_time(1 << 24));
}

TEST(CostModel, P2PFasterThanH2DForLargeTransfers) {
  // xGMI links outrun PCIe: the premise behind preferring peer copies.
  constexpr std::uint64_t kBytes = 256ull << 20;
  EXPECT_LT(p2p_time(kBytes), h2d_time(kBytes));
}

TEST(CostModel, TransfersIncludeLatencyFloor) {
  EXPECT_GE(h2d_time(1), kTransferLatencyS);
  EXPECT_GE(p2p_time(1), kTransferLatencyS);
}

TEST(CostModel, AllocAndFreeArePositive) {
  EXPECT_GT(kAllocLatencyS, 0.0);
  EXPECT_GT(kFreeLatencyS, 0.0);
  EXPECT_LT(kFreeLatencyS, kAllocLatencyS);
}

TEST(CostModel, KernelTimeIsRooflineMaxPlusLaunch) {
  for (const std::int64_t extent : {16, 64, 384, 1024}) {
    const ContractionTask t = make_task(extent, 4);
    const double compute_term =
        static_cast<double>(t.flops()) /
        (kPeakGflops * 1e9 * kSustainedFraction * occupancy(extent));
    const double mem_term =
        static_cast<double>(t.kernel_bytes()) / (kHbmBandwidthGbs * 1e9);
    EXPECT_NEAR(kernel_time(t),
                std::max(compute_term, mem_term) + kKernelLaunchLatencyS,
                1e-15 + 1e-9 * kernel_time(t));
  }
}

}  // namespace
}  // namespace micco
