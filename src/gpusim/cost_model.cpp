#include "gpusim/cost_model.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace micco {

namespace {
constexpr double kGiga = 1.0e9;
}

double occupancy(std::int64_t extent) {
  MICCO_EXPECTS(extent >= 1);
  const double ratio = static_cast<double>(extent) /
                       static_cast<double>(kSaturatingExtent);
  return std::clamp(ratio, kMinOccupancy, 1.0);
}

double kernel_time(const ContractionTask& task) {
  const double flops = static_cast<double>(task.flops());
  const double bytes = static_cast<double>(task.kernel_bytes());

  const double effective_rate =
      kPeakGflops * kGiga * kSustainedFraction * occupancy(task.a.extent);
  const double compute_time = flops / effective_rate;
  const double memory_time = bytes / (kHbmBandwidthGbs * kGiga);
  return std::max(compute_time, memory_time) + kKernelLaunchLatencyS;
}

double h2d_time(std::uint64_t bytes) {
  return static_cast<double>(bytes) / (kH2dBandwidthGbs * kGiga) +
         kTransferLatencyS;
}

double d2h_time(std::uint64_t bytes) {
  return static_cast<double>(bytes) / (kD2hBandwidthGbs * kGiga) +
         kTransferLatencyS;
}

double p2p_time(std::uint64_t bytes) {
  return static_cast<double>(bytes) / (kP2pBandwidthGbs * kGiga) +
         kTransferLatencyS;
}

double internode_time(std::uint64_t bytes) {
  return static_cast<double>(bytes) / (kInternodeBandwidthGbs * kGiga) +
         kTransferLatencyS;
}

}  // namespace micco
