// Analytic device cost model.
//
// Prices the four event classes the paper's trade-off analysis enumerates —
// kernel execution, memory allocation, data communication (H2D / D2H / P2P)
// and eviction write-back — using MI100-class calibration constants (peak
// FLOP rate, HBM2 bandwidth, PCIe 4.0 and xGMI link bandwidths, launch and
// allocation latencies). Kernels are priced with a roofline: small tensors
// go memory-bound, which reproduces the paper's observation that memory
// operations dominate at tensor size 384 and below.
#pragma once

#include <cstdint>

#include "workload/task.hpp"

namespace micco {

// Compute. Redstar runs hadron contractions in single precision, so
// kernels are priced at the MI100's FP32 matrix-op peak (46.1 TFLOP/s)
// with a realistic sustained fraction. (The executing numeric path keeps
// complex double for bit-exact cross-schedule comparisons; only the cost
// model prices FP32.)
inline constexpr double kPeakGflops = 46100.0;
inline constexpr double kSustainedFraction = 0.50;

/// Occupancy ramp: extents at/above this saturate the CUs; smaller extents
/// scale occupancy down linearly (with a floor), making small kernels
/// latency/memory bound.
inline constexpr std::int64_t kSaturatingExtent = 512;
inline constexpr double kMinOccupancy = 0.05;

// Memory system. Host transfers are priced at effective *pageable*
// PCIe 4.0 rates — Redstar streams hadron tensors straight from host
// buffers — which is what makes tensor movements the expensive events the
// paper's trade-off analysis revolves around.
inline constexpr double kHbmBandwidthGbs = 1228.8;  ///< device-local traffic
/// PCIe 4.0 x16, pageable effective.
inline constexpr double kH2dBandwidthGbs = 12.0;
inline constexpr double kD2hBandwidthGbs = 11.0;
/// xGMI link (extension; off by default).
inline constexpr double kP2pBandwidthGbs = 48.0;
/// Cross-node replica fetches in the multi-node extension (future work of
/// the paper): InfiniBand-class links, slower than intra-node xGMI but
/// competitive with pageable host staging.
inline constexpr double kInternodeBandwidthGbs = 20.0;

// Fixed latencies (seconds). Device allocation is hipMalloc-scale, not a
// pool hit: the paper counts "memory allocation" as a first-class cost.
inline constexpr double kKernelLaunchLatencyS = 8.0e-6;
inline constexpr double kTransferLatencyS = 12.0e-6;
inline constexpr double kAllocLatencyS = 200.0e-6;  ///< one tensor's alloc
inline constexpr double kFreeLatencyS = 10.0e-6;    ///< one tensor's release

// Pricing functions over the constants above. All results are in seconds
// of simulated device time.

/// Time for the contraction kernel of `task` on one device.
double kernel_time(const ContractionTask& task);

/// Host-to-device transfer of `bytes`.
double h2d_time(std::uint64_t bytes);

/// Device-to-host transfer (eviction write-back of dirty tensors).
double d2h_time(std::uint64_t bytes);

/// Peer-to-peer transfer between two devices of the same node.
double p2p_time(std::uint64_t bytes);

/// Peer transfer across nodes (multi-node extension).
double internode_time(std::uint64_t bytes);

/// Occupancy factor in (0, 1] for a kernel over square operands of the
/// given extent. Exposed for tests and the bench ablation.
double occupancy(std::int64_t extent);

}  // namespace micco
