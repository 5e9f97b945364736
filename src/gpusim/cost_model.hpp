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
#include <string>

#include "workload/task.hpp"

namespace micco {

struct CostModelConfig {
  // Compute. Redstar runs hadron contractions in single precision, so
  // kernels are priced at the MI100's FP32 matrix-op peak (46.1 TFLOP/s)
  // with a realistic sustained fraction. (The executing numeric path keeps
  // complex double for bit-exact cross-schedule comparisons; only the cost
  // model prices FP32.)
  double peak_gflops = 46100.0;
  double sustained_fraction = 0.50;

  /// Occupancy ramp: extents at/above this saturate the CUs; smaller extents
  /// scale occupancy down linearly (with a floor), making small kernels
  /// latency/memory bound.
  std::int64_t saturating_extent = 512;
  double min_occupancy = 0.05;

  // Memory system. Host transfers are priced at effective *pageable*
  // PCIe 4.0 rates — Redstar streams hadron tensors straight from host
  // buffers — which is what makes tensor movements the expensive events the
  // paper's trade-off analysis revolves around.
  double hbm_bandwidth_gbs = 1228.8;   ///< device-local traffic
  double h2d_bandwidth_gbs = 12.0;     ///< PCIe 4.0 x16, pageable effective
  double d2h_bandwidth_gbs = 11.0;
  double p2p_bandwidth_gbs = 48.0;     ///< xGMI link (extension; off by default)
  /// Cross-node replica fetches in the multi-node extension (future work of
  /// the paper): InfiniBand-class links, slower than intra-node xGMI but
  /// competitive with pageable host staging.
  double internode_bandwidth_gbs = 20.0;

  // Fixed latencies (seconds). Device allocation is hipMalloc-scale, not a
  // pool hit: the paper counts "memory allocation" as a first-class cost.
  double kernel_launch_latency_s = 8.0e-6;
  double transfer_latency_s = 12.0e-6;
  double alloc_latency_s = 200.0e-6;
  double free_latency_s = 10.0e-6;

  /// Empty string when CostModel accepts the config, else a complaint.
  std::string validate() const;
};

/// Pure cost-evaluation functions over a fixed config. All results are in
/// seconds of simulated device time.
class CostModel {
 public:
  explicit CostModel(CostModelConfig config = {});

  const CostModelConfig& config() const { return config_; }

  /// Time for the contraction kernel of `task` on one device.
  double kernel_time(const ContractionTask& task) const;

  /// Host-to-device transfer of `bytes`.
  double h2d_time(std::uint64_t bytes) const;

  /// Device-to-host transfer (eviction write-back of dirty tensors).
  double d2h_time(std::uint64_t bytes) const;

  /// Peer-to-peer transfer between two devices of the same node.
  double p2p_time(std::uint64_t bytes) const;

  /// Peer transfer across nodes (multi-node extension).
  double internode_time(std::uint64_t bytes) const;

  /// Device memory allocation of one tensor.
  double alloc_time() const;

  /// Device memory release of one tensor.
  double free_time() const;

  /// Occupancy factor in (0, 1] for a kernel over square operands of the
  /// given extent. Exposed for tests and the bench ablation.
  double occupancy(std::int64_t extent) const;

 private:
  CostModelConfig config_;
};

}  // namespace micco
