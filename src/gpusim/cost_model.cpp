#include "gpusim/cost_model.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace micco {

namespace {
constexpr double kGiga = 1.0e9;
}

std::string CostModelConfig::validate() const {
  if (!(peak_gflops > 0.0)) return "cost: peak_gflops must be > 0";
  if (!(sustained_fraction > 0.0 && sustained_fraction <= 1.0)) {
    return "cost: sustained_fraction must be in (0, 1]";
  }
  if (saturating_extent < 1) return "cost: saturating_extent must be >= 1";
  if (!(min_occupancy > 0.0 && min_occupancy <= 1.0)) {
    return "cost: min_occupancy must be in (0, 1]";
  }
  if (!(hbm_bandwidth_gbs > 0.0 && h2d_bandwidth_gbs > 0.0 &&
        d2h_bandwidth_gbs > 0.0 && p2p_bandwidth_gbs > 0.0 &&
        internode_bandwidth_gbs > 0.0)) {
    return "cost: every bandwidth must be > 0";
  }
  return {};
}

CostModel::CostModel(CostModelConfig config) : config_(config) {
  MICCO_EXPECTS(config_.peak_gflops > 0.0);
  MICCO_EXPECTS(config_.sustained_fraction > 0.0 &&
                config_.sustained_fraction <= 1.0);
  MICCO_EXPECTS(config_.saturating_extent >= 1);
  MICCO_EXPECTS(config_.min_occupancy > 0.0 && config_.min_occupancy <= 1.0);
  MICCO_EXPECTS(config_.hbm_bandwidth_gbs > 0.0);
  MICCO_EXPECTS(config_.h2d_bandwidth_gbs > 0.0);
  MICCO_EXPECTS(config_.d2h_bandwidth_gbs > 0.0);
  MICCO_EXPECTS(config_.p2p_bandwidth_gbs > 0.0);
  MICCO_EXPECTS(config_.internode_bandwidth_gbs > 0.0);
}

double CostModel::occupancy(std::int64_t extent) const {
  MICCO_EXPECTS(extent >= 1);
  const double ratio = static_cast<double>(extent) /
                       static_cast<double>(config_.saturating_extent);
  return std::clamp(ratio, config_.min_occupancy, 1.0);
}

double CostModel::kernel_time(const ContractionTask& task) const {
  const double flops = static_cast<double>(task.flops());
  const double bytes = static_cast<double>(task.kernel_bytes());

  const double effective_rate = config_.peak_gflops * kGiga *
                                config_.sustained_fraction *
                                occupancy(task.a.extent);
  const double compute_time = flops / effective_rate;
  const double memory_time = bytes / (config_.hbm_bandwidth_gbs * kGiga);
  return std::max(compute_time, memory_time) + config_.kernel_launch_latency_s;
}

double CostModel::h2d_time(std::uint64_t bytes) const {
  return static_cast<double>(bytes) / (config_.h2d_bandwidth_gbs * kGiga) +
         config_.transfer_latency_s;
}

double CostModel::d2h_time(std::uint64_t bytes) const {
  return static_cast<double>(bytes) / (config_.d2h_bandwidth_gbs * kGiga) +
         config_.transfer_latency_s;
}

double CostModel::p2p_time(std::uint64_t bytes) const {
  return static_cast<double>(bytes) / (config_.p2p_bandwidth_gbs * kGiga) +
         config_.transfer_latency_s;
}

double CostModel::internode_time(std::uint64_t bytes) const {
  return static_cast<double>(bytes) /
             (config_.internode_bandwidth_gbs * kGiga) +
         config_.transfer_latency_s;
}

double CostModel::alloc_time() const { return config_.alloc_latency_s; }

double CostModel::free_time() const { return config_.free_latency_s; }

}  // namespace micco
