// Comparator schedulers.
//
// GrouteScheduler reproduces the assignment rule the paper attributes to
// Groute and similar multi-GPU frameworks: "assigns jobs and associated data
// on the earliest available device to achieve good load balance" — i.e. pick
// the device whose timeline frees up first, blind to data residency.
//
// DmdaScheduler is StarPU's data-aware earliest-finish rule.
#pragma once

#include "sched/scheduler.hpp"

namespace micco {

/// Earliest-available-device assignment (load balance only).
class GrouteScheduler final : public Scheduler {
 public:
  std::string name() const override { return "Groute"; }
  void begin_vector(const VectorWorkload& vec,
                    const ClusterSimulator& view) override;
  DeviceId assign(const ContractionTask& task,
                  const ClusterSimulator& view) override;
};

/// StarPU-style deque-model-data-aware (dmda) assignment: estimate each
/// device's completion time for the incoming task — current availability
/// plus the transfers its absent operands would need plus the kernel — and
/// pick the minimum. This is the strongest of the general data-aware
/// schedulers the related-work section discusses (Augonnet et al.): it sees
/// locality through the cost model but knows nothing about reuse bounds or
/// eviction pressure.
class DmdaScheduler final : public Scheduler {
 public:
  std::string name() const override { return "dmda"; }
  void begin_vector(const VectorWorkload& vec,
                    const ClusterSimulator& view) override;
  DeviceId assign(const ContractionTask& task,
                  const ClusterSimulator& view) override;
};

}  // namespace micco
