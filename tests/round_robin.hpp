// A timing-independent scheduler for the property suites: pairs go to the
// alive devices in turn, blind to load and residency, so one stream gets
// the same assignment whatever the cluster prices. The P2P, overlap and
// node-split properties compare two cluster configurations under that one
// assignment, and the scheduler sweeps use it as a fourth policy.
#pragma once

#include <string>

#include "common/assert.hpp"
#include "sched/scheduler.hpp"

namespace micco::test {

class RoundRobinScheduler final : public Scheduler {
 public:
  std::string name() const override { return "RoundRobin"; }
  void begin_vector(const VectorWorkload&, const ClusterSimulator&) override {}

  DeviceId assign(const ContractionTask& task,
                  const ClusterSimulator& view) override {
    const int n = view.num_devices();
    // Skip over failed devices; the cycle continues over the survivors.
    DeviceId dev = next_;
    for (int hops = 0; hops < n && !view.device_alive(dev); ++hops) {
      dev = (dev + 1) % n;
    }
    MICCO_EXPECTS_MSG(view.device_alive(dev), "no alive device to assign to");
    next_ = (dev + 1) % n;
    record_decision(task, view, {dev}, dev);
    return dev;
  }

 private:
  DeviceId next_ = 0;
};

}  // namespace micco::test
