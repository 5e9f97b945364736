#include "sched/baselines.hpp"

#include <algorithm>
#include <limits>

#include "common/assert.hpp"

namespace micco {

// Baselines with no candidate filtering log every *alive* device as the
// candidate set (failed devices never receive work); the shared
// alive_candidates()/single_candidate() scratch keeps those logs
// allocation-free per decision.

// ---------------------------------------------------------------- Groute --

void GrouteScheduler::begin_vector(const VectorWorkload&, const ClusterView&) {
}

DeviceId GrouteScheduler::assign(const ContractionTask& task,
                                 const ClusterView& view) {
  DeviceId best = kNoDevice;
  double best_time = std::numeric_limits<double>::infinity();
  for (DeviceId dev = 0; dev < view.num_devices(); ++dev) {
    if (!view.device_alive(dev)) continue;
    const double t = view.busy_time(dev);
    if (t < best_time) {
      best_time = t;
      best = dev;
    }
  }
  MICCO_EXPECTS_MSG(best != kNoDevice, "no alive device to assign to");
  if (telemetry_ != nullptr) {
    record_decision(task, view, alive_candidates(view), best);
  }
  return best;
}

// ------------------------------------------------------------ RoundRobin --

void RoundRobinScheduler::begin_vector(const VectorWorkload&,
                                       const ClusterView&) {}

DeviceId RoundRobinScheduler::assign(const ContractionTask& task,
                                     const ClusterView& view) {
  const int n = view.num_devices();
  // Skip over failed devices; the cycle continues over the survivors.
  DeviceId dev = next_;
  for (int hops = 0; hops < n && !view.device_alive(dev); ++hops) {
    dev = (dev + 1) % n;
  }
  MICCO_EXPECTS_MSG(view.device_alive(dev), "no alive device to assign to");
  next_ = (dev + 1) % n;
  if (telemetry_ != nullptr) {
    record_decision(task, view, single_candidate(dev), dev);
  }
  return dev;
}

// --------------------------------------------------------- DataReuseOnly --

void DataReuseOnlyScheduler::begin_vector(const VectorWorkload&,
                                          const ClusterView&) {}

DeviceId DataReuseOnlyScheduler::assign(const ContractionTask& task,
                                        const ClusterView& view) {
  const std::span<const DeviceId> holders_a = view.devices_holding(task.a.id);
  const std::span<const DeviceId> holders_b = view.devices_holding(task.b.id);

  const auto chose = [&](DeviceId dev) {
    last_ = dev;
    if (telemetry_ != nullptr) {
      record_decision(task, view, single_candidate(dev), dev);
    }
    return dev;
  };

  // Prefer a device with both operands, then one with either.
  for (const DeviceId dev : holders_a) {
    if (std::find(holders_b.begin(), holders_b.end(), dev) !=
        holders_b.end()) {
      return chose(dev);
    }
  }
  if (!holders_a.empty()) return chose(holders_a.front());
  if (!holders_b.empty()) return chose(holders_b.front());
  // All-new pair: stick with the previous device so future repeats of these
  // tensors keep hitting one memory (maximal reuse, no balance). If that
  // device died, roll forward to the next survivor.
  const int n = view.num_devices();
  for (int hops = 0; hops < n && !view.device_alive(last_); ++hops) {
    last_ = (last_ + 1) % n;
  }
  MICCO_EXPECTS_MSG(view.device_alive(last_), "no alive device to assign to");
  return chose(last_);
}

// ---------------------------------------------------------------- dmda ---

void DmdaScheduler::begin_vector(const VectorWorkload&, const ClusterView&) {}

DeviceId DmdaScheduler::assign(const ContractionTask& task,
                               const ClusterView& view) {
  DeviceId best = kNoDevice;
  double best_finish = std::numeric_limits<double>::infinity();
  for (DeviceId dev = 0; dev < view.num_devices(); ++dev) {
    if (!view.device_alive(dev)) continue;
    double transfer = 0.0;
    // Absent operands would stream from the host; resident ones are free.
    for (const TensorDesc* operand : {&task.a, &task.b}) {
      if (operand == &task.b && task.a.id == task.b.id) break;
      if (!view.resident_on(dev, operand->id)) {
        transfer += cost_.alloc_time() + cost_.h2d_time(operand->bytes());
      }
    }
    transfer += cost_.alloc_time();  // output frame
    const double finish =
        view.busy_time(dev) + transfer + cost_.kernel_time(task);
    if (finish < best_finish) {
      best_finish = finish;
      best = dev;
    }
  }
  MICCO_EXPECTS_MSG(best != kNoDevice, "no alive device to assign to");
  if (telemetry_ != nullptr) {
    record_decision(task, view, alive_candidates(view), best);
  }
  return best;
}

// ------------------------------------------------------- LoadBalanceOnly --

void LoadBalanceOnlyScheduler::begin_vector(const VectorWorkload&,
                                            const ClusterView& view) {
  pair_counts_.assign(static_cast<std::size_t>(view.num_devices()), 0);
}

DeviceId LoadBalanceOnlyScheduler::assign(const ContractionTask& task,
                                          const ClusterView& view) {
  MICCO_EXPECTS(!pair_counts_.empty());
  DeviceId best = kNoDevice;
  std::int64_t best_count = std::numeric_limits<std::int64_t>::max();
  for (DeviceId dev = 0; dev < view.num_devices(); ++dev) {
    if (!view.device_alive(dev)) continue;
    const std::int64_t c = pair_counts_[static_cast<std::size_t>(dev)];
    if (c < best_count) {
      best_count = c;
      best = dev;
    }
  }
  MICCO_EXPECTS_MSG(best != kNoDevice, "no alive device to assign to");
  ++pair_counts_[static_cast<std::size_t>(best)];
  if (telemetry_ != nullptr) {
    record_decision(task, view, alive_candidates(view), best);
  }
  return best;
}

}  // namespace micco
