#include "sched/baselines.hpp"

#include <limits>

#include "common/assert.hpp"
#include "gpusim/cost_model.hpp"

namespace micco {

// Baselines with no candidate filtering log every *alive* device as the
// candidate set (failed devices never receive work); the shared
// alive_candidates() scratch keeps those logs allocation-free per decision.

// ---------------------------------------------------------------- Groute --

void GrouteScheduler::begin_vector(const VectorWorkload&,
                                   const ClusterSimulator&) {}

DeviceId GrouteScheduler::assign(const ContractionTask& task,
                                 const ClusterSimulator& view) {
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

// ---------------------------------------------------------------- dmda ---

void DmdaScheduler::begin_vector(const VectorWorkload&,
                                 const ClusterSimulator&) {}

DeviceId DmdaScheduler::assign(const ContractionTask& task,
                               const ClusterSimulator& view) {
  DeviceId best = kNoDevice;
  double best_finish = std::numeric_limits<double>::infinity();
  for (DeviceId dev = 0; dev < view.num_devices(); ++dev) {
    if (!view.device_alive(dev)) continue;
    double transfer = 0.0;
    // Absent operands would stream from the host; resident ones are free.
    for (const TensorDesc* operand : {&task.a, &task.b}) {
      if (operand == &task.b && task.a.id == task.b.id) break;
      if (!view.resident_on(dev, operand->id)) {
        transfer += kAllocLatencyS + h2d_time(operand->bytes());
      }
    }
    transfer += kAllocLatencyS;  // output frame
    const double finish = view.busy_time(dev) + transfer + kernel_time(task);
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

}  // namespace micco
