// Scheduler interface.
//
// Scheduling is online: the driver announces each incoming vector, then asks
// for a device assignment pair by pair, executing each assignment on the
// simulator (or real backend) before requesting the next. Schedulers
// therefore always see residency state that reflects every earlier decision,
// including evictions — exactly the dynamic setting the paper targets
// ("(partial) contraction graphs are generated dynamically"). Every call
// passes the simulator itself as `view`, read-only: schedulers read
// residency from its index and busy time, memory and liveness through its
// inline accessors.
#pragma once

#include <memory>
#include <string>

#include "gpusim/cluster.hpp"
#include "obs/telemetry.hpp"
#include "workload/task.hpp"

namespace micco {

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Human-readable name for bench tables ("Groute", "MICCO-optimal", ...).
  virtual std::string name() const = 0;

  /// Announces the next vector before its pairs are assigned. Schedulers
  /// reset their per-vector accounting (balanceNum, assigned-tensor maps).
  virtual void begin_vector(const VectorWorkload& vec,
                            const ClusterSimulator& view) = 0;

  /// Picks the device for one tensor pair. Called once per task, in order.
  virtual DeviceId assign(const ContractionTask& task,
                          const ClusterSimulator& view) = 0;

  /// Announces that the vector's tasks all executed (barrier follows).
  virtual void end_vector() {}

  /// Announces a permanent device failure detected by the execution layer.
  /// `view` already reflects the loss (the device reads dead, its residency
  /// is gone). Schedulers drop per-device accounting for the casualty and
  /// rebalance over the survivors; every assign() from here on must return
  /// an alive device.
  virtual void on_device_failure(DeviceId dev, const ClusterSimulator& view) {
    (void)dev;
    (void)view;
  }

  /// Attaches the telemetry bundle (nullptr detaches). Implementations log
  /// one DecisionEvent per assign() and bump registry counters; unattached
  /// schedulers pay one pointer test per assignment. Overrides must call the
  /// base to keep the shared instruments resolved.
  virtual void set_telemetry(obs::Telemetry* telemetry);

 protected:
  /// Logs one decision to the attached telemetry: classifies the pair,
  /// classifies the chosen mapping, bumps the shared counters and — when a
  /// sink is attached — emits the DecisionEvent. The tier/bound/fallback
  /// fields are the MICCO-specific extras; baselines keep the defaults.
  /// No-op when telemetry is detached.
  void record_decision(const ContractionTask& task,
                       const ClusterSimulator& view,
                       const std::vector<DeviceId>& candidates,
                       DeviceId chosen, int bound_tier = -1,
                       std::int64_t bound_value = -1,
                       std::int64_t balance_num = -1, bool fallback = false,
                       bool evict_risk = false);

  /// Reusable candidate buffer for record_decision call sites, so baselines
  /// that log "every alive device" as their candidate set do not allocate
  /// per decision. The reference is valid until the next call on the same
  /// scheduler.
  const std::vector<DeviceId>& alive_candidates(const ClusterSimulator& view);

  obs::Telemetry* telemetry_ = nullptr;

 private:
  /// Registry instruments resolved once at attach time so record_decision
  /// never does a name lookup on the hot path.
  struct DecisionInstruments {
    obs::Counter* pattern[4] = {};
    obs::Counter* mapping[4] = {};
    obs::Counter* tier[3] = {};
    obs::Counter* fallback = nullptr;
    obs::Counter* evict_risk = nullptr;
  };
  DecisionInstruments instruments_;
  std::vector<DeviceId> candidate_scratch_;
};

}  // namespace micco
