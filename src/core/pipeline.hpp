// The MICCO execution pipeline (Fig. 6).
//
// Drives one workload stream through a scheduler and the simulated cluster:
// per vector, (1) extract data characteristics, (2) obtain reuse bounds from
// the bounds provider (regression model, fixed triple, or none for
// baselines), (3) assign tensor pairs one by one, executing each assignment
// immediately, then barrier. Scheduler wall-clock is metered separately so
// Table V's overhead split can be reproduced.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "faults/fault_plan.hpp"
#include "faults/retry.hpp"
#include "gpusim/cluster.hpp"
#include "mem/policy.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "sched/micco_scheduler.hpp"
#include "sched/scheduler.hpp"
#include "workload/characteristics.hpp"
#include "workload/task.hpp"

namespace micco {

/// Supplies reuse bounds for each incoming vector.
class BoundsProvider {
 public:
  virtual ~BoundsProvider() = default;
  virtual ReuseBounds bounds_for(const DataCharacteristics& c) = 0;
};

/// Always returns the same triple (MICCO-naive uses the zero triple; Fig. 8
/// sweeps fixed triples).
class FixedBounds final : public BoundsProvider {
 public:
  explicit FixedBounds(ReuseBounds bounds) : bounds_(bounds) {}
  ReuseBounds bounds_for(const DataCharacteristics&) override {
    return bounds_;
  }

 private:
  ReuseBounds bounds_;
};

struct RunResult {
  std::string scheduler_name;
  ExecutionMetrics metrics;
  /// Wall-clock spent inside scheduler + bounds-provider calls (Table V's
  /// "Scheduling Overhead"), milliseconds: the per-vector calls timed in
  /// full, plus the timed one-in-kDecisionClockStride sample of assign
  /// calls scaled up to all of them.
  double scheduling_overhead_ms = 0.0;
  /// Characteristics observed per vector (diagnostics, training data).
  std::vector<DataCharacteristics> per_vector_characteristics;

  // -- Per-device rollups captured before the simulator is torn down ------
  int num_devices = 0;
  /// Busy fraction of the makespan, per device; times metrics.makespan_s it
  /// is the device's busy seconds.
  std::vector<double> device_utilization;
  /// Bytes left resident per device when the stream finished — the modeled
  /// footprint the job would keep warm. The daemon reports its sum per
  /// tenant (mem.tenant.<t>.resident_bytes).
  std::vector<std::uint64_t> device_resident_bytes;

  // -- Fault tolerance ----------------------------------------------------
  /// Tasks re-enqueued after device losses: lineage re-executions of lost
  /// intermediates plus interrupted tasks retried on survivors.
  std::uint64_t tasks_reexecuted = 0;
  /// False when the stream could not finish (error below says why).
  bool completed = true;
  /// Structured, human-readable failure cause; empty on success. Replaces
  /// the aborts these conditions used to trigger.
  std::string error;

  /// True when every pair completed despite at least one device loss.
  bool recovered() const { return completed && metrics.devices_lost > 0; }
};

/// Order in which a vector's pairs are fed to the scheduler. The paper
/// processes pairs "one after another" in arrival order; the alternatives
/// are ablations on that design choice.
enum class PairOrdering {
  kAsGiven,         ///< arrival order (the paper's setting)
  kReuseTierFirst,  ///< pairs with resident operands first (greedy locality)
};

const char* to_string(PairOrdering ordering);

struct RunOptions {
  BoundsProvider* bounds = nullptr;  ///< per-vector reuse bounds (Fig. 6)
  PairOrdering ordering = PairOrdering::kAsGiven;
  /// Optional telemetry bundle: attached to both the scheduler (decision
  /// log, assignment counters) and the simulator (cluster events, the
  /// timeline's source) for the duration of the run; run_stream keeps its
  /// decision-log cursor.
  obs::Telemetry* telemetry = nullptr;
  /// Optional fault plan (not owned; must outlive the run). An empty or
  /// absent plan leaves every metric, report and log byte-identical to a
  /// run without the fault machinery.
  const FaultPlan* faults = nullptr;
  /// Retry/backoff policy for transient transfer faults (used only when a
  /// plan with transfer faults is attached).
  RetryPolicy retry;
  /// Optional request tracing (DESIGN.md §7): when a context with a sink is
  /// attached, the run emits per-vector "sched"/"exec" spans and "recovery"
  /// spans to trace_context->sink, parented at trace_context->parent_span
  /// and carrying only deterministic values (simulated time, counts) — a
  /// single-threaded session's trace file is byte-identical across runs.
  obs::TraceContext* trace_context = nullptr;
  /// Optional wall-clock per-decision latency meter for the scheduling hot
  /// path (bounds: names::decision_latency_bounds_us()). Owned by the
  /// caller, observed unsynchronised, flushed by the caller after the run.
  /// It receives the timed sample only, ceil(D / kDecisionClockStride)
  /// observations for a run of D decisions; attaching it adds no clock
  /// read. Detached (the batch default) runs stay byte-reproducible.
  obs::HistogramScratch* decision_latency = nullptr;
  /// Eviction policy (mem/). For kLru, the default, the simulator keeps its
  /// shared LruPolicy. Any other kind gets a fresh instance per run (its
  /// tracker state is per stream), which run_stream attaches to the
  /// simulator and feeds the per-vector future-use information
  /// (begin_vector with the visit order, observe_use per executed pair).
  mem::EvictPolicyKind evict_policy = mem::EvictPolicyKind::kLru;
};

/// run_stream times assign call k of a run (numbered from 0, re-executions
/// included) only when k % kDecisionClockStride == 0: the two clock reads
/// around a decision cost a sizeable fraction of the decision itself.
inline constexpr std::uint64_t kDecisionClockStride = 16;

/// Runs `stream` with `scheduler` on a fresh simulated cluster. When
/// `options.bounds` is non-null and the scheduler is a MiccoScheduler,
/// bounds are refreshed per vector from the provider (step 2 of Fig. 6).
/// Requires a stream that produces each output once
/// (validate_stream_structure, which every entry point runs first): only a
/// run with a fault plan checks for an output that is already resident.
RunResult run_stream(const WorkloadStream& stream, Scheduler& scheduler,
                     const ClusterConfig& cluster, const RunOptions& options);

/// Back-compat convenience: default options with an optional provider.
RunResult run_stream(const WorkloadStream& stream, Scheduler& scheduler,
                     const ClusterConfig& cluster,
                     BoundsProvider* bounds = nullptr);

/// Assembles the versioned run-report JSON (obs/report.hpp) from a finished
/// run and the telemetry gathered during it: ExecutionMetrics flattened,
/// per-device rollups, derived ratios and the registry snapshot.
obs::JsonValue make_run_report(const RunResult& result,
                               const obs::Telemetry& telemetry);

/// The run's per-vector characteristics as a JSON array of {vector_size,
/// tensor_extent, distribution_bias, repeated_rate} objects: a run report's
/// "vectors" and a daemon job result's "per_vector".
obs::JsonValue per_vector_json(const RunResult& result);

/// Sizes device capacity so the run is at the given memory oversubscription
/// rate: rate = (per-device share of the distinct-tensor footprint) /
/// capacity. rate 1.0 means the workload exactly fits; 2.0 means each
/// device can hold half its share (Fig. 11's 200%). The result is floored
/// at `min_capacity` so a single task's working set always fits (the floor
/// also wins for rates below 1.0 whenever the inflated share stays under
/// it). Degenerate inputs — no devices, an empty stream, a non-positive
/// rate — return `min_capacity` instead of dividing by zero.
std::uint64_t capacity_for_oversubscription(const WorkloadStream& stream,
                                            int num_devices, double rate,
                                            std::uint64_t min_capacity);

}  // namespace micco
