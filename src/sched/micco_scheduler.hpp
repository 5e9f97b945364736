// The MICCO heuristic scheduler (Section IV-B, Algorithms 1 and 2).
//
// Toggles among three policies per incoming tensor pair:
//   * data-centric      — restrict candidates to devices already holding the
//                         pair's tensors (tiered by local reuse pattern,
//                         gated by the per-tier reuse bounds);
//   * computation-centric — among candidates, pick the least-loaded device;
//   * memory-eviction-sensitive — if any candidate would oversubscribe,
//                         pick the device with the most free memory instead.
//
// One decision kernel implements the tier walk and Alg. 2 selection
// (DESIGN.md §9): each operand's residency record looked up once in the
// cluster's delta-maintained ClusterIndex, a flat per-device count array,
// an ascending scan of the alive devices, and a fused key-gather argmin
// that reads busy time and memory from the simulator's inline accessors.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "gpusim/cluster_index.hpp"
#include "sched/reuse_bounds.hpp"
#include "sched/scheduler.hpp"

namespace micco {

/// Distinct-tensor counter per device for one vector (the paper's
/// mapGPUTensor.at(dev).size(), the quantity the reuse-bound availability
/// test compares against balanceNum + bound).
///
/// Open-addressing tables with generation-stamped slots: begin_vector bumps
/// every device's generation (an O(devices) reset instead of freeing every
/// node of an unordered_set), a device failure bumps only the casualty's.
/// A slot whose stamp differs from the table's current generation is free.
/// The per-device counts live in one flat array beside the tables, so the
/// tier scans read them without touching a table.
class DistinctTensorCounts {
 public:
  /// Starts a fresh vector over `num_devices` tables (capacity retained).
  void reset(std::size_t num_devices);

  /// Voids one device's counts mid-vector (device-failure degradation).
  void clear_device(DeviceId dev);

  /// Records `id` against `dev`; false when it was already counted.
  bool insert(DeviceId dev, TensorId id);

  /// Un-records `id` (which must be counted) against `dev`. Backward-shift
  /// deletion keeps every other key of the table findable.
  void erase(DeviceId dev, TensorId id);

  std::int64_t count(DeviceId dev) const;

  /// Every device's count, indexed by device id (size() entries).
  const std::int64_t* data() const { return live_.data(); }

  std::size_t size() const { return tables_.size(); }

 private:
  struct Table {
    std::vector<TensorId> keys;
    std::vector<std::uint64_t> gens;  ///< slot live iff gens[s] == gen
    std::uint64_t gen = 0;            ///< 0 never marks a live slot
  };

  void grow(Table& table);

  std::vector<Table> tables_;
  /// Live keys per table (the distinct-tensor counts), parallel to tables_.
  std::vector<std::int64_t> live_;
};

struct MiccoSchedulerOptions {
  /// Initial reuse bounds; the driver typically overrides them per vector
  /// with the regression model's prediction (MICCO-optimal) or leaves the
  /// zero triple in place (MICCO-naive).
  ReuseBounds bounds = ReuseBounds::naive();

  /// Disables the memory-eviction-sensitive policy (ablation for Fig. 11).
  bool eviction_sensitive = true;

  /// Tie-break RNG seed (Alg. 2 breaks exact ties randomly).
  std::uint64_t seed = 7;

  /// Records bound_interval(), the box of triples under which every
  /// decision would have come out the same, for the region of triples the
  /// caller will ask it about (an unbounded BoundInterval{} asks about all
  /// of them). Unset, nothing is recorded. Only the offline tuner sweep and
  /// the brute-force interval tests set it; batch and daemon runs keep the
  /// unrecorded kernel.
  std::optional<BoundInterval> record_bound_interval;
};

class MiccoScheduler final : public Scheduler {
 public:
  explicit MiccoScheduler(MiccoSchedulerOptions options = {});

  std::string name() const override;
  void begin_vector(const VectorWorkload& vec,
                    const ClusterSimulator& view) override;
  DeviceId assign(const ContractionTask& task,
                  const ClusterSimulator& view) override;
  void set_telemetry(obs::Telemetry* telemetry) override;

  /// Degradation path: drops the casualty's per-vector accounting and
  /// recomputes balanceNum over the surviving devices, so the remainder of
  /// the vector rebalances instead of honouring a stale per-device share.
  void on_device_failure(DeviceId dev, const ClusterSimulator& view) override;

  /// Installs the reuse bounds used from the next assignment on; the online
  /// pipeline calls this right after the regression model's inference (step
  /// 2 of Fig. 6).
  void set_reuse_bounds(ReuseBounds bounds);
  ReuseBounds reuse_bounds() const { return bounds_; }

  /// With record_bound_interval set: a box of triples inside which a run
  /// of this scheduler with that fixed triple would repeat every decision
  /// made since construction (same devices, hence identical
  /// ExecutionMetrics; DESIGN.md §5d). The box always contains the triple
  /// in force. It is the point [b, b] when the run cannot vouch for any
  /// other triple of the region: the bounds changed after the first
  /// decision, or the recorded box held b alone inside the region. Recording
  /// stops at that point, since the box only shrinks.
  BoundInterval bound_interval() const;

  /// Undoes the assign() just made, which must have recorded: its tie-break
  /// draw, its interval narrowing and its count inserts. The scheduler then
  /// stands as it did before that call; the cluster is not touched. The
  /// offline sweep rewinds a copy to checkpoint a run (DESIGN.md §5d).
  void rewind_last_assign();

  /// Re-targets a recording scheduler to `bounds`, which its box must hold:
  /// the box is kept and recording stays on, so the scheduler goes on as
  /// one constructed with `bounds` would have from the same decisions
  /// (DESIGN.md §5d). set_reuse_bounds instead stops recording once a
  /// decision was made.
  void rebind_bounds(ReuseBounds bounds);

  /// Distinct input tensors assigned to `dev` within the current vector
  /// (the paper's mapGPUTensor.at(dev).size()); exposed for tests.
  std::int64_t assigned_count(DeviceId dev) const;

  std::int64_t balance_num() const { return balance_num_; }

 private:
  /// The whole decision: Alg. 1's tier walk over the index with Alg. 2's
  /// oversubscription test folded into each admitted candidate, then one
  /// fused key-gather argmin. Each operand's residency record is looked up
  /// once; fills candidates_ and reports the admitting tier (-1 with
  /// fallback when every tier ran dry).
  DeviceId decide(const ContractionTask& task, const ClusterSimulator& view,
                  int& tier, bool& fallback);

  /// Bound-interval recording: narrows interval_ to the triples under which
  /// decide() would have made the decision it just made (`chosen`, from
  /// `tier` or the fallback) the same way (DESIGN.md §5d), and stops
  /// recording once the box holds bounds_ alone inside the region.
  void narrow_interval(const ContractionTask& task,
                       const ClusterSimulator& view, int tier, bool fallback,
                       DeviceId chosen);

  /// Alg. 2's argmin over the candidates' keys (`keys(dev)` returns
  /// {primary, secondary}): collects exact ties and applies the random
  /// tie-break.
  template <typename KeyFn>
  DeviceId pick_best(const std::vector<DeviceId>& candidates, KeyFn keys);

  MiccoSchedulerOptions options_;
  ReuseBounds bounds_;
  Pcg32 rng_;

  /// Whether the last decision ran the memory-eviction-sensitive policy
  /// (surfaced into the decision log).
  bool last_evict_risk_ = false;
  /// Bound-slack utilization histogram (resolved at set_telemetry).
  obs::Histogram* slack_hist_ = nullptr;

  std::int64_t balance_num_ = 1;
  /// Distinct inputs of the current vector (balanceNum numerator), kept so
  /// on_device_failure can recompute the share over the survivors.
  std::int64_t vector_unique_inputs_ = 0;
  /// Per-device distinct input tensors assigned in the current vector.
  DistinctTensorCounts counts_;
  /// Scratch for begin_vector's distinct-input count (single-table reuse of
  /// the same flat-set machinery; replaces an unordered_set built per call).
  DistinctTensorCounts unique_scratch_;

  // -- Per-decision scratch (reused, never reallocated in steady state) ---
  /// Candidate queue of the decision in flight.
  std::vector<DeviceId> candidates_;
  /// Tie set of pick_best.
  std::vector<DeviceId> best_;

  // -- Bound-interval recording (options_.record_bound_interval) ----------
  BoundInterval interval_;
  /// False when nothing is recorded, and once the box vouches for no triple
  /// of the region but bounds_ (bound_interval() is then the point).
  bool recording_ = false;
  bool decided_ = false;

  /// What the last recording assign() changed, for rewind_last_assign():
  /// the state its decision and narrowing started from, and the operands it
  /// newly counted against `device` (kNoDevice once nothing is rewindable).
  struct Rewind {
    Pcg32 rng;
    BoundInterval interval;
    bool decided = false;
    DeviceId device = kNoDevice;
    std::array<TensorId, 2> counted{};
    std::size_t num_counted = 0;
  };
  Rewind rewind_;
};

}  // namespace micco
