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
// Two equivalent hot paths implement the tier walk and Alg. 2 selection
// (DESIGN.md §9): the incremental path is one decision kernel over the
// cluster's delta-maintained ClusterIndex (each operand's residency record
// looked up once, flat count/busy/memory arrays, an alive-mask word scan and
// a fused key-gather argmin), the reference path recomputes everything from
// ClusterView queries. Both enumerate candidates in the same order, compare
// the same doubles and draw the same tie-break randomness, so decision logs
// are byte-identical; sched_incremental() picks the path at run time (the
// --sched-incremental=off escape hatch, kept for one release).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "gpusim/cluster_index.hpp"
#include "sched/reuse_bounds.hpp"
#include "sched/reuse_pattern.hpp"
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
/// tier scans read them without touching a table. Both scheduler paths
/// share this accounting — only the per-device counts are observable, so
/// the container swap cannot perturb decisions.
class DistinctTensorCounts {
 public:
  /// Starts a fresh vector over `num_devices` tables (capacity retained).
  void reset(std::size_t num_devices);

  /// Voids one device's counts mid-vector (device-failure degradation).
  void clear_device(DeviceId dev);

  /// Records `id` against `dev`; false when it was already counted.
  bool insert(DeviceId dev, TensorId id);

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
};

class MiccoScheduler final : public Scheduler {
 public:
  explicit MiccoScheduler(MiccoSchedulerOptions options = {});

  std::string name() const override;
  void begin_vector(const VectorWorkload& vec,
                    const ClusterView& view) override;
  DeviceId assign(const ContractionTask& task,
                  const ClusterView& view) override;
  void set_telemetry(obs::Telemetry* telemetry) override;

  /// Degradation path: drops the casualty's per-vector accounting and
  /// recomputes balanceNum over the surviving devices, so the remainder of
  /// the vector rebalances instead of honouring a stale per-device share.
  void on_device_failure(DeviceId dev, const ClusterView& view) override;

  /// Installs the reuse bounds used from the next assignment on; the online
  /// pipeline calls this right after the regression model's inference (step
  /// 2 of Fig. 6).
  void set_reuse_bounds(ReuseBounds bounds) { bounds_ = bounds; }
  ReuseBounds reuse_bounds() const { return bounds_; }

  /// Distinct input tensors assigned to `dev` within the current vector
  /// (the paper's mapGPUTensor.at(dev).size()); exposed for tests.
  std::int64_t assigned_count(DeviceId dev) const;

  std::int64_t balance_num() const { return balance_num_; }

 private:
  /// Device passes the availability test for tier `bound_index`.
  bool available(DeviceId dev, std::size_t bound_index) const;

  /// The incremental path's whole decision: Alg. 1's tier walk over the
  /// index with Alg. 2's oversubscription test folded into each admitted
  /// candidate, then one fused key-gather argmin. Each operand's residency
  /// record is looked up once; fills candidates_ and reports the admitting
  /// tier (-1 with fallback when every tier ran dry) exactly as the
  /// reference path does.
  DeviceId decide(const ContractionTask& task, const ClusterIndex& index,
                  int& tier, bool& fallback);

  /// Reference path, Alg. 1's tier walk from ClusterView queries: fills
  /// candidates_ in the order decide() admits them.
  void gather_candidates(const ContractionTask& task, const ClusterView& view,
                         int& tier, bool& fallback);

  /// Reference path, Alg. 2: selects from the candidate queue, switching
  /// between the computation-centric and memory-eviction-sensitive
  /// policies. Gathers the primary/secondary keys into the SoA scratch
  /// arrays, then runs pick_best over them.
  DeviceId select_from_candidates(const std::vector<DeviceId>& candidates,
                                  const ContractionTask& task,
                                  const ClusterView& view);

  /// Shared argmin tail of both paths: scans the candidates' keys
  /// (`keys(i, dev)` returns {primary, secondary} for candidate i),
  /// collects exact ties and applies the random tie-break.
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
  /// Reference path only: membership bitmask over device ids backing
  /// push_unique (one word for the common numGPU <= 64 case, more for
  /// larger clusters). The index path admits no duplicates by construction.
  std::vector<std::uint64_t> candidate_mask_;
  /// Reference path only: SoA selection keys, parallel to candidates_.
  std::vector<double> cand_primary_;
  std::vector<double> cand_secondary_;
  /// Tie set of pick_best.
  std::vector<DeviceId> best_;

  /// Appends dev to candidates_ unless already present: O(1) via the
  /// membership bitmask (the old linear scan made candidate enumeration
  /// quadratic in the holder count).
  void push_unique(DeviceId dev);
};

}  // namespace micco
