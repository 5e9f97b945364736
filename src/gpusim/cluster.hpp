// Simulated multi-GPU cluster.
//
// The cluster is the execution substrate substituting for the paper's 8x
// MI100 node (see DESIGN.md). It owns per-device memory managers and
// timelines, executes scheduler-assigned contraction tasks by pricing each
// induced event (allocation, H2D/P2P fetch, eviction write-back, kernel),
// and exposes the read-only ClusterView the schedulers consult: residency,
// memory headroom and accumulated device busy time.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "faults/injector.hpp"
#include "gpusim/cluster_index.hpp"
#include "gpusim/memory.hpp"
#include "obs/telemetry.hpp"
#include "workload/characteristics.hpp"
#include "workload/task.hpp"

namespace micco {

namespace mem {
class EvictionPolicy;  // mem/policy.hpp; replaced via set_eviction_policy()
}

/// Read-only cluster state offered to schedulers. Doubles as the residency
/// oracle for data-characteristics extraction.
class ClusterView : public ResidencyOracle {
 public:
  /// Size of the device *id space* (stable across failures: a dead device
  /// keeps its id so residency maps and rollups stay indexable).
  virtual int num_devices() const = 0;

  /// Devices currently holding the tensor (unordered, possibly empty). The
  /// returned span aliases the residency index — valid only until the next
  /// mutation of cluster state (execute, barrier, failure);
  /// schedulers read it within one decision and never hold it across calls.
  /// Returning a view keeps the decision hot path allocation-free (a miss
  /// returns an empty span, not a fresh container).
  virtual std::span<const DeviceId> devices_holding(TensorId id) const = 0;

  virtual bool resident_on(DeviceId dev, TensorId id) const = 0;

  /// Accumulated busy time of the device's timeline, in seconds. "Earliest
  /// available device" baselines key off this.
  virtual double busy_time(DeviceId dev) const = 0;

  // -- Device health (fault tolerance) ----------------------------------
  /// False once a permanent failure of the device has been detected.
  /// Schedulers must never assign work to a dead device. Defaults keep
  /// fault-oblivious views (tests, oracles) valid.
  virtual bool device_alive(DeviceId) const { return true; }

  /// Devices still accepting work; the degradation path recomputes
  /// balanceNum over this count instead of num_devices().
  virtual int num_alive_devices() const { return num_devices(); }

  /// The delta-maintained cluster-state index (DESIGN.md §9): residency,
  /// load and headroom as flat arrays. Scheduler decisions and pair
  /// classification read it instead of the per-query accessors above.
  virtual const ClusterIndex& cluster_index() const = 0;
};

/// Aggregated execution metrics for one simulated run.
struct ExecutionMetrics {
  double makespan_s = 0.0;
  std::uint64_t total_flops = 0;

  std::uint64_t h2d_transfers = 0;
  std::uint64_t h2d_bytes = 0;
  std::uint64_t p2p_transfers = 0;
  std::uint64_t p2p_bytes = 0;
  std::uint64_t internode_transfers = 0;
  std::uint64_t internode_bytes = 0;
  std::uint64_t writeback_bytes = 0;

  std::uint64_t allocations = 0;
  std::uint64_t evictions = 0;
  std::uint64_t dirty_evictions = 0;

  // -- Eviction-policy accounting (mem/) -----------------------------------
  /// Metric-safe name of the eviction policy that picked the victims.
  std::string evict_policy = "lru";
  /// Bytes re-fetched for tensors this run had previously evicted from the
  /// fetching device — the "came back after we threw it out" half of the
  /// eviction-caused transfer bill (write-backs are the other half).
  std::uint64_t eviction_refetch_bytes = 0;

  /// Reused operand slots: an operand that was already resident on the
  /// executing device (no fetch needed).
  std::uint64_t reused_operands = 0;
  std::uint64_t fetched_operands = 0;

  /// Total device-seconds lost at vector barriers (load imbalance).
  double barrier_idle_s = 0.0;

  double kernel_time_s = 0.0;
  double transfer_time_s = 0.0;

  // -- Fault/recovery accounting (all zero on fault-free runs) -----------
  std::uint64_t transfer_faults = 0;  ///< failed transient transfer attempts
  double retry_backoff_s = 0.0;       ///< simulated time spent backing off
  std::uint64_t devices_lost = 0;     ///< permanent device failures detected
  std::uint64_t tasks_lost = 0;       ///< task attempts lost to a mid-task loss
  std::uint64_t capacity_faults = 0;  ///< spurious capacity losses applied

  /// True when any fault fired during the run.
  bool any_faults() const {
    return transfer_faults > 0 || devices_lost > 0 || tasks_lost > 0 ||
           capacity_faults > 0;
  }

  /// Simulated throughput over the whole run.
  double gflops() const {
    return makespan_s > 0.0
               ? static_cast<double>(total_flops) / makespan_s / 1.0e9
               : 0.0;
  }

  /// Operand reuse rate: resident hits over all operand lookups.
  double reuse_rate() const {
    const std::uint64_t lookups = reused_operands + fetched_operands;
    return lookups > 0
               ? static_cast<double>(reused_operands) /
                     static_cast<double>(lookups)
               : 0.0;
  }
};

/// Flat JSON object of every ExecutionMetrics field (run-report "metrics").
/// Fault counters are emitted only when non-zero so fault-free runs stay
/// byte-identical to pre-fault-model reports.
obs::JsonValue to_json(const ExecutionMetrics& metrics);

/// How one execute() call ended.
enum class TaskOutcome : std::uint8_t {
  kCompleted,
  /// The device suffered (or had already suffered) a permanent failure;
  /// the task did not complete and must be re-assigned to a survivor.
  kDeviceFailed,
  /// The task's working set cannot fit on the device even after evicting
  /// everything unpinned — a structured, recoverable error (the run reports
  /// it instead of aborting).
  kCapacityExceeded,
};

const char* to_string(TaskOutcome outcome);

struct ExecuteResult {
  TaskOutcome outcome = TaskOutcome::kCompleted;
  /// Transient transfer faults retried (successfully) during this task.
  int transfer_retries = 0;
  /// Produced tensors whose only copy died with the device (no host copy,
  /// no surviving replica); the recovery layer re-executes their producers.
  std::vector<TensorId> lost_tensors;

  bool ok() const { return outcome == TaskOutcome::kCompleted; }
};

/// Devices declared dead at a stage barrier plus the tensors lost with them
/// (drained by the pipeline's recovery loop).
struct BarrierFailures {
  std::vector<DeviceId> devices;
  std::vector<TensorId> lost_tensors;
  bool empty() const { return devices.empty(); }
};

struct ClusterConfig {
  int num_devices = 8;
  std::uint64_t device_capacity_bytes = 32ULL << 30;  ///< MI100: 32 GiB
  /// Peer-to-peer fetches of replicas. The evaluated system stages hadron
  /// tensors through host memory, so this is off by default and exposed as
  /// an extension/ablation (bench flag --p2p).
  bool p2p_enabled = false;
  /// When true, fetches overlap with kernel execution via a separate copy
  /// engine per device (the paper's future-work "asynchronous data copy";
  /// off by default to match the evaluated system).
  bool overlap_transfers = false;
  /// Multi-node extension (the paper's future work): devices are grouped
  /// into nodes of this size; peer fetches across nodes use the slower
  /// inter-node link. 0 means a single node holds every device.
  int devices_per_node = 0;

  /// Empty string when ClusterSimulator accepts the config, else a
  /// complaint (CLI flags and daemon configs are checked with it).
  std::string validate() const;
};

class ClusterSimulator final : public ClusterView {
 public:
  explicit ClusterSimulator(ClusterConfig config);

  /// Returns the simulator to the state its constructor leaves: every device
  /// alive at the configured capacity with no residents, zero timelines and
  /// metrics, an empty ClusterIndex, the shared LruPolicy, no telemetry, no
  /// fault injector and no pending barrier failures. The device memory
  /// tables and the index keep their allocations, so runs on one reset
  /// simulator do not grow them again (DESIGN.md §5d).
  void reset();

  // -- ClusterView -----------------------------------------------------
  int num_devices() const override;
  std::span<const DeviceId> devices_holding(TensorId id) const override;
  bool resident_on(DeviceId dev, TensorId id) const override;
  double busy_time(DeviceId dev) const override;
  bool resident_anywhere(TensorId id) const override;
  bool device_alive(DeviceId dev) const override;
  int num_alive_devices() const override;
  const ClusterIndex& cluster_index() const override { return index_; }

  std::uint64_t memory_used(DeviceId dev) const;
  std::uint64_t memory_capacity(DeviceId dev) const;

  // -- Execution --------------------------------------------------------
  /// Executes one contraction on the given device: fetches absent operands
  /// (P2P when available and enabled, otherwise H2D), allocates the output,
  /// evicts the eviction policy's victims on capacity pressure and advances
  /// the device timeline. With a fault injector attached, transient transfer
  /// faults are retried under the configured policy and planned device
  /// failures fire here (fail-on-next-use detection). Returns how the
  /// attempt ended; anything but kCompleted leaves the device timeline
  /// frozen at the failure instant and the task un-executed.
  ExecuteResult execute(const ContractionTask& task, DeviceId dev);

  /// Stage barrier: devices synchronise to the slowest timeline; the idle
  /// gap is recorded as load imbalance. With a fault injector attached this
  /// also proactively declares devices whose planned failure time has passed
  /// dead (even if no task touched them) — drain take_barrier_failures()
  /// afterwards.
  void barrier();

  // -- Fault tolerance ---------------------------------------------------
  /// Attaches a fault injector (nullptr detaches; not owned; must outlive
  /// all execute()/barrier() calls). Without one, the simulator behaves
  /// exactly as before the fault model existed.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  /// Declares a device permanently failed at simulated time `at_s`: its
  /// timelines freeze, every resident tensor is dropped, and the ids of
  /// produced tensors whose only copy just vanished (no host copy, no
  /// surviving replica) are returned, sorted, for lineage recovery. Public
  /// so tests and the recovery layer can inject losses directly. No-op
  /// (returning empty) if the device is already dead.
  std::vector<TensorId> fail_device(DeviceId dev, double at_s);

  /// Devices declared dead by the last barrier() sweep; clears the record.
  BarrierFailures take_barrier_failures();

  const ExecutionMetrics& metrics() const { return metrics_; }

  /// Attaches the telemetry bundle (nullptr detaches): every priced event
  /// (fetch, output allocation, eviction, kernel, barrier gap, fault) flows
  /// to its sink as one obs::ClusterEvent, built only when a sink is
  /// attached; fetch/eviction/barrier distributions go into its registry.
  /// Attach before the first execute(); the simulator does not own it.
  /// Totals (evictions, write-back bytes, ...) stay in metrics() only.
  void set_telemetry(obs::Telemetry* telemetry);

  /// Replaces the eviction policy (mem/; not owned, must outlive all
  /// execute() calls). Every simulator starts with one shared, stateless
  /// LruPolicy, which nullptr restores. Every eviction victim is the
  /// policy's pick and counts into metrics().evictions and
  /// metrics().writeback_bytes; with telemetry attached, victim reuse
  /// distances feed the mem.reuse_distance histogram (future-use-aware
  /// policies only). Re-fetches of previously evicted tensors accrue into
  /// metrics().eviction_refetch_bytes. The policy
  /// pointer is shared by simulator copies (the oracle's candidate clones),
  /// which is safe because pick_victim() is const — see mem/policy.hpp's
  /// determinism rules.
  void set_eviction_policy(const mem::EvictionPolicy* policy);
  const mem::EvictionPolicy* eviction_policy() const { return evict_policy_; }

  /// Resizes a device to `new_capacity`, evicting (under the attached
  /// policy, cause kCapacityLoss) until usage fits again. Growth — a healed
  /// capacity fault restoring memory — is legal with live residents and
  /// evicts nothing. Returns the eviction cost charged, or nullopt when the
  /// shrink is unsatisfiable (everything left is pinned). Used by the
  /// capacity-fault path and directly by tests.
  std::optional<double> shrink_to_capacity(DeviceId dev,
                                           std::uint64_t new_capacity);

  /// Node index of a device under the configured topology.
  int node_of(DeviceId dev) const;

  /// Read-only view of one device's memory book-keeping (LRU order, pins,
  /// residency) — what pick_victim() sees. Tests drive policies against it.
  const DeviceMemory& device_memory(DeviceId dev) const;

  /// True when a host copy of the tensor exists: original inputs always
  /// (Redstar stages them in host memory), produced intermediates only
  /// after an eviction migrated them back. Fetching a produced tensor with
  /// neither a device replica nor a host copy is a lost-intermediate bug
  /// and aborts.
  bool host_resident(TensorId id) const;

  /// Fraction of each device's pre-barrier busy time over the makespan so
  /// far; used by scalability diagnostics and tests.
  std::vector<double> utilization() const;

 private:
  struct DeviceState {
    explicit DeviceState(std::uint64_t capacity) : memory(capacity) {}
    /// The constructed state at `capacity`, keeping allocations.
    void reset(std::uint64_t capacity);
    void note_evicted(TensorId id);
    bool evicted_before(TensorId id) const;

    DeviceMemory memory;
    double compute_free_s = 0.0;  ///< when the compute engine frees up
    double copy_free_s = 0.0;     ///< when the copy engine frees up
    double work_s = 0.0;          ///< accumulated non-idle device time
    bool alive = true;            ///< false after a permanent failure
    /// True once a spurious capacity-loss fault hit this device; memory
    /// exhaustion afterwards escalates to a device failure instead of a
    /// capacity error (the hardware is suspect).
    bool capacity_faulted = false;
    /// Tensors ever evicted from this device (the eviction-refetch
    /// accounting): a bitset over ids below ClusterIndex::kDenseLimit,
    /// grown on demand, so it stays empty on a device that never evicted,
    /// and the rarer larger ids in ascending order.
    std::vector<std::uint64_t> evicted_bits;
    std::vector<TensorId> evicted_large;
  };

  /// How one operand fetch ended (only kOk commits residency).
  enum class FetchStatus : std::uint8_t { kOk, kCapacity, kTransferGaveUp };
  struct FetchResult {
    double cost_s = 0.0;
    FetchStatus status = FetchStatus::kOk;
    int retries = 0;  ///< transient transfer faults survived
  };

  DeviceState& device(DeviceId dev);
  const DeviceState& device(DeviceId dev) const;

  /// Makes room for `bytes` on `dev`, charging eviction costs; operands of
  /// the in-flight task must already be pinned. `cause` labels any induced
  /// evictions in telemetry. Returns nullopt when the bytes can never fit
  /// (single tensor over capacity, or everything left is pinned) — a
  /// recoverable kCapacityExceeded for the caller, not an abort.
  std::optional<double> make_room(DeviceId dev, std::uint64_t bytes,
                                  obs::EvictionCause cause);

  /// Ensures `desc` is resident on `dev`, retrying transient transfer
  /// faults under the injector's policy; on kOk the tensor is pinned and
  /// metrics are updated.
  FetchResult fetch_operand(const TensorDesc& desc, DeviceId dev);

  /// Applies any capacity-loss fault scheduled for `dev` at or before
  /// `now_s`, evicting until usage fits the shrunken capacity. Returns the
  /// eviction cost charged, or nullopt when the survivors alone exceed the
  /// new capacity (escalated by the caller).
  std::optional<double> apply_capacity_faults(DeviceId dev, double now_s);

  /// (Re-)resolves the mem.reuse_distance histogram; called whenever the
  /// telemetry bundle or the eviction policy changes (both are inputs).
  void resolve_mem_instruments();

  /// Re-syncs the device's SoA mirror (busy time, memory, liveness) in the
  /// index. Called at the end of every mutation entry point — execute,
  /// barrier, fail_device — which is sufficient because schedulers
  /// only observe cluster state between those calls, never mid-task.
  void sync_device_mirror(DeviceId dev);

  /// execute() body; the public wrapper re-syncs the device mirror on every
  /// return path (early failure exits included — a half-fetched task has
  /// already moved memory).
  ExecuteResult execute_impl(const ContractionTask& task, DeviceId dev);

  /// One priced memory operation of the in-flight task, kept while
  /// telemetry is attached so its histograms and sink get exact start
  /// offsets once the task's window is known.
  struct PendingOp {
    obs::ClusterEventKind kind;
    TensorId tensor;
    double duration_s;
    std::uint64_t bytes = 0;
    bool p2p = false;  ///< fetches only
    obs::EvictionCause cause = obs::EvictionCause::kNone;
    double victim_age_s = 0.0;  ///< evictions only
  };

  /// Flushes pending_ops_ (and the kernel) to the telemetry histograms and
  /// sink once the copy window and kernel slot are known.
  void emit_task_events(DeviceId dev, const ContractionTask& task,
                        double copy_window_start, double kernel_start,
                        double kernel_cost);

  ClusterConfig config_;
  std::vector<DeviceState> devices_;
  /// Incremental residency/load/headroom index, maintained as deltas by
  /// place/remove calls and sync_device_mirror (replaces the old
  /// residency hash map; holders keep the same insertion order). It also
  /// carries each tensor's produced/host-copy bits (host_resident()).
  ClusterIndex index_;
  ExecutionMetrics metrics_;
  obs::Telemetry* telemetry_ = nullptr;
  FaultInjector* injector_ = nullptr;  ///< not owned; nullptr = fault-free
  /// Eviction policy (not owned); never null.
  const mem::EvictionPolicy* evict_policy_;
  BarrierFailures barrier_failures_;
  /// Registry instruments resolved once at set_telemetry (hot-path cheap).
  obs::Histogram* fetch_bytes_hist_ = nullptr;
  obs::Histogram* victim_age_hist_ = nullptr;
  obs::Histogram* barrier_idle_hist_ = nullptr;
  /// Set while telemetry is attached under a future-use-aware policy
  /// (resolve_mem_instruments).
  obs::Histogram* mem_reuse_distance_hist_ = nullptr;
  std::vector<PendingOp> pending_ops_;
};

}  // namespace micco
