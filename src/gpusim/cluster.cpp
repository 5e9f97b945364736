#include "gpusim/cluster.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "mem/policy.hpp"
#include "obs/names.hpp"

namespace micco {

namespace {

/// The policy every simulator starts with. LRU keeps no state, so one
/// instance serves all simulators and their copies.
const mem::EvictionPolicy& default_eviction_policy() {
  static const mem::LruPolicy lru;
  return lru;
}

}  // namespace

std::string ClusterConfig::validate() const {
  if (num_devices < 1) return "cluster: num_devices must be >= 1";
  if (device_capacity_bytes == 0) {
    return "cluster: device_capacity_bytes must be > 0";
  }
  return cost.validate();
}

ClusterSimulator::ClusterSimulator(ClusterConfig config)
    : config_(config),
      cost_model_(config.cost),
      index_(config.num_devices),
      evict_policy_(&default_eviction_policy()) {
  MICCO_EXPECTS(config_.num_devices >= 1);
  MICCO_EXPECTS(config_.device_capacity_bytes > 0);
  devices_.reserve(static_cast<std::size_t>(config_.num_devices));
  for (int i = 0; i < config_.num_devices; ++i) {
    devices_.emplace_back(config_.device_capacity_bytes);
    index_.set_memory(i, 0, config_.device_capacity_bytes);
  }
}

ClusterSimulator::DeviceState& ClusterSimulator::device(DeviceId dev) {
  MICCO_EXPECTS(dev >= 0 && dev < num_devices());
  return devices_[static_cast<std::size_t>(dev)];
}

const ClusterSimulator::DeviceState& ClusterSimulator::device(
    DeviceId dev) const {
  MICCO_EXPECTS(dev >= 0 && dev < num_devices());
  return devices_[static_cast<std::size_t>(dev)];
}

void ClusterSimulator::DeviceState::note_evicted(TensorId id) {
  if (id < ClusterIndex::kDenseLimit) {
    const auto word = static_cast<std::size_t>(id / 64);
    if (word >= evicted_bits.size()) evicted_bits.resize(word + 1, 0);
    evicted_bits[word] |= 1ULL << (id % 64);
    return;
  }
  const auto pos =
      std::lower_bound(evicted_large.begin(), evicted_large.end(), id);
  if (pos == evicted_large.end() || *pos != id) evicted_large.insert(pos, id);
}

bool ClusterSimulator::DeviceState::evicted_before(TensorId id) const {
  if (id < ClusterIndex::kDenseLimit) {
    const auto word = static_cast<std::size_t>(id / 64);
    return word < evicted_bits.size() &&
           ((evicted_bits[word] >> (id % 64)) & 1ULL) != 0;
  }
  return std::binary_search(evicted_large.begin(), evicted_large.end(), id);
}

int ClusterSimulator::num_devices() const {
  return static_cast<int>(devices_.size());
}

std::span<const DeviceId> ClusterSimulator::devices_holding(
    TensorId id) const {
  return index_.holders(id);
}

bool ClusterSimulator::resident_on(DeviceId dev, TensorId id) const {
  // The index's membership bit is kept in lockstep with DeviceMemory (every
  // allocate/release pairs with a place/remove), so the O(1) bit test
  // answers for the hash lookup.
  return index_.holds(dev, id);
}

std::uint64_t ClusterSimulator::memory_used(DeviceId dev) const {
  return device(dev).memory.used();
}

std::uint64_t ClusterSimulator::memory_capacity(DeviceId dev) const {
  return device(dev).memory.capacity();
}

double ClusterSimulator::busy_time(DeviceId dev) const {
  const DeviceState& d = device(dev);
  return std::max(d.compute_free_s, d.copy_free_s);
}

bool ClusterSimulator::device_alive(DeviceId dev) const {
  return device(dev).alive;
}

int ClusterSimulator::num_alive_devices() const { return index_.num_alive(); }

const char* to_string(TaskOutcome outcome) {
  switch (outcome) {
    case TaskOutcome::kCompleted: return "completed";
    case TaskOutcome::kDeviceFailed: return "device_failed";
    case TaskOutcome::kCapacityExceeded: return "capacity_exceeded";
  }
  return "?";
}

int ClusterSimulator::node_of(DeviceId dev) const {
  MICCO_EXPECTS(dev >= 0 && dev < num_devices());
  if (config_.devices_per_node <= 0) return 0;
  return dev / config_.devices_per_node;
}

const DeviceMemory& ClusterSimulator::device_memory(DeviceId dev) const {
  MICCO_EXPECTS(dev >= 0 && dev < num_devices());
  return devices_[static_cast<std::size_t>(dev)].memory;
}

bool ClusterSimulator::resident_anywhere(TensorId id) const {
  return index_.resident_anywhere(id);
}

bool ClusterSimulator::host_resident(TensorId id) const {
  // Originals are staged in host memory by the frontend; intermediates
  // gain a host copy only via eviction write-back.
  return index_.host_resident(id);
}

void ClusterSimulator::sync_device_mirror(DeviceId dev) {
  const DeviceState& d = device(dev);
  index_.set_busy(dev, std::max(d.compute_free_s, d.copy_free_s));
  index_.set_memory(dev, d.memory.used(), d.memory.capacity());
  index_.set_alive(dev, d.alive);
}

void ClusterSimulator::set_telemetry(obs::Telemetry* telemetry) {
  telemetry_ = telemetry;
  resolve_mem_instruments();
  if (telemetry_ == nullptr) {
    fetch_bytes_hist_ = nullptr;
    victim_age_hist_ = nullptr;
    barrier_idle_hist_ = nullptr;
    return;
  }
  obs::MetricsRegistry& reg = telemetry_->registry;
  // Bucket bounds span hadron-node payloads (KiB..GiB) and simulated times
  // (us..minutes) on a log scale; the overflow bucket catches the rest.
  fetch_bytes_hist_ = &reg.histogram(
      obs::names::kClusterFetchBytes,
      {1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 4e9});
  victim_age_hist_ = &reg.histogram(
      obs::names::kClusterEvictionVictimAgeS,
      {1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0});
  barrier_idle_hist_ = &reg.histogram(
      obs::names::kClusterBarrierIdleS,
      {1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0});
}

void ClusterSimulator::set_eviction_policy(const mem::EvictionPolicy* policy) {
  evict_policy_ = policy != nullptr ? policy : &default_eviction_policy();
  metrics_.evict_policy = evict_policy_->name();
  resolve_mem_instruments();
}

void ClusterSimulator::resolve_mem_instruments() {
  mem_reuse_distance_hist_ = nullptr;
  // Reuse distances exist only where future uses are tracked; the LRU
  // policy would observe nothing, so it gets no histogram.
  if (telemetry_ != nullptr &&
      evict_policy_->kind() != mem::EvictPolicyKind::kLru) {
    mem_reuse_distance_hist_ = &telemetry_->registry.histogram(
        obs::names::kMemReuseDistance, obs::names::reuse_distance_bounds());
  }
}

std::optional<double> ClusterSimulator::make_room(DeviceId dev,
                                                  std::uint64_t bytes,
                                                  EvictionCause cause) {
  DeviceState& d = device(dev);
  // A single tensor larger than the whole device can never fit; likewise a
  // request that outlives every unpinned victim. Both are recoverable
  // (kCapacityExceeded), reachable from user-supplied workloads.
  if (bytes > d.memory.capacity()) return std::nullopt;
  double cost = 0.0;
  while (!d.memory.fits(bytes)) {
    const std::optional<mem::VictimChoice> victim =
        evict_policy_->pick_victim(d.memory);
    if (!victim.has_value()) return std::nullopt;
    const Eviction ev = d.memory.evict(victim->id);
    index_.remove(ev.id, dev);
    ++metrics_.evictions;
    d.note_evicted(ev.id);
    if (mem_reuse_distance_hist_ != nullptr &&
        victim->reuse_distance != mem::kNoFutureUse) {
      mem_reuse_distance_hist_->observe(
          static_cast<double>(victim->reuse_distance));
    }
    cost += cost_model_.free_time();
    // Oversubscribed executions run UVM-style: an evicted frame migrates to
    // host memory whether or not it is dirty (pages move, they are not
    // dropped), which is what makes evictions the dominant cost of Fig. 11.
    const double eviction_cost =
        cost_model_.free_time() + cost_model_.d2h_time(ev.bytes);
    metrics_.writeback_bytes += ev.bytes;
    cost += cost_model_.d2h_time(ev.bytes);
    if (ev.dirty) ++metrics_.dirty_evictions;
    index_.note_writeback(ev.id);
    if (observing()) {
      const double age = std::max(0.0, busy_time(dev) - ev.alloc_time_s);
      pending_ops_.push_back(PendingOp{TraceEventKind::kEviction, ev.id,
                                       eviction_cost, ev.bytes, cause, age});
    }
  }
  return cost;
}

ClusterSimulator::FetchResult ClusterSimulator::fetch_operand(
    const TensorDesc& desc, DeviceId dev) {
  DeviceState& d = device(dev);
  FetchResult result;
  if (d.memory.resident(desc.id)) {
    d.memory.touch(desc.id);
    d.memory.pin(desc.id);
    ++metrics_.reused_operands;
    return result;
  }

  // Dataflow invariant: the payload must exist SOMEWHERE to be fetched.
  MICCO_ASSERT_MSG(host_resident(desc.id) || resident_anywhere(desc.id),
                   "fetch of a lost intermediate (no host or device copy)");

  const std::uint64_t bytes = desc.bytes();
  const std::optional<double> room =
      make_room(dev, bytes, EvictionCause::kOperandFetch);
  if (!room.has_value()) {
    result.status = FetchStatus::kCapacity;
    return result;
  }
  double cost = *room;
  cost += cost_model_.alloc_time();
  ++metrics_.allocations;

  // Prefer a peer copy over the host link when a replica exists and P2P is
  // enabled; the source device's timeline is not charged (DMA engines).
  // The span stays valid: the index placement of this fetch runs after the
  // last read.
  const std::span<const DeviceId> holders = devices_holding(desc.id);
  TraceEventKind fetch_kind;
  double transfer_cost = 0.0;
  if (config_.p2p_enabled && !holders.empty()) {
    // Prefer an intra-node replica; fall back to the inter-node link.
    const bool same_node = std::any_of(
        holders.begin(), holders.end(),
        [&](DeviceId holder) { return node_of(holder) == node_of(dev); });
    if (same_node) {
      transfer_cost = cost_model_.p2p_time(bytes);
      ++metrics_.p2p_transfers;
      metrics_.p2p_bytes += bytes;
    } else {
      transfer_cost = cost_model_.internode_time(bytes);
      ++metrics_.internode_transfers;
      metrics_.internode_bytes += bytes;
    }
    fetch_kind = TraceEventKind::kFetchP2P;
  } else {
    transfer_cost = cost_model_.h2d_time(bytes);
    ++metrics_.h2d_transfers;
    metrics_.h2d_bytes += bytes;
    fetch_kind = TraceEventKind::kFetchH2D;
  }

  // Transient transfer faults: each failed attempt wastes one full transfer
  // plus the policy's backoff (in simulated time). Exhausting the retry
  // budget is treated as the link being down — the caller escalates it to a
  // permanent device failure. The injector draws no randomness when the
  // fault probability is zero, keeping fault-free runs byte-identical.
  if (injector_ != nullptr && injector_->active()) {
    const RetryPolicy& policy = injector_->retry();
    for (int attempt = 1;; ++attempt) {
      if (!injector_->transfer_attempt_fails()) break;  // attempt succeeded
      ++metrics_.transfer_faults;
      if (attempt >= policy.max_attempts) {
        result.status = FetchStatus::kTransferGaveUp;
        result.cost_s = cost;
        return result;
      }
      const double backoff = policy.backoff(attempt);
      metrics_.retry_backoff_s += backoff;
      const double wasted = transfer_cost + backoff;
      cost += wasted;
      ++result.retries;
      if (observing()) {
        pending_ops_.push_back(PendingOp{TraceEventKind::kTransferRetry,
                                         desc.id, wasted, bytes});
      }
    }
  }
  cost += transfer_cost;

  if (observing()) {
    // fetch = alloc + the one successful transfer (wasted attempts were
    // already recorded as kTransferRetry ops above).
    pending_ops_.push_back(PendingOp{
        fetch_kind, desc.id, cost_model_.alloc_time() + transfer_cost, bytes});
  }

  d.memory.allocate(desc.id, bytes, /*dirty=*/false, busy_time(dev));
  d.memory.pin(desc.id);
  index_.place(desc.id, dev);
  // Re-fetch of a tensor this run already evicted from this device: the
  // avoidable half of the eviction-caused transfer bill.
  if (d.evicted_before(desc.id)) metrics_.eviction_refetch_bytes += bytes;
  ++metrics_.fetched_operands;
  result.cost_s = cost;
  return result;
}

std::optional<double> ClusterSimulator::apply_capacity_faults(DeviceId dev,
                                                              double now_s) {
  const std::uint64_t lost = injector_->take_capacity_loss(dev, now_s);
  if (lost == 0) return 0.0;
  DeviceState& d = device(dev);
  ++metrics_.capacity_faults;
  d.capacity_faulted = true;
  const std::uint64_t old_cap = d.memory.capacity();
  // Clamp at one byte: a device that "lost" its whole memory fails on the
  // next allocation attempt (escalated to a device failure by execute()).
  const std::uint64_t new_cap = old_cap > lost ? old_cap - lost : 1;
  if (observing()) {
    pending_ops_.push_back(PendingOp{TraceEventKind::kCapacityLoss,
                                     kInvalidTensor, 0.0, old_cap - new_cap});
  }
  // Squeeze out whatever no longer fits (nothing is pinned at task start,
  // so this can only fail if the shrink itself is unsatisfiable).
  return shrink_to_capacity(dev, new_cap);
}

std::optional<double> ClusterSimulator::shrink_to_capacity(
    DeviceId dev, std::uint64_t new_capacity) {
  DeviceState& d = device(dev);
  // set_capacity tolerates growth with live residents (a healed fault);
  // make_room(0) is then a no-op and the extra bytes simply become
  // allocatable again.
  d.memory.set_capacity(new_capacity);
  const std::optional<double> cost =
      make_room(dev, 0, EvictionCause::kCapacityLoss);
  sync_device_mirror(dev);
  return cost;
}

ExecuteResult ClusterSimulator::execute(const ContractionTask& task,
                                        DeviceId dev) {
  ExecuteResult result = execute_impl(task, dev);
  sync_device_mirror(dev);
  return result;
}

ExecuteResult ClusterSimulator::execute_impl(const ContractionTask& task,
                                             DeviceId dev) {
  MICCO_EXPECTS(task.a.valid() && task.b.valid() && task.out.valid());
  DeviceState& d = device(dev);
  ExecuteResult result;

  pending_ops_.clear();
  double copy_cost = 0.0;
  const double projected_start = busy_time(dev);

  if (injector_ != nullptr) {
    // Defensive: schedulers must filter dead devices; if one slips through,
    // report the failure again instead of executing on a ghost.
    if (!d.alive) {
      result.outcome = TaskOutcome::kDeviceFailed;
      return result;
    }
    // Fail-on-next-use: a planned failure due at or before this task's
    // start fires now, before any work is charged.
    const std::optional<double> planned = injector_->failure_time(dev);
    if (planned.has_value() && *planned <= projected_start) {
      result.outcome = TaskOutcome::kDeviceFailed;
      result.lost_tensors = fail_device(dev, *planned);
      return result;
    }
    const std::optional<double> cap_cost =
        apply_capacity_faults(dev, projected_start);
    if (!cap_cost.has_value()) {
      result.outcome = TaskOutcome::kDeviceFailed;
      result.lost_tensors = fail_device(dev, projected_start);
      return result;
    }
    copy_cost += *cap_cost;
  }

  // Pin operands that are already resident before any eviction can run, so
  // making room for one operand never evicts the other. A task may use the
  // same tensor for both operands (self-contraction); pin it once.
  const bool same_operand = task.a.id == task.b.id;
  bool a_pinned = false;
  bool b_pinned = false;
  const auto unpin_held = [&] {
    if (a_pinned) d.memory.unpin(task.a.id);
    if (b_pinned && !same_operand) d.memory.unpin(task.b.id);
  };
  // Shared failure tail: a memory-exhaustion on a capacity-faulted device
  // and a retry-exhausted transfer both condemn the device (the hardware or
  // its link is gone); a plain capacity overflow is a structured error.
  const auto resolve_fetch_failure = [&](FetchStatus status) {
    unpin_held();
    if (status == FetchStatus::kCapacity && !d.capacity_faulted) {
      result.outcome = TaskOutcome::kCapacityExceeded;
      return;
    }
    ++metrics_.tasks_lost;
    result.outcome = TaskOutcome::kDeviceFailed;
    result.lost_tensors = fail_device(dev, projected_start);
  };

  const FetchResult fetch_a = fetch_operand(task.a, dev);
  result.transfer_retries += fetch_a.retries;
  copy_cost += fetch_a.cost_s;
  if (fetch_a.status != FetchStatus::kOk) {
    resolve_fetch_failure(fetch_a.status);
    return result;
  }
  a_pinned = true;
  if (!same_operand) {
    const FetchResult fetch_b = fetch_operand(task.b, dev);
    result.transfer_retries += fetch_b.retries;
    copy_cost += fetch_b.cost_s;
    if (fetch_b.status != FetchStatus::kOk) {
      resolve_fetch_failure(fetch_b.status);
      return result;
    }
    b_pinned = true;
  }

  // Output allocation (kernels never run in place).
  MICCO_EXPECTS_MSG(!d.memory.resident(task.out.id),
                    "output tensor already resident on target device");
  const std::uint64_t out_bytes = task.out.bytes();
  const std::optional<double> out_room =
      make_room(dev, out_bytes, EvictionCause::kOutputAlloc);
  if (!out_room.has_value()) {
    resolve_fetch_failure(FetchStatus::kCapacity);
    return result;
  }
  copy_cost += *out_room;
  copy_cost += cost_model_.alloc_time();
  if (observing()) {
    pending_ops_.push_back(PendingOp{TraceEventKind::kOutputAlloc,
                                     task.out.id, cost_model_.alloc_time(),
                                     out_bytes});
  }
  d.memory.allocate(task.out.id, out_bytes, /*dirty=*/true, busy_time(dev));
  index_.place(task.out.id, dev);
  ++metrics_.allocations;

  double kernel_cost = cost_model_.kernel_time(task);

  // Straggler injection: stretch this task's copy and kernel work by the
  // configured factor (pending-op durations too, so traces stay consistent).
  if (injector_ != nullptr) {
    const double factor = injector_->slowdown(dev, projected_start);
    if (factor != 1.0) {
      copy_cost *= factor;
      kernel_cost *= factor;
      for (PendingOp& op : pending_ops_) op.duration_s *= factor;
    }
  }

  double copy_window_start = 0.0;
  double kernel_start = 0.0;
  double copy_done = 0.0;
  double compute_done = 0.0;
  if (config_.overlap_transfers) {
    // Dual-engine model: the copy engine streams operands while the compute
    // engine may still be working on the previous kernel.
    copy_window_start = d.copy_free_s;
    copy_done = d.copy_free_s + copy_cost;
    kernel_start = std::max(d.compute_free_s, copy_done);
    compute_done = kernel_start + kernel_cost;
  } else {
    // The evaluated system issues copies and kernels on one stream.
    const double start = std::max(d.compute_free_s, d.copy_free_s);
    copy_window_start = start;
    kernel_start = start + copy_cost;
    compute_done = start + copy_cost + kernel_cost;
    copy_done = compute_done;
  }

  // Mid-task failure: the planned loss strikes while this task is in
  // flight. Nothing is committed — the attempt is lost and the device dies
  // at its planned instant.
  if (injector_ != nullptr) {
    const std::optional<double> planned = injector_->failure_time(dev);
    if (planned.has_value() && *planned < compute_done) {
      ++metrics_.tasks_lost;
      unpin_held();
      result.outcome = TaskOutcome::kDeviceFailed;
      result.lost_tensors = fail_device(dev, *planned);
      return result;
    }
  }

  d.copy_free_s = copy_done;
  d.compute_free_s = compute_done;

  if (observing()) {
    emit_task_events(dev, task, copy_window_start, kernel_start, kernel_cost);
  }

  unpin_held();
  index_.mark_produced(task.out.id);

  d.work_s += copy_cost + kernel_cost;
  metrics_.total_flops += task.flops();
  metrics_.kernel_time_s += kernel_cost;
  metrics_.transfer_time_s += copy_cost;
  metrics_.makespan_s = std::max(metrics_.makespan_s, busy_time(dev));
  return result;
}

std::vector<TensorId> ClusterSimulator::fail_device(DeviceId dev,
                                                    double at_s) {
  DeviceState& d = device(dev);
  if (!d.alive) return {};
  d.alive = false;
  // Freeze the timelines at the failure instant; the device contributes no
  // further simulated time (never advance them past work already booked).
  d.compute_free_s = std::min(d.compute_free_s, at_s);
  d.copy_free_s = std::min(d.copy_free_s, at_s);

  const std::vector<TensorId> resident = d.memory.resident_ids();
  for (const TensorId id : resident) {
    d.memory.release(id);
    index_.remove(id, dev);
  }

  // A produced tensor with no host copy and no surviving replica died with
  // the device; its producer must be re-executed (lineage recovery).
  // `resident` comes back sorted from resident_ids(), so `lost` is built in
  // ascending id order; the sort stays as a cheap belt-and-braces guarantee
  // for the recovery path's determinism contract.
  std::vector<TensorId> lost;
  for (const TensorId id : resident) {
    if (!index_.host_resident(id) && !resident_anywhere(id)) {
      lost.push_back(id);
    }
  }
  std::sort(lost.begin(), lost.end());

  ++metrics_.devices_lost;
  sync_device_mirror(dev);
  if (injector_ != nullptr) injector_->mark_failed(dev);
  if (trace_ != nullptr) {
    trace_->record(
        TraceEvent{TraceEventKind::kDeviceFailure, dev, kInvalidTensor, at_s,
                   0.0});
  }
  if (telemetry_ != nullptr) {
    obs::ClusterEvent ev;
    ev.kind = obs::ClusterEventKind::kDeviceFailure;
    ev.device = dev;
    ev.time_s = at_s;
    ev.count = static_cast<std::int64_t>(lost.size());
    telemetry_->emit(ev);
  }
  return lost;
}

BarrierFailures ClusterSimulator::take_barrier_failures() {
  BarrierFailures out = std::move(barrier_failures_);
  barrier_failures_ = BarrierFailures{};
  return out;
}

void ClusterSimulator::emit_task_events(DeviceId dev,
                                        const ContractionTask& task,
                                        double copy_window_start,
                                        double kernel_start,
                                        double kernel_cost) {
  // Memory operations run back-to-back in the copy window; the kernel
  // follows (or overlaps, in dual-engine mode).
  double cursor = copy_window_start;
  for (const PendingOp& op : pending_ops_) {
    if (trace_ != nullptr) {
      trace_->record(TraceEvent{op.kind, dev, op.tensor, cursor,
                                op.duration_s, op.bytes, op.cause});
    }
    if (telemetry_ != nullptr &&
        op.kind != TraceEventKind::kOutputAlloc) {  // allocs stay trace-only
      obs::ClusterEvent ev;
      ev.device = dev;
      ev.tensor = op.tensor;
      ev.bytes = op.bytes;
      ev.time_s = cursor + op.duration_s;
      ev.duration_s = op.duration_s;
      if (op.kind == TraceEventKind::kEviction) {
        victim_age_hist_->observe(op.victim_age_s);
        ev.kind = obs::ClusterEventKind::kEviction;
        // "<cause>/<policy>": traces attribute every eviction to the policy
        // that chose the victim.
        ev.detail = to_string(op.cause);
        ev.detail += '/';
        ev.detail += evict_policy_->name();
        ev.victim_age_s = op.victim_age_s;
      } else if (op.kind == TraceEventKind::kTransferRetry) {
        ev.kind = obs::ClusterEventKind::kTransferRetry;
        ev.detail = "transient";
      } else if (op.kind == TraceEventKind::kCapacityLoss) {
        ev.kind = obs::ClusterEventKind::kCapacityLoss;
      } else {
        fetch_bytes_hist_->observe(static_cast<double>(op.bytes));
        ev.kind = obs::ClusterEventKind::kFetch;
        ev.detail = op.kind == TraceEventKind::kFetchH2D ? "h2d" : "p2p";
      }
      telemetry_->emit(ev);
    }
    cursor += op.duration_s;
  }
  if (trace_ != nullptr) {
    trace_->record(TraceEvent{TraceEventKind::kKernel, dev, task.out.id,
                              kernel_start, kernel_cost, task.kernel_bytes()});
  }
}

void ClusterSimulator::barrier() {
  // Proactive failure sweep: a device whose planned failure time falls
  // inside the stage that just ended is declared dead here even if no task
  // touched it after the fault (fail-on-next-use would otherwise let it
  // linger). The pipeline drains take_barrier_failures() for recovery.
  if (injector_ != nullptr) {
    double t_due = 0.0;
    for (int dev = 0; dev < num_devices(); ++dev) {
      if (device(dev).alive) t_due = std::max(t_due, busy_time(dev));
    }
    for (int dev = 0; dev < num_devices(); ++dev) {
      if (!device(dev).alive) continue;
      const std::optional<double> planned = injector_->failure_time(dev);
      if (planned.has_value() && *planned <= t_due) {
        std::vector<TensorId> lost = fail_device(dev, *planned);
        barrier_failures_.devices.push_back(dev);
        barrier_failures_.lost_tensors.insert(
            barrier_failures_.lost_tensors.end(), lost.begin(), lost.end());
      }
    }
  }

  double t_max = 0.0;
  for (int dev = 0; dev < num_devices(); ++dev) {
    if (!device(dev).alive) continue;
    t_max = std::max(t_max, busy_time(dev));
  }
  for (int dev = 0; dev < num_devices(); ++dev) {
    DeviceState& d = devices_[static_cast<std::size_t>(dev)];
    if (!d.alive) continue;  // dead devices neither sync nor count as idle
    const double busy = std::max(d.compute_free_s, d.copy_free_s);
    metrics_.barrier_idle_s += t_max - busy;
    if (trace_ != nullptr && t_max > busy) {
      trace_->record(TraceEvent{TraceEventKind::kBarrier, dev,
                                kInvalidTensor, busy, t_max - busy});
    }
    if (telemetry_ != nullptr) {
      barrier_idle_hist_->observe(t_max - busy);
      if (t_max > busy) {
        obs::ClusterEvent idle;
        idle.kind = obs::ClusterEventKind::kBarrier;
        idle.device = dev;
        idle.time_s = t_max;
        idle.duration_s = t_max - busy;
        telemetry_->emit(idle);
      }
    }
    d.compute_free_s = t_max;
    d.copy_free_s = t_max;
    sync_device_mirror(dev);
  }
  metrics_.makespan_s = std::max(metrics_.makespan_s, t_max);
}

void ClusterSimulator::discard(TensorId id) {
  // Releases holders front to back, in placement order. index_.remove edits
  // the list the span aliases, so the span is re-read after every removal.
  for (std::span<const DeviceId> holders = devices_holding(id);
       !holders.empty(); holders = devices_holding(id)) {
    const DeviceId dev = holders.front();
    DeviceState& d = device(dev);
    d.memory.release(id);
    index_.remove(id, dev);
    const double start = std::max(d.compute_free_s, d.copy_free_s);
    d.compute_free_s = start + cost_model_.free_time();
    d.copy_free_s = d.compute_free_s;
    sync_device_mirror(dev);
  }
}

obs::JsonValue to_json(const ExecutionMetrics& m) {
  obs::JsonValue out = obs::JsonValue::object();
  out.set("makespan_s", m.makespan_s);
  out.set("total_flops", m.total_flops);
  out.set("h2d_transfers", m.h2d_transfers);
  out.set("h2d_bytes", m.h2d_bytes);
  out.set("p2p_transfers", m.p2p_transfers);
  out.set("p2p_bytes", m.p2p_bytes);
  out.set("internode_transfers", m.internode_transfers);
  out.set("internode_bytes", m.internode_bytes);
  out.set("writeback_bytes", m.writeback_bytes);
  out.set("allocations", m.allocations);
  out.set("evictions", m.evictions);
  out.set("dirty_evictions", m.dirty_evictions);
  out.set("reused_operands", m.reused_operands);
  out.set("fetched_operands", m.fetched_operands);
  out.set("barrier_idle_s", m.barrier_idle_s);
  out.set("kernel_time_s", m.kernel_time_s);
  out.set("transfer_time_s", m.transfer_time_s);
  out.set("evict_policy", m.evict_policy);
  out.set("eviction_refetch_bytes", m.eviction_refetch_bytes);
  // Fault counters appear only when a fault actually fired: fault-free runs
  // must serialise byte-identically to reports from before the fault model.
  if (m.any_faults()) {
    out.set("transfer_faults", m.transfer_faults);
    out.set("retry_backoff_s", m.retry_backoff_s);
    out.set("devices_lost", m.devices_lost);
    out.set("tasks_lost", m.tasks_lost);
    out.set("capacity_faults", m.capacity_faults);
  }
  return out;
}

std::vector<double> ClusterSimulator::utilization() const {
  std::vector<double> result;
  result.reserve(devices_.size());
  const double makespan = metrics_.makespan_s;
  for (const DeviceState& d : devices_) {
    result.push_back(makespan > 0.0 ? d.work_s / makespan : 0.0);
  }
  return result;
}

}  // namespace micco
