#include "core/pipeline.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "common/stopwatch.hpp"
#include "faults/injector.hpp"
#include "obs/names.hpp"
#include "sched/reuse_pattern.hpp"

namespace micco {

const char* to_string(PairOrdering ordering) {
  switch (ordering) {
    case PairOrdering::kAsGiven: return "as-given";
    case PairOrdering::kReuseTierFirst: return "reuse-tier-first";
  }
  return "?";
}

namespace {

/// Task visit order for one vector under the configured ordering policy.
/// Reuse-tier ordering is computed against residency at vector entry (the
/// classification drifts as assignments execute, but a stable order keeps
/// the policy deterministic and cheap).
std::vector<std::size_t> visit_order(const VectorWorkload& vec,
                                     const ClusterSimulator& sim,
                                     PairOrdering ordering) {
  std::vector<std::size_t> order(vec.tasks.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (ordering == PairOrdering::kAsGiven) return order;
  const ClusterIndex& index = sim.cluster_index();
  std::vector<int> tier(vec.tasks.size());
  for (std::size_t i = 0; i < vec.tasks.size(); ++i) {
    tier[i] = static_cast<int>(classify_pair(vec.tasks[i], index));
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return tier[a] < tier[b];
                   });
  return order;
}

}  // namespace

RunResult run_stream(const WorkloadStream& stream, Scheduler& scheduler,
                     const ClusterConfig& cluster,
                     const RunOptions& options) {
  RunResult result;
  result.scheduler_name = scheduler.name();

  // Validate the cluster and fault configuration up front: a malformed one
  // is a user error reported through the result, never an abort mid-run.
  const auto reject = [&](std::string error) {
    result.error = std::move(error);
    result.completed = false;
    result.num_devices = cluster.num_devices;
  };
  if (const std::string problem = cluster.validate(); !problem.empty()) {
    reject("invalid cluster configuration: " + problem);
    return result;
  }
  std::optional<FaultInjector> injector;
  if (options.faults != nullptr) {
    std::string problem = options.faults->validate(cluster.num_devices);
    if (problem.empty()) problem = options.retry.validate();
    if (!problem.empty()) {
      reject("invalid fault configuration: " + problem);
      return result;
    }
    injector.emplace(*options.faults, options.retry);
  }

  // An LRU run keeps the simulator's shared, stateless policy and makes no
  // feed calls; any other kind gets its own instance for this stream.
  const std::unique_ptr<mem::EvictionPolicy> evict_policy =
      options.evict_policy == mem::EvictPolicyKind::kLru
          ? nullptr
          : mem::make_policy(options.evict_policy);
  ClusterSimulator sim(cluster);
  if (injector.has_value()) sim.set_fault_injector(&*injector);
  // Policy before telemetry: the registry gains only the mem.* names of the
  // policy that runs, never the default LRU's.
  sim.set_eviction_policy(evict_policy.get());
  sim.set_telemetry(options.telemetry);
  scheduler.set_telemetry(options.telemetry);
  result.per_vector_characteristics.reserve(stream.vectors.size());

  auto* micco_sched = dynamic_cast<MiccoScheduler*>(&scheduler);
  // Wall clock of the per-vector calls, timed in full, and of the sampled
  // assign calls (kDecisionClockStride); decisions counts every assign.
  double overhead_us = 0.0;
  double sampled_assign_us = 0.0;
  std::uint64_t decisions = 0;
  Stopwatch watch;

  // One unit of pending work. task points into the vector's task list or,
  // for a re-execution, into the lineage map's node: both outlive the
  // drain, and unordered_map nodes stay put on rehash. pair_index keeps the
  // decision-log cursor: the pair's position in the vector as given (stable
  // across ordering ablations), or -1 for a lineage re-execution after a
  // device loss. policy_pos is the pair's position in the *visit order* —
  // the coordinate the eviction policy's future-use tracker counts in — and
  // also -1 for re-executions (the tracker treats those as no-ops: the
  // original position was already retired, see mem/policy.hpp).
  struct QueueItem {
    const ContractionTask* task = nullptr;
    std::int64_t pair_index = -1;
    std::int64_t policy_pos = -1;
  };
  // The pending work: queue[head..] in visit order. One queue serves every
  // vector and recovery round, so its storage is reused across the run;
  // recovery re-queues insert at the head, ahead of the vector's remainder.
  std::vector<QueueItem> queue;
  std::size_t head = 0;
  // Lineage map: the task that produced each intermediate, so tensors lost
  // with a device can be recomputed from surviving inputs (their operands
  // are either host-staged originals or themselves recoverable). Filled
  // only under a fault injector: without one no device can fail, so the
  // map would never be read.
  std::unordered_map<TensorId, ContractionTask> producers;
  const bool record_lineage = injector.has_value();
  std::int64_t vector_index = -1;

  // Builds the recovery work list for one device loss: producers of the
  // lost tensors, in tensor-id order (ids are assigned in production order,
  // so dependencies re-execute before their consumers).
  const auto recovery_items = [&](const std::vector<TensorId>& lost) {
    std::vector<QueueItem> items;
    for (const TensorId id : lost) {
      const auto it = producers.find(id);
      if (it != producers.end()) items.push_back(QueueItem{&it->second});
    }
    return items;
  };

  const bool tracing = options.trace_context != nullptr &&
                       options.trace_context->sink != nullptr;
  const auto emit_span = [&](obs::SpanEvent event) {
    obs::TraceContext& ctx = *options.trace_context;
    event.trace_id = ctx.trace_id;
    event.job_id = ctx.job_id;
    event.tenant = ctx.tenant;
    event.span_id = ctx.alloc();
    event.parent_id = ctx.parent_span;
    ctx.sink->span(std::move(event));
  };

  const auto note_recovery = [&](DeviceId dev, std::size_t requeued) {
    result.tasks_reexecuted += requeued;
    if (options.telemetry != nullptr && options.telemetry->has_sink() &&
        requeued > 0) {
      obs::ClusterEvent ev;
      ev.kind = obs::ClusterEventKind::kRecovery;
      ev.device = dev;
      ev.start_s = sim.metrics().makespan_s;
      ev.time_s = ev.start_s;
      ev.count = static_cast<std::int64_t>(requeued);
      options.telemetry->emit(ev);
    }
    if (tracing && requeued > 0) {
      obs::SpanEvent span;
      span.name = obs::names::kSpanRecovery;
      span.vector_index = vector_index;
      span.sim_time_s = sim.metrics().makespan_s;
      span.attrs_int.emplace_back("device", static_cast<std::int64_t>(dev));
      span.attrs_int.emplace_back("requeued",
                                  static_cast<std::int64_t>(requeued));
      emit_span(std::move(span));
    }
  };

  // Drains the work queue, absorbing device failures by re-enqueuing lost
  // lineage plus the interrupted task. Returns false when the run cannot
  // continue (result.error is set).
  const auto drain = [&] {
    while (head < queue.size()) {
      if (sim.num_alive_devices() == 0) {
        result.error = "all devices failed; stream cannot complete";
        result.completed = false;
        return false;
      }
      const QueueItem item = queue[head++];
      const ContractionTask& task = *item.task;
      // A re-queued task may already have run: a device that dies while
      // *re-executing* a producer puts the same task in the queue twice —
      // once as the interrupted pair, once via the lineage of its own
      // (previously committed, now lost) output. Whichever copy runs first
      // re-materialises the output; the straggler is a duplicate and is
      // dropped. Only a run that records lineage can re-queue, and a stream
      // that produces each output once (run_stream's precondition) never
      // takes this branch otherwise.
      if (record_lineage && !sim.devices_holding(task.out.id).empty()) {
        continue;
      }
      if (options.telemetry != nullptr) {
        options.telemetry->vector_index = vector_index;
        options.telemetry->pair_index = item.pair_index;
      }
      const bool timed = decisions++ % kDecisionClockStride == 0;
      if (timed) watch.restart();
      const DeviceId dev = scheduler.assign(task, sim);
      if (timed) {
        const double assign_us = watch.elapsed_us();
        sampled_assign_us += assign_us;
        if (options.decision_latency != nullptr) {
          options.decision_latency->observe(assign_us);
        }
      }
      if (!sim.device_alive(dev)) {
        result.error = "scheduler assigned a pair to failed device " +
                       std::to_string(dev);
        result.completed = false;
        return false;
      }
      // Retire the pair's future-use positions before execute(): its own
      // operands are pinned for the kernel anyway, so victim selection must
      // rank them by their *next* use, not the one being served now.
      if (evict_policy != nullptr) {
        evict_policy->observe_use(task, item.policy_pos);
      }
      const ExecuteResult exec = sim.execute(task, dev);
      switch (exec.outcome) {
        case TaskOutcome::kCompleted:
          if (record_lineage) producers[task.out.id] = task;
          break;
        case TaskOutcome::kDeviceFailed: {
          scheduler.on_device_failure(dev, sim);
          std::vector<QueueItem> requeue = recovery_items(exec.lost_tensors);
          requeue.push_back(item);  // the interrupted pair itself
          queue.insert(queue.begin() + static_cast<std::ptrdiff_t>(head),
                       requeue.begin(), requeue.end());
          note_recovery(dev, requeue.size());
          break;
        }
        case TaskOutcome::kCapacityExceeded:
          result.error =
              "task working set exceeds device capacity (device " +
              std::to_string(dev) + ", output tensor " +
              std::to_string(task.out.id) + ")";
          result.completed = false;
          return false;
      }
    }
    return true;
  };

  // Barrier + proactive failure sweep: devices whose planned failure fell
  // inside the stage are declared dead here; anything they alone held is
  // recomputed before the next vector starts.
  const auto barrier_and_recover = [&] {
    sim.barrier();
    for (BarrierFailures failures = sim.take_barrier_failures();
         !failures.empty(); failures = sim.take_barrier_failures()) {
      for (const DeviceId dev : failures.devices) {
        scheduler.on_device_failure(dev, sim);
      }
      if (sim.num_alive_devices() == 0) {
        result.error = "all devices failed; stream cannot complete";
        result.completed = false;
        return false;
      }
      const std::vector<QueueItem> items =
          recovery_items(failures.lost_tensors);
      queue.assign(items.begin(), items.end());
      head = 0;
      note_recovery(failures.devices.front(), items.size());
      if (!drain()) return false;
      sim.barrier();
    }
    return true;
  };

  for (const VectorWorkload& vec : stream.vectors) {
    ++vector_index;
    if (vec.tasks.empty()) continue;
    const double vector_start_s = sim.metrics().makespan_s;

    watch.restart();
    const DataCharacteristics characteristics =
        extract_characteristics(vec, sim);
    if (options.bounds != nullptr && micco_sched != nullptr) {
      micco_sched->set_reuse_bounds(
          options.bounds->bounds_for(characteristics));
    }
    scheduler.begin_vector(vec, sim);
    const std::vector<std::size_t> order =
        visit_order(vec, sim, options.ordering);
    if (evict_policy != nullptr) evict_policy->begin_vector(vec, order);
    overhead_us += watch.elapsed_us();
    result.per_vector_characteristics.push_back(characteristics);

    queue.clear();
    head = 0;
    std::int64_t policy_pos = 0;
    for (const std::size_t index : order) {
      queue.push_back(QueueItem{&vec.tasks[index],
                                static_cast<std::int64_t>(index),
                                policy_pos++});
    }
    if (!drain()) break;

    watch.restart();
    scheduler.end_vector();
    overhead_us += watch.elapsed_us();
    if (!barrier_and_recover()) break;

    if (tracing) {
      obs::SpanEvent sched_span;
      sched_span.name = obs::names::kSpanSched;
      sched_span.vector_index = vector_index;
      sched_span.attrs_int.emplace_back(
          "pairs", static_cast<std::int64_t>(vec.tasks.size()));
      emit_span(std::move(sched_span));

      const double vector_end_s = sim.metrics().makespan_s;
      obs::SpanEvent exec_span;
      exec_span.name = obs::names::kSpanExec;
      exec_span.vector_index = vector_index;
      exec_span.sim_time_s = vector_end_s;
      exec_span.duration_ms = (vector_end_s - vector_start_s) * 1000.0;
      emit_span(std::move(exec_span));
    }
  }

  // Detach so the scheduler never outlives a caller-owned telemetry bundle
  // with a dangling pointer; the next run_stream reattaches.
  scheduler.set_telemetry(nullptr);

  result.metrics = sim.metrics();
  // Scale the sampled decisions up to all D of them: T = ceil(D / stride)
  // were timed.
  const std::uint64_t timed_decisions =
      (decisions + kDecisionClockStride - 1) / kDecisionClockStride;
  if (timed_decisions > 0) {
    overhead_us += sampled_assign_us * static_cast<double>(decisions) /
                   static_cast<double>(timed_decisions);
  }
  result.scheduling_overhead_ms = overhead_us / 1000.0;

  result.num_devices = sim.num_devices();
  result.device_utilization = sim.utilization();
  result.device_resident_bytes.reserve(
      static_cast<std::size_t>(result.num_devices));
  for (int dev = 0; dev < result.num_devices; ++dev) {
    result.device_resident_bytes.push_back(sim.memory_used(dev));
  }
  return result;
}

obs::JsonValue make_run_report(const RunResult& result,
                               const obs::Telemetry& telemetry) {
  obs::ReportInputs in;
  in.scheduler = result.scheduler_name;
  in.num_devices = result.num_devices;
  in.metrics = to_json(result.metrics);
  in.makespan_s = result.metrics.makespan_s;
  in.gflops = result.metrics.gflops();
  in.scheduling_overhead_ms = result.scheduling_overhead_ms;
  in.reuse_rate = result.metrics.reuse_rate();

  for (std::size_t i = 0; i < result.device_utilization.size(); ++i) {
    obs::DeviceRollup rollup;
    rollup.device = static_cast<int>(i);
    rollup.busy_s = result.device_utilization[i] * result.metrics.makespan_s;
    rollup.utilization = result.device_utilization[i];
    in.devices.push_back(rollup);
  }

  obs::JsonValue report = obs::build_report(in, telemetry.registry);

  // Fault/recovery section, present only when something actually went wrong
  // (or was injected): fault-free reports stay byte-identical to reports
  // from before the fault model existed.
  if (result.metrics.any_faults() || result.tasks_reexecuted > 0 ||
      !result.error.empty()) {
    obs::JsonValue faults = obs::JsonValue::object();
    faults.set("devices_lost", result.metrics.devices_lost);
    faults.set("transfer_faults", result.metrics.transfer_faults);
    faults.set("retry_backoff_s", result.metrics.retry_backoff_s);
    faults.set("tasks_lost", result.metrics.tasks_lost);
    faults.set("tasks_reexecuted", result.tasks_reexecuted);
    faults.set("capacity_faults", result.metrics.capacity_faults);
    faults.set("recovered", result.recovered());
    faults.set("completed", result.completed);
    report.set("faults", std::move(faults));
  }
  if (!result.error.empty()) report.set("error", result.error);

  // Per-vector rollup: the observed characteristics the bounds model ran on.
  report.set("vectors", per_vector_json(result));
  return report;
}

obs::JsonValue per_vector_json(const RunResult& result) {
  obs::JsonValue vectors = obs::JsonValue::array();
  for (const DataCharacteristics& c : result.per_vector_characteristics) {
    obs::JsonValue entry = obs::JsonValue::object();
    entry.set("vector_size", c.vector_size);
    entry.set("tensor_extent", c.tensor_extent);
    entry.set("distribution_bias", c.distribution_bias);
    entry.set("repeated_rate", c.repeated_rate);
    vectors.push_back(std::move(entry));
  }
  return vectors;
}

RunResult run_stream(const WorkloadStream& stream, Scheduler& scheduler,
                     const ClusterConfig& cluster, BoundsProvider* bounds) {
  RunOptions options;
  options.bounds = bounds;
  return run_stream(stream, scheduler, cluster, options);
}

std::uint64_t capacity_for_oversubscription(const WorkloadStream& stream,
                                            int num_devices, double rate,
                                            std::uint64_t min_capacity) {
  // Degenerate requests — reachable from CLI flags and empty workload
  // files — get the documented floor instead of a division by zero.
  if (num_devices < 1 || rate <= 0.0) return min_capacity;
  const std::uint64_t footprint = stream.total_distinct_bytes();
  if (footprint == 0) return min_capacity;
  const double share =
      static_cast<double>(footprint) / static_cast<double>(num_devices);
  const double capacity = share / rate;
  // Under-subscription (rate < 1.0) inflates the share; clamp before the
  // float-to-integer cast can overflow.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const std::uint64_t clamped =
      capacity >= static_cast<double>(kMax)
          ? kMax
          : static_cast<std::uint64_t>(capacity);
  return std::max(clamped, min_capacity);
}

}  // namespace micco
