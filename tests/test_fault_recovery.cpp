// Fault-tolerant scheduling end to end: device loss mid-stream, transient
// transfer faults with retry, graceful degradation, structured errors, and
// the guarantee that an attached-but-empty fault plan changes nothing.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/pipeline.hpp"
#include "faults/fault_plan.hpp"
#include "faults/injector.hpp"
#include "gpusim/cluster.hpp"
#include "obs/events.hpp"
#include "obs/telemetry.hpp"
#include "sched/micco_scheduler.hpp"
#include "workload/synthetic.hpp"

namespace micco {
namespace {

SyntheticConfig small_workload() {
  SyntheticConfig c;
  c.num_vectors = 6;
  c.vector_size = 24;
  c.tensor_extent = 64;
  c.batch = 2;
  c.repeated_rate = 0.5;
  c.seed = 7;
  return c;
}

ClusterConfig cluster_of(int devices,
                         std::uint64_t capacity = 256ull << 20) {
  ClusterConfig c;
  c.num_devices = devices;
  c.device_capacity_bytes = capacity;
  return c;
}

RunResult run_with(const WorkloadStream& stream, Scheduler& scheduler,
                   const ClusterConfig& cluster, const FaultPlan* plan,
                   RetryPolicy retry = {}, obs::Telemetry* telemetry = nullptr) {
  RunOptions options;
  options.faults = plan;
  options.retry = retry;
  options.telemetry = telemetry;
  return run_stream(stream, scheduler, cluster, options);
}

TensorDesc make_desc(TensorId id, std::int64_t extent = 16,
                     std::int64_t batch = 1) {
  return TensorDesc{id, 2, extent, batch};
}

ContractionTask make_task(TensorId a, TensorId b, TensorId out,
                          std::int64_t extent = 16, std::int64_t batch = 1) {
  return ContractionTask{make_desc(a, extent, batch),
                         make_desc(b, extent, batch),
                         make_desc(out, extent, batch)};
}

// ----------------------------------------------------------- device failure

TEST(FaultRecovery, MidStreamDeviceLossRecoversAndCompletes) {
  const WorkloadStream stream = generate_synthetic(small_workload());

  MiccoScheduler clean_sched;
  const RunResult clean = run_with(stream, clean_sched, cluster_of(4), nullptr);
  ASSERT_TRUE(clean.completed);
  ASSERT_GT(clean.metrics.makespan_s, 0.0);

  FaultPlan plan;
  plan.device_failures.push_back(
      DeviceFailure{1, clean.metrics.makespan_s / 2.0});

  MiccoScheduler sched;
  const RunResult result = run_with(stream, sched, cluster_of(4), &plan);
  EXPECT_TRUE(result.completed);
  EXPECT_TRUE(result.error.empty()) << result.error;
  EXPECT_TRUE(result.recovered());
  EXPECT_EQ(result.metrics.devices_lost, 1u);
  // Every pair still ran; re-executions only add flops on top.
  EXPECT_GE(result.metrics.total_flops, stream.total_flops());
  EXPECT_GE(result.tasks_reexecuted, 1u);
}

TEST(FaultRecovery, DegradedMakespanBoundedByThreeGpuRun) {
  const WorkloadStream stream = generate_synthetic(small_workload());

  MiccoScheduler s4;
  const RunResult clean4 = run_with(stream, s4, cluster_of(4), nullptr);
  MiccoScheduler s3;
  const RunResult clean3 = run_with(stream, s3, cluster_of(3), nullptr);
  ASSERT_TRUE(clean4.completed);
  ASSERT_TRUE(clean3.completed);

  FaultPlan plan;
  plan.device_failures.push_back(
      DeviceFailure{1, clean4.metrics.makespan_s / 2.0});
  MiccoScheduler sched;
  const RunResult faulted = run_with(stream, sched, cluster_of(4), &plan);
  ASSERT_TRUE(faulted.completed);
  EXPECT_TRUE(faulted.recovered());

  // Losing 1 of 4 devices halfway through must not be meaningfully worse
  // than never having had the device at all. The slack covers recovery's
  // intrinsic cost: the casualty's outputs have no host copies at this
  // capacity, so its entire first-half history is recomputed (work-wise
  // that lands exactly on the 3-GPU total) plus re-fetches and the extra
  // barrier idle the mid-vector rebalance causes.
  EXPECT_GE(faulted.metrics.makespan_s, clean4.metrics.makespan_s);
  EXPECT_LE(faulted.metrics.makespan_s, clean3.metrics.makespan_s * 1.15);
}

TEST(FaultRecovery, DeviceFailureEmitsFaultEvents) {
  const WorkloadStream stream = generate_synthetic(small_workload());
  FaultPlan plan;
  plan.device_failures.push_back(DeviceFailure{0, 0.0});

  obs::MemoryEventSink sink;
  obs::Telemetry telemetry;
  telemetry.sink = &sink;
  MiccoScheduler sched;
  const RunResult result =
      run_with(stream, sched, cluster_of(4), &plan, {}, &telemetry);
  ASSERT_TRUE(result.completed);

  int failures = 0;
  int recoveries = 0;
  for (const obs::ClusterEvent& e : sink.cluster_events()) {
    if (e.kind == obs::ClusterEventKind::kDeviceFailure) {
      ++failures;
      EXPECT_EQ(e.device, 0);
    }
    if (e.kind == obs::ClusterEventKind::kRecovery) ++recoveries;
  }
  EXPECT_EQ(failures, 1);
  EXPECT_GE(recoveries, 1);
}

TEST(FaultRecovery, AllDevicesFailedIsStructuredError) {
  const WorkloadStream stream = generate_synthetic(small_workload());
  FaultPlan plan;
  plan.device_failures.push_back(DeviceFailure{0, 0.0});
  plan.device_failures.push_back(DeviceFailure{1, 0.0});

  MiccoScheduler sched;
  const RunResult result = run_with(stream, sched, cluster_of(2), &plan);
  EXPECT_FALSE(result.completed);
  EXPECT_FALSE(result.recovered());
  EXPECT_NE(result.error.find("all devices failed"), std::string::npos)
      << result.error;
  EXPECT_EQ(result.metrics.devices_lost, 2u);
}

// ----------------------------------------------------------- transfer faults

TEST(FaultRecovery, TransientTransferFaultsRetryAndComplete) {
  const WorkloadStream stream = generate_synthetic(small_workload());

  MiccoScheduler clean_sched;
  const RunResult clean = run_with(stream, clean_sched, cluster_of(4), nullptr);

  FaultPlan plan;
  plan.transfer.probability = 0.05;
  plan.transfer.seed = 2026;

  MiccoScheduler sched;
  const RunResult result = run_with(stream, sched, cluster_of(4), &plan);
  ASSERT_TRUE(result.completed) << result.error;
  EXPECT_GT(result.metrics.transfer_faults, 0u);
  EXPECT_GT(result.metrics.retry_backoff_s, 0.0);
  EXPECT_EQ(result.metrics.devices_lost, 0u);
  // Wasted attempts + backoff only ever stretch the simulated clock.
  EXPECT_GE(result.metrics.makespan_s, clean.metrics.makespan_s);
  EXPECT_EQ(result.metrics.total_flops, stream.total_flops());
}

TEST(FaultRecovery, RetryExhaustionEscalatesToDeviceFailure) {
  // With near-certain per-attempt failure and only two tries, the first
  // transfer on each device exhausts its retries and the link is declared
  // dead; once every device is gone the run ends with a structured error
  // instead of an abort.
  const WorkloadStream stream = generate_synthetic(small_workload());
  FaultPlan plan;
  plan.transfer.probability = 0.999;
  RetryPolicy retry;
  retry.max_attempts = 2;

  MiccoScheduler sched;
  const RunResult result = run_with(stream, sched, cluster_of(2), &plan, retry);
  EXPECT_GT(result.metrics.transfer_faults, 0u);
  EXPECT_GT(result.metrics.devices_lost, 0u);
  if (!result.completed) {
    EXPECT_NE(result.error.find("all devices failed"), std::string::npos)
        << result.error;
  }
}

// ------------------------------------------------- capacity loss & slowdown

TEST(FaultRecovery, CapacityLossAppliedAndRunCompletes) {
  const WorkloadStream stream = generate_synthetic(small_workload());
  FaultPlan plan;
  plan.capacity_losses.push_back(CapacityLoss{0, 128ull << 20, 0.0});

  MiccoScheduler sched;
  const RunResult result =
      run_with(stream, sched, cluster_of(2, 256ull << 20), &plan);
  ASSERT_TRUE(result.completed) << result.error;
  EXPECT_EQ(result.metrics.capacity_faults, 1u);
  EXPECT_EQ(result.metrics.devices_lost, 0u);
}

TEST(FaultRecovery, SlowdownStretchesMakespan) {
  const WorkloadStream stream = generate_synthetic(small_workload());

  MiccoScheduler clean_sched;
  const RunResult clean = run_with(stream, clean_sched, cluster_of(2), nullptr);

  FaultPlan plan;
  plan.slowdowns.push_back(DeviceSlowdown{0, 4.0, 0.0});
  MiccoScheduler sched;
  const RunResult slow = run_with(stream, sched, cluster_of(2), &plan);
  ASSERT_TRUE(slow.completed);
  EXPECT_GT(slow.metrics.makespan_s, clean.metrics.makespan_s);
}

// -------------------------------------------------------- structured errors

TEST(FaultRecovery, OversizedTaskIsStructuredErrorNotAbort) {
  WorkloadStream stream;
  VectorWorkload vec;
  vec.tasks.push_back(make_task(1, 2, 3, 64, 16));  // ~3 MiB working set
  stream.vectors.push_back(vec);

  MiccoScheduler sched;
  const RunResult result =
      run_with(stream, sched, cluster_of(1, 1024), nullptr);
  EXPECT_FALSE(result.completed);
  EXPECT_NE(result.error.find("exceeds device capacity"), std::string::npos)
      << result.error;
}

TEST(FaultRecovery, InvalidPlanForClusterIsStructuredError) {
  const WorkloadStream stream = generate_synthetic(small_workload());
  FaultPlan plan;
  plan.device_failures.push_back(DeviceFailure{7, 0.0});  // only 2 devices

  MiccoScheduler sched;
  const RunResult result = run_with(stream, sched, cluster_of(2), &plan);
  EXPECT_FALSE(result.completed);
  EXPECT_NE(result.error.find("invalid fault configuration"),
            std::string::npos)
      << result.error;
  EXPECT_EQ(result.metrics.total_flops, 0u);
}

// --------------------------------------------------- scheduler-side property

std::vector<SchedulerKind> all_scheduler_kinds() {
  return {SchedulerKind::kGroute, SchedulerKind::kRoundRobin,
          SchedulerKind::kDmda, SchedulerKind::kMiccoNaive,
          SchedulerKind::kMiccoOptimal};
}

TEST(FaultRecovery, NoSchedulerAssignsPairsToFailedDevice) {
  // run_stream fails the run with a "scheduler assigned a pair to failed
  // device" error if any scheduler violates the liveness contract; a clean
  // recovery from every scheduler is the property holding end to end.
  const WorkloadStream stream = generate_synthetic(small_workload());
  FaultPlan plan;
  plan.device_failures.push_back(DeviceFailure{1, 0.0});

  for (const SchedulerKind kind : all_scheduler_kinds()) {
    const std::unique_ptr<Scheduler> scheduler = make_scheduler(kind);
    const RunResult result =
        run_with(stream, *scheduler, cluster_of(4), &plan);
    EXPECT_TRUE(result.completed) << to_string(kind) << ": " << result.error;
    EXPECT_TRUE(result.error.empty()) << to_string(kind) << ": "
                                      << result.error;
    EXPECT_EQ(result.metrics.devices_lost, 1u) << to_string(kind);
    EXPECT_TRUE(result.recovered()) << to_string(kind);
  }
}

TEST(FaultRecovery, AssignNeverReturnsDeadDeviceDirectly) {
  ClusterSimulator sim(cluster_of(4));
  sim.fail_device(2, 0.0);
  ASSERT_FALSE(sim.device_alive(2));
  ASSERT_EQ(sim.num_alive_devices(), 3);

  VectorWorkload vec;
  for (TensorId i = 0; i < 16; ++i) {
    vec.tasks.push_back(make_task(3 * i, 3 * i + 1, 1000 + i));
  }

  for (const SchedulerKind kind : all_scheduler_kinds()) {
    const std::unique_ptr<Scheduler> scheduler = make_scheduler(kind);
    scheduler->begin_vector(vec, sim);
    for (const ContractionTask& task : vec.tasks) {
      const DeviceId dev = scheduler->assign(task, sim);
      EXPECT_NE(dev, 2) << to_string(kind);
      EXPECT_TRUE(sim.device_alive(dev)) << to_string(kind);
    }
  }
}

TEST(FaultRecovery, MiccoRecomputesBalanceNumOverSurvivors) {
  ClusterSimulator sim(cluster_of(4));
  VectorWorkload vec;
  for (TensorId i = 0; i < 12; ++i) {
    vec.tasks.push_back(make_task(2 * i, 2 * i + 1, 1000 + i));
  }
  ASSERT_EQ(vec.unique_inputs().size(), 24u);

  MiccoScheduler sched;
  sched.begin_vector(vec, sim);
  EXPECT_EQ(sched.balance_num(), 6);  // 24 distinct inputs / 4 devices

  sim.fail_device(1, 0.0);
  sched.on_device_failure(1, sim);
  EXPECT_EQ(sched.balance_num(), 8);  // 24 / 3 survivors
}

// ---------------------------------------------------------------- determinism

std::string decisions_dump(const obs::MemoryEventSink& sink) {
  std::string out;
  for (const obs::DecisionEvent& e : sink.decisions()) {
    out += e.to_json().dump();
    out += '\n';
  }
  return out;
}

std::string cluster_events_dump(const obs::MemoryEventSink& sink) {
  std::string out;
  for (const obs::ClusterEvent& e : sink.cluster_events()) {
    out += e.to_json().dump();
    out += '\n';
  }
  return out;
}

TEST(FaultRecovery, EmptyPlanIsByteIdenticalToNoPlan) {
  const WorkloadStream stream = generate_synthetic(small_workload());
  const FaultPlan empty_plan;
  ASSERT_TRUE(empty_plan.empty());

  obs::MemoryEventSink sink_a;
  obs::Telemetry tel_a;
  tel_a.sink = &sink_a;
  MiccoScheduler sched_a;
  RunResult a = run_with(stream, sched_a, cluster_of(4), nullptr, {}, &tel_a);

  obs::MemoryEventSink sink_b;
  obs::Telemetry tel_b;
  tel_b.sink = &sink_b;
  MiccoScheduler sched_b;
  RunResult b =
      run_with(stream, sched_b, cluster_of(4), &empty_plan, {}, &tel_b);

  EXPECT_EQ(to_json(a.metrics).dump(), to_json(b.metrics).dump());
  EXPECT_EQ(decisions_dump(sink_a), decisions_dump(sink_b));
  EXPECT_EQ(cluster_events_dump(sink_a), cluster_events_dump(sink_b));

  // The full run report is byte-identical too, once the one wall-clock
  // field (scheduler overhead) is pinned; everything else is simulated.
  a.scheduling_overhead_ms = 0.0;
  b.scheduling_overhead_ms = 0.0;
  EXPECT_EQ(make_run_report(a, tel_a).dump(), make_run_report(b, tel_b).dump());
}

TEST(FaultRecovery, SameSeedAndPlanAreByteIdentical) {
  const WorkloadStream stream = generate_synthetic(small_workload());
  FaultPlan plan;
  plan.device_failures.push_back(DeviceFailure{2, 0.001});
  plan.transfer.probability = 0.05;
  plan.transfer.seed = 99;

  obs::MemoryEventSink sink_a;
  obs::Telemetry tel_a;
  tel_a.sink = &sink_a;
  MiccoScheduler sched_a;
  RunResult a = run_with(stream, sched_a, cluster_of(4), &plan, {}, &tel_a);

  obs::MemoryEventSink sink_b;
  obs::Telemetry tel_b;
  tel_b.sink = &sink_b;
  MiccoScheduler sched_b;
  RunResult b = run_with(stream, sched_b, cluster_of(4), &plan, {}, &tel_b);

  ASSERT_TRUE(a.completed) << a.error;
  EXPECT_EQ(a.metrics.devices_lost, 1u);
  EXPECT_DOUBLE_EQ(a.metrics.makespan_s, b.metrics.makespan_s);
  EXPECT_EQ(to_json(a.metrics).dump(), to_json(b.metrics).dump());
  EXPECT_EQ(decisions_dump(sink_a), decisions_dump(sink_b));
  EXPECT_EQ(cluster_events_dump(sink_a), cluster_events_dump(sink_b));

  a.scheduling_overhead_ms = 0.0;
  b.scheduling_overhead_ms = 0.0;
  EXPECT_EQ(make_run_report(a, tel_a).dump(), make_run_report(b, tel_b).dump());
}

// ------------------------------------------------- capacity sizing edge cases

TEST(CapacitySizing, DegenerateInputsReturnFloor) {
  const WorkloadStream stream = generate_synthetic(small_workload());
  const WorkloadStream empty;
  const std::uint64_t floor = 4096;
  EXPECT_EQ(capacity_for_oversubscription(stream, 0, 2.0, floor), floor);
  EXPECT_EQ(capacity_for_oversubscription(stream, -3, 2.0, floor), floor);
  EXPECT_EQ(capacity_for_oversubscription(empty, 4, 2.0, floor), floor);
  EXPECT_EQ(capacity_for_oversubscription(stream, 4, 0.0, floor), floor);
  EXPECT_EQ(capacity_for_oversubscription(stream, 4, -1.0, floor), floor);
}

TEST(CapacitySizing, RatesBelowOneInflateCapacity) {
  const WorkloadStream stream = generate_synthetic(small_workload());
  const std::uint64_t at_100 =
      capacity_for_oversubscription(stream, 4, 1.0, 1);
  const std::uint64_t at_050 =
      capacity_for_oversubscription(stream, 4, 0.5, 1);
  EXPECT_NEAR(static_cast<double>(at_050) / static_cast<double>(at_100), 2.0,
              0.01);
  // A floor above the inflated share still wins.
  const std::uint64_t huge_floor = 1ull << 40;
  EXPECT_EQ(capacity_for_oversubscription(stream, 4, 0.5, huge_floor),
            huge_floor);
}

}  // namespace
}  // namespace micco
