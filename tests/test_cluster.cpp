#include "gpusim/cluster.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "mem/policy.hpp"
#include "workload/synthetic.hpp"

namespace micco {
namespace {

TensorDesc make_desc(TensorId id, std::int64_t extent = 16,
                     std::int64_t batch = 1) {
  return TensorDesc{id, 2, extent, batch};
}

ContractionTask make_task(TensorId a, TensorId b, TensorId out,
                          std::int64_t extent = 16, std::int64_t batch = 1) {
  ContractionTask t;
  t.a = make_desc(a, extent, batch);
  t.b = make_desc(b, extent, batch);
  t.out = make_desc(out, extent, batch);
  return t;
}

ClusterConfig small_cluster(int devices = 2,
                            std::uint64_t capacity = 64ull << 20) {
  ClusterConfig c;
  c.num_devices = devices;
  c.device_capacity_bytes = capacity;
  return c;
}

TEST(Cluster, FreshClusterIsEmptyAndIdle) {
  ClusterSimulator sim(small_cluster());
  EXPECT_EQ(sim.num_devices(), 2);
  for (DeviceId d = 0; d < 2; ++d) {
    EXPECT_EQ(sim.memory_used(d), 0u);
    EXPECT_DOUBLE_EQ(sim.busy_time(d), 0.0);
  }
  EXPECT_FALSE(sim.resident_anywhere(0));
  EXPECT_TRUE(sim.devices_holding(0).empty());
}

TEST(Cluster, ExecutePlacesOperandsAndOutput) {
  ClusterSimulator sim(small_cluster());
  sim.execute(make_task(0, 1, 2), 0);
  EXPECT_TRUE(sim.resident_on(0, 0));
  EXPECT_TRUE(sim.resident_on(0, 1));
  EXPECT_TRUE(sim.resident_on(0, 2));
  EXPECT_FALSE(sim.resident_on(1, 0));
  EXPECT_GT(sim.busy_time(0), 0.0);
  EXPECT_DOUBLE_EQ(sim.busy_time(1), 0.0);

  const ExecutionMetrics& m = sim.metrics();
  EXPECT_EQ(m.h2d_transfers, 2u);      // two operands from the host
  EXPECT_EQ(m.allocations, 3u);        // a, b, out
  EXPECT_EQ(m.fetched_operands, 2u);
  EXPECT_EQ(m.reused_operands, 0u);
  EXPECT_EQ(m.total_flops, make_task(0, 1, 2).flops());
}

TEST(Cluster, ResidentOperandsAreReusedWithoutTransfer) {
  ClusterSimulator sim(small_cluster());
  sim.execute(make_task(0, 1, 2), 0);
  const std::uint64_t h2d_before = sim.metrics().h2d_transfers;
  sim.execute(make_task(0, 1, 3), 0);  // same operands, same device
  EXPECT_EQ(sim.metrics().h2d_transfers, h2d_before);
  EXPECT_EQ(sim.metrics().reused_operands, 2u);
}

TEST(Cluster, ReuseIsFasterThanRefetch) {
  ClusterSimulator reuse_sim(small_cluster());
  reuse_sim.execute(make_task(0, 1, 2, 64, 8), 0);
  reuse_sim.execute(make_task(0, 1, 3, 64, 8), 0);

  ClusterSimulator spread_sim(small_cluster());
  spread_sim.execute(make_task(0, 1, 2, 64, 8), 0);
  spread_sim.execute(make_task(0, 1, 3, 64, 8), 1);  // re-fetch on device 1

  EXPECT_LT(reuse_sim.busy_time(0),
            spread_sim.busy_time(0) + spread_sim.busy_time(1));
}

TEST(Cluster, P2PPreferredOverHostWhenReplicaExists) {
  ClusterConfig cfg = small_cluster();
  cfg.p2p_enabled = true;
  ClusterSimulator sim(cfg);
  sim.execute(make_task(0, 1, 2), 0);
  sim.execute(make_task(0, 3, 4), 1);  // tensor 0 comes from device 0 via P2P
  EXPECT_EQ(sim.metrics().p2p_transfers, 1u);
  EXPECT_EQ(sim.metrics().h2d_transfers, 3u);  // 1, and 3 from host (+2 first)
}

TEST(Cluster, P2PDisabledFallsBackToHost) {
  ClusterConfig cfg = small_cluster();
  cfg.p2p_enabled = false;
  ClusterSimulator sim(cfg);
  sim.execute(make_task(0, 1, 2), 0);
  sim.execute(make_task(0, 3, 4), 1);
  EXPECT_EQ(sim.metrics().p2p_transfers, 0u);
  EXPECT_EQ(sim.metrics().h2d_transfers, 4u);
}

TEST(Cluster, SameOperandTwiceFetchesOnce) {
  ClusterSimulator sim(small_cluster());
  sim.execute(make_task(7, 7, 8), 0);
  EXPECT_EQ(sim.metrics().h2d_transfers, 1u);
  EXPECT_EQ(sim.metrics().allocations, 2u);  // operand + output
}

TEST(Cluster, EvictionOnCapacityPressure) {
  // Capacity fits exactly 4 tensors of extent 16 (16*16*16B = 4 KiB each).
  const std::uint64_t tensor_bytes = make_desc(0).bytes();
  ClusterSimulator sim(small_cluster(1, 4 * tensor_bytes));
  sim.execute(make_task(0, 1, 2), 0);   // 3 resident
  sim.execute(make_task(3, 4, 5), 0);   // needs 3 more -> evictions
  EXPECT_GT(sim.metrics().evictions, 0u);
  EXPECT_LE(sim.memory_used(0), 4 * tensor_bytes);
}

TEST(Cluster, DirtyEvictionWritesBack) {
  const std::uint64_t tensor_bytes = make_desc(0).bytes();
  ClusterSimulator sim(small_cluster(1, 4 * tensor_bytes));
  sim.execute(make_task(0, 1, 2), 0);
  // Touch order makes output 2 LRU-newest; fill memory so older inputs go
  // first (clean), then keep pushing until the dirty output goes too.
  sim.execute(make_task(3, 4, 5), 0);
  sim.execute(make_task(6, 7, 8), 0);
  const ExecutionMetrics& m = sim.metrics();
  EXPECT_GT(m.evictions, 0u);
  EXPECT_GT(m.dirty_evictions, 0u);
  EXPECT_GT(m.writeback_bytes, 0u);
}

TEST(Cluster, EvictedTensorNoLongerResident) {
  const std::uint64_t tensor_bytes = make_desc(0).bytes();
  ClusterSimulator sim(small_cluster(1, 3 * tensor_bytes));
  sim.execute(make_task(0, 1, 2), 0);
  sim.execute(make_task(3, 4, 5), 0);  // evicts 0, 1, 2
  EXPECT_FALSE(sim.resident_anywhere(0));
  EXPECT_TRUE(sim.resident_on(0, 5));
}

TEST(Cluster, TaskLargerThanCapacityIsStructuredError) {
  // Reachable from user-supplied workloads, so it must be a recoverable
  // outcome rather than an abort; nothing is committed for the failed task.
  ClusterSimulator sim(small_cluster(1, 1024));
  const ExecuteResult r = sim.execute(make_task(0, 1, 2, 64, 16), 0);
  EXPECT_EQ(r.outcome, TaskOutcome::kCapacityExceeded);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(sim.device_alive(0));
  EXPECT_EQ(sim.metrics().total_flops, 0u);
}

TEST(Cluster, BarrierSynchronisesTimelines) {
  ClusterSimulator sim(small_cluster());
  sim.execute(make_task(0, 1, 2, 64, 8), 0);  // only device 0 works
  const double busy0 = sim.busy_time(0);
  sim.barrier();
  EXPECT_DOUBLE_EQ(sim.busy_time(0), busy0);
  EXPECT_DOUBLE_EQ(sim.busy_time(1), busy0);
  EXPECT_GT(sim.metrics().barrier_idle_s, 0.0);
  EXPECT_DOUBLE_EQ(sim.metrics().makespan_s, busy0);
}

TEST(Cluster, MakespanIsMaxDeviceTime) {
  ClusterSimulator sim(small_cluster());
  sim.execute(make_task(0, 1, 2, 64, 8), 0);
  sim.execute(make_task(3, 4, 5, 16, 1), 1);
  sim.barrier();
  EXPECT_DOUBLE_EQ(sim.metrics().makespan_s,
                   std::max(sim.busy_time(0), sim.busy_time(1)));
}

TEST(Cluster, GflopsConsistentWithTotals) {
  ClusterSimulator sim(small_cluster());
  sim.execute(make_task(0, 1, 2, 64, 4), 0);
  sim.barrier();
  const ExecutionMetrics& m = sim.metrics();
  EXPECT_NEAR(m.gflops(),
              static_cast<double>(m.total_flops) / m.makespan_s / 1e9,
              1e-9);
}

TEST(Cluster, OverlapModeShortensElapsedTime) {
  ClusterConfig serial = small_cluster(1);
  ClusterConfig overlap = serial;
  overlap.overlap_transfers = true;

  ClusterSimulator a(serial), b(overlap);
  for (TensorId i = 0; i < 12; i += 3) {
    const ContractionTask t = make_task(i, i + 1, i + 2, 128, 8);
    a.execute(t, 0);
    b.execute(t, 0);
  }
  EXPECT_LT(b.busy_time(0), a.busy_time(0));
}

TEST(Cluster, UtilizationReflectsWorkShare) {
  ClusterSimulator sim(small_cluster());
  sim.execute(make_task(0, 1, 2, 64, 8), 0);
  sim.barrier();
  const std::vector<double> util = sim.utilization();
  ASSERT_EQ(util.size(), 2u);
  EXPECT_GT(util[0], 0.9);
  EXPECT_DOUBLE_EQ(util[1], 0.0);
}

TEST(Cluster, HostResidencySemantics) {
  ClusterSimulator sim(small_cluster());
  // Originals are host-staged by definition, even before first use.
  EXPECT_TRUE(sim.host_resident(0));
  sim.execute(make_task(0, 1, 2), 0);
  // Produced intermediates have no host copy until eviction writes back.
  EXPECT_FALSE(sim.host_resident(2));
  EXPECT_TRUE(sim.host_resident(0));
}

TEST(Cluster, EvictionCreatesHostCopyOfIntermediate) {
  const std::uint64_t tensor_bytes = make_desc(0).bytes();
  ClusterConfig cfg = small_cluster(1, 3 * tensor_bytes);
  ClusterSimulator sim(cfg);
  sim.execute(make_task(0, 1, 2), 0);
  sim.execute(make_task(3, 4, 5), 0);  // evicts 0, 1, 2 (incl. output 2)
  EXPECT_FALSE(sim.resident_anywhere(2));
  EXPECT_TRUE(sim.host_resident(2));  // written back on eviction
  // The evicted intermediate is refetchable (from the host copy).
  sim.execute(make_task(2, 5, 6), 0);
  EXPECT_TRUE(sim.resident_on(0, 2));
}

TEST(Cluster, WriteBackGivesHostCopyToSparseIdIntermediate) {
  // Ids at or above 2^20 live in the residency index's sparse spill; the
  // produced and host-copy bits must work there as in the dense table.
  const TensorId big = (TensorId{1} << 20) + 7;
  const std::uint64_t tensor_bytes = make_desc(0).bytes();
  ClusterSimulator sim(small_cluster(1, 3 * tensor_bytes));
  EXPECT_TRUE(sim.host_resident(big + 1));  // an original, never seen
  sim.execute(make_task(0, 1, big), 0);
  EXPECT_FALSE(sim.host_resident(big));  // produced, not yet written back
  sim.execute(make_task(3, 4, 5), 0);  // evicts 0, 1 and the output
  EXPECT_FALSE(sim.resident_anywhere(big));
  EXPECT_GT(sim.metrics().dirty_evictions, 0u);
  EXPECT_TRUE(sim.host_resident(big));  // written back on eviction
  sim.execute(make_task(big, 5, 6), 0);  // refetched from the host copy
  EXPECT_TRUE(sim.resident_on(0, big));
  EXPECT_TRUE(sim.host_resident(big));
}

TEST(Cluster, FetchingDiscardedIntermediateAborts) {
  ClusterSimulator sim(small_cluster());
  sim.execute(make_task(0, 1, 2), 0);
  // The only copy of the intermediate dies with its device; it was never
  // written back.
  EXPECT_EQ(sim.fail_device(0, 0.0), std::vector<TensorId>{2});
  EXPECT_DEATH(sim.execute(make_task(2, 3, 4), 1), "lost intermediate");
}

TEST(Cluster, InvalidDeviceAborts) {
  ClusterSimulator sim(small_cluster());
  EXPECT_DEATH(sim.execute(make_task(0, 1, 2), 5), "num_devices");
  EXPECT_DEATH((void)sim.memory_used(-1), "dev >= 0");
}

/// What one driven run leaves for comparison: the metrics (JSON numbers
/// print in shortest round-trip form, so equal dumps are equal bits), each
/// decision and each cluster event with its start time.
struct RunRecord {
  std::string metrics;
  std::vector<std::string> decisions;
  std::vector<std::string> events;

  bool operator==(const RunRecord&) const = default;
};

/// Drives `stream` through a fresh MICCO scheduler on `sim` pair by pair,
/// with a barrier per vector, feeding `policy` (when given) the future uses
/// run_stream would. A pair that loses its device is dropped after the
/// scheduler hears of the loss, and barrier failures are left pending: a
/// faulted run only has to leave the simulator dirty.
RunRecord drive(const WorkloadStream& stream, ClusterSimulator& sim,
                mem::EvictionPolicy* policy = nullptr) {
  obs::MemoryEventSink sink;
  obs::Telemetry telemetry;
  telemetry.sink = &sink;
  MiccoScheduler scheduler;
  scheduler.set_telemetry(&telemetry);
  sim.set_telemetry(&telemetry);
  if (policy != nullptr) sim.set_eviction_policy(policy);
  for (const VectorWorkload& vec : stream.vectors) {
    ++telemetry.vector_index;
    scheduler.begin_vector(vec, sim);
    std::vector<std::size_t> order(vec.tasks.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    if (policy != nullptr) policy->begin_vector(vec, order);
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (sim.num_alive_devices() == 0) break;
      const ContractionTask& task = vec.tasks[i];
      telemetry.pair_index = static_cast<std::int64_t>(i);
      const DeviceId dev = scheduler.assign(task, sim);
      if (policy != nullptr) {
        policy->observe_use(task, static_cast<std::int64_t>(i));
      }
      if (sim.execute(task, dev).outcome == TaskOutcome::kDeviceFailed) {
        scheduler.on_device_failure(dev, sim);
      }
    }
    sim.barrier();
  }
  sim.set_telemetry(nullptr);

  RunRecord record;
  record.metrics = to_json(sim.metrics()).dump();
  for (const obs::DecisionEvent& e : sink.decisions()) {
    record.decisions.push_back(e.to_json().dump());
  }
  for (const obs::ClusterEvent& e : sink.cluster_events()) {
    obs::JsonValue json = e.to_json();
    json.set("start_s", e.start_s);
    record.events.push_back(json.dump());
  }
  return record;
}

SyntheticConfig reset_stream(std::uint64_t seed) {
  SyntheticConfig c;
  c.num_vectors = 6;
  c.vector_size = 24;
  c.tensor_extent = 64;
  c.batch = 2;
  c.repeated_rate = 0.75;
  c.distribution = DataDistribution::kGaussian;
  c.seed = seed;
  return c;
}

TEST(Cluster, ResetRunsLikeAFreshSimulator) {
  // Dirty a simulator every way a run can: 200 % oversubscribed under
  // reuse-distance, a capacity loss, two device failures and a slowdown
  // from a fault plan, a sink attached. After reset() its next run of
  // another stream must be a fresh simulator's run, metrics bit for bit,
  // decision by decision and event by event.
  const WorkloadStream dirty_stream = generate_synthetic(reset_stream(5));
  const WorkloadStream next_stream = generate_synthetic(reset_stream(6));
  ClusterConfig config = small_cluster(4);
  config.device_capacity_bytes = capacity_for_oversubscription(
      dirty_stream, 4, 2.0, 8 * dirty_stream.vectors[0].tasks[0].a.bytes());
  double makespan = 0.0;
  {
    ClusterSimulator probe(config);
    drive(dirty_stream, probe);
    makespan = probe.metrics().makespan_s;
  }

  FaultPlan plan;
  plan.capacity_losses.push_back(
      CapacityLoss{1, config.device_capacity_bytes / 4, 0.25 * makespan});
  plan.device_failures.push_back(DeviceFailure{2, 0.5 * makespan});
  plan.device_failures.push_back(DeviceFailure{3, 0.95 * makespan});
  plan.slowdowns.push_back(DeviceSlowdown{0, 1.5, 0.0});
  FaultInjector injector(plan);
  const std::unique_ptr<mem::EvictionPolicy> reuse_distance =
      mem::make_policy(mem::EvictPolicyKind::kReuseDistance);
  ClusterSimulator sim(config);
  sim.set_fault_injector(&injector);
  drive(dirty_stream, sim, reuse_distance.get());
  EXPECT_LT(sim.num_alive_devices(), 4);
  EXPECT_GT(sim.metrics().capacity_faults, 0u);
  EXPECT_GT(sim.metrics().evictions, 0u);
  EXPECT_EQ(sim.metrics().evict_policy, "reuse_distance");
  EXPECT_FALSE(ClusterSimulator(sim).take_barrier_failures().empty());

  // The injector (its slowdown never runs out) and the policy outlive the
  // reset: a simulator still holding either would run the next stream
  // differently.
  sim.reset();
  ClusterSimulator fresh(config);
  EXPECT_EQ(sim.num_alive_devices(), 4);
  EXPECT_EQ(sim.eviction_policy(), fresh.eviction_policy());
  EXPECT_TRUE(sim.take_barrier_failures().empty());
  for (DeviceId d = 0; d < 4; ++d) {
    EXPECT_TRUE(sim.device_alive(d));
    EXPECT_EQ(sim.memory_used(d), 0u);
    EXPECT_EQ(sim.memory_capacity(d), config.device_capacity_bytes);
    EXPECT_EQ(sim.busy_time(d), 0.0);
    EXPECT_EQ(sim.device_memory(d).resident_count(), 0u);
  }

  const RunRecord reset_run = drive(next_stream, sim);
  const RunRecord fresh_run = drive(next_stream, fresh);
  EXPECT_GT(fresh.metrics().evictions, 0u);
  EXPECT_EQ(reset_run.metrics, fresh_run.metrics);
  EXPECT_EQ(reset_run.decisions, fresh_run.decisions);
  EXPECT_EQ(reset_run.events, fresh_run.events);
  EXPECT_EQ(sim.utilization(), fresh.utilization());
  // A task too large for the device that lost capacity is a capacity error
  // on both; a device still marked capacity-faulted would fail instead.
  const ContractionTask huge = make_task(1u << 19, (1u << 19) + 1,
                                         (1u << 19) + 2, 4096, 16);
  EXPECT_EQ(sim.execute(huge, 1).outcome, TaskOutcome::kCapacityExceeded);
  EXPECT_EQ(fresh.execute(huge, 1).outcome, TaskOutcome::kCapacityExceeded);
}

TEST(ClusterValidate, ReportsWhatTheSimulatorWouldRefuse) {
  EXPECT_EQ(ClusterConfig{}.validate(), "");
  EXPECT_EQ(small_cluster().validate(), "");
  ClusterConfig c;
  c.num_devices = 0;
  EXPECT_NE(c.validate().find("num_devices"), std::string::npos);
  c.num_devices = -2;
  EXPECT_NE(c.validate(), "");
  c = ClusterConfig{};
  c.device_capacity_bytes = 0;
  EXPECT_NE(c.validate().find("capacity"), std::string::npos);
}

}  // namespace
}  // namespace micco
