// Tests for the future-work extensions and ablations: the dmda data-aware
// baseline, multi-node topologies, and pair-ordering policies.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/experiment.hpp"
#include "gpusim/cost_model.hpp"
#include "sched/baselines.hpp"
#include "workload/synthetic.hpp"

namespace micco {
namespace {

TensorDesc make_desc(TensorId id, std::int64_t extent = 64) {
  return TensorDesc{id, 2, extent, 4};
}

ContractionTask make_task(TensorId a, TensorId b, TensorId out,
                          std::int64_t extent = 64) {
  ContractionTask t;
  t.a = make_desc(a, extent);
  t.b = make_desc(b, extent);
  t.out = make_desc(out, extent);
  return t;
}

ClusterConfig cluster_of(int devices) {
  ClusterConfig c;
  c.num_devices = devices;
  c.device_capacity_bytes = 1ull << 30;
  return c;
}

WorkloadStream test_stream(std::uint64_t seed = 5) {
  SyntheticConfig cfg;
  cfg.num_vectors = 8;
  cfg.vector_size = 32;
  cfg.tensor_extent = 128;
  cfg.batch = 4;
  cfg.repeated_rate = 0.75;
  cfg.seed = seed;
  return generate_synthetic(cfg);
}

// ------------------------------------------------------------------ dmda --

TEST(Dmda, PrefersDeviceHoldingOperands) {
  ClusterSimulator sim(cluster_of(2));
  sim.execute(make_task(0, 1, 2), 1);
  sim.barrier();  // equalise timelines: only locality differs now
  DmdaScheduler sched;
  EXPECT_EQ(sched.assign(make_task(0, 1, 3), sim), 1);
}

TEST(Dmda, SpreadsWhenNoLocalityExists) {
  ClusterSimulator sim(cluster_of(4));
  DmdaScheduler sched;
  std::set<DeviceId> used;
  for (TensorId i = 0; i < 16; i += 4) {
    const ContractionTask t = make_task(i, i + 1, i + 2);
    const DeviceId d = sched.assign(t, sim);
    sim.execute(t, d);
    used.insert(d);
  }
  EXPECT_EQ(used.size(), 4u);
}

TEST(Dmda, AbandonsLocalityWhenHolderIsOverloaded) {
  ClusterSimulator sim(cluster_of(2));
  sim.execute(make_task(0, 1, 2), 1);
  // Pile unrelated work on device 1 until re-fetching on device 0 wins.
  for (TensorId i = 10; i < 100; i += 3) {
    sim.execute(make_task(i, i + 1, i + 2, 256), 1);
  }
  DmdaScheduler sched;
  EXPECT_EQ(sched.assign(make_task(0, 1, 200), sim), 0);
}

TEST(Dmda, LandsBetweenGrouteAndMiccoOnReuseHeavyStreams) {
  const WorkloadStream stream = test_stream();
  const auto entries = compare_schedulers(
      stream, cluster_of(4),
      {SchedulerKind::kGroute, SchedulerKind::kDmda,
       SchedulerKind::kMiccoNaive});
  const double groute = entries[0].gflops();
  const double dmda = entries[1].gflops();
  EXPECT_GE(dmda, groute * 0.99);  // data-awareness must not hurt
}

TEST(Dmda, NameAndFactory) {
  EXPECT_EQ(DmdaScheduler{}.name(), "dmda");
  EXPECT_EQ(make_scheduler(SchedulerKind::kDmda)->name(), "dmda");
  EXPECT_STREQ(to_string(SchedulerKind::kDmda), "dmda");
}

// ------------------------------------------------------------- multinode --

TEST(MultiNode, NodeOfRespectsTopology) {
  ClusterConfig cfg = cluster_of(8);
  cfg.devices_per_node = 4;
  ClusterSimulator sim(cfg);
  EXPECT_EQ(sim.node_of(0), 0);
  EXPECT_EQ(sim.node_of(3), 0);
  EXPECT_EQ(sim.node_of(4), 1);
  EXPECT_EQ(sim.node_of(7), 1);
}

TEST(MultiNode, SingleNodeByDefault) {
  ClusterSimulator sim(cluster_of(8));
  EXPECT_EQ(sim.node_of(0), sim.node_of(7));
}

TEST(MultiNode, CrossNodeFetchUsesInternodeLink) {
  ClusterConfig cfg = cluster_of(4);
  cfg.devices_per_node = 2;
  cfg.p2p_enabled = true;
  ClusterSimulator sim(cfg);
  sim.execute(make_task(0, 1, 2), 0);   // replicas on node 0
  sim.execute(make_task(0, 5, 6), 3);   // tensor 0 crosses to node 1
  EXPECT_EQ(sim.metrics().internode_transfers, 1u);
  EXPECT_EQ(sim.metrics().p2p_transfers, 0u);
}

TEST(MultiNode, IntraNodeFetchPreferred) {
  ClusterConfig cfg = cluster_of(4);
  cfg.devices_per_node = 2;
  cfg.p2p_enabled = true;
  ClusterSimulator sim(cfg);
  sim.execute(make_task(0, 1, 2), 0);
  sim.execute(make_task(0, 5, 6), 1);  // same node: fast path
  EXPECT_EQ(sim.metrics().p2p_transfers, 1u);
  EXPECT_EQ(sim.metrics().internode_transfers, 0u);
}

TEST(MultiNode, CrossNodeTrafficCostsMoreTime) {
  const auto run_with_nodes = [](int per_node) {
    ClusterConfig cfg = cluster_of(4);
    cfg.devices_per_node = per_node;
    cfg.p2p_enabled = true;
    ClusterSimulator sim(cfg);
    sim.execute(make_task(0, 1, 2), 0);
    sim.execute(make_task(0, 1, 3), 3);  // fetch both from device 0
    return sim.busy_time(3);
  };
  EXPECT_GT(run_with_nodes(2), run_with_nodes(4));
}

TEST(MultiNode, InternodeSlowerThanP2PFasterThanNothing) {
  constexpr std::uint64_t kBytes = 64ull << 20;
  EXPECT_GT(internode_time(kBytes), p2p_time(kBytes));
  EXPECT_LT(internode_time(kBytes), h2d_time(kBytes));
}

// ------------------------------------------------------------- ordering --

TEST(PairOrdering, Names) {
  EXPECT_STREQ(to_string(PairOrdering::kAsGiven), "as-given");
  EXPECT_STREQ(to_string(PairOrdering::kReuseTierFirst), "reuse-tier-first");
}

TEST(PairOrdering, AllOrderingsConserveWork) {
  const WorkloadStream stream = test_stream(11);
  for (const PairOrdering ordering :
       {PairOrdering::kAsGiven, PairOrdering::kReuseTierFirst}) {
    MiccoScheduler sched;
    RunOptions options;
    options.ordering = ordering;
    const RunResult r = run_stream(stream, sched, cluster_of(4), options);
    EXPECT_EQ(r.metrics.total_flops, stream.total_flops())
        << to_string(ordering);
  }
}

TEST(PairOrdering, ReuseTierFirstChangesSchedule) {
  const WorkloadStream stream = test_stream(13);
  MiccoScheduler s1, s2;
  RunOptions as_given;
  RunOptions tier_first;
  tier_first.ordering = PairOrdering::kReuseTierFirst;
  const RunResult a = run_stream(stream, s1, cluster_of(4), as_given);
  const RunResult b = run_stream(stream, s2, cluster_of(4), tier_first);
  // Different visit order must actually reorder something observable.
  EXPECT_NE(a.metrics.makespan_s, b.metrics.makespan_s);
}

TEST(PairOrdering, DefaultOptionsMatchLegacyOverload) {
  const WorkloadStream stream = test_stream(17);
  MiccoScheduler s1, s2;
  const RunResult a = run_stream(stream, s1, cluster_of(4));
  const RunResult b = run_stream(stream, s2, cluster_of(4), RunOptions{});
  EXPECT_DOUBLE_EQ(a.metrics.makespan_s, b.metrics.makespan_s);
}

TEST(RunOptions, TraceAttachesThroughPipeline) {
  const WorkloadStream stream = test_stream(19);
  MiccoScheduler sched;
  obs::MemoryEventSink sink;
  obs::Telemetry telemetry;
  telemetry.sink = &sink;
  RunOptions options;
  options.telemetry = &telemetry;
  const RunResult r = run_stream(stream, sched, cluster_of(4), options);
  const std::vector<obs::ClusterEvent>& events = sink.cluster_events();
  EXPECT_GT(events.size(), 0u);
  EXPECT_EQ(static_cast<std::size_t>(std::count_if(
                events.begin(), events.end(),
                [](const obs::ClusterEvent& e) {
                  return e.kind == obs::ClusterEventKind::kKernel;
                })),
            static_cast<std::size_t>(stream.vectors.size()) *
                stream.vectors[0].tasks.size());
  EXPECT_GT(r.metrics.total_flops, 0u);
}

}  // namespace
}  // namespace micco
