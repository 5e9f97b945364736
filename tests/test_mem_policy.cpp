#include "mem/policy.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "gpusim/cluster.hpp"
#include "obs/telemetry.hpp"
#include "sched/micco_scheduler.hpp"
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

/// The tensor in a policy's victim slot.
TensorId victim_id(const DeviceMemory& mem, const mem::VictimChoice& choice) {
  return mem.at(choice.slot).id;
}

/// Identity visit order for `vec` (the kAsGiven ordering).
std::vector<std::size_t> identity_order(const VectorWorkload& vec) {
  std::vector<std::size_t> order(vec.tasks.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  return order;
}

/// A small stream that oversubscribes device memory so every run evicts.
WorkloadStream pressured_stream() {
  SyntheticConfig cfg;
  cfg.num_vectors = 3;
  cfg.vector_size = 24;
  cfg.tensor_extent = 64;
  cfg.batch = 4;
  cfg.repeated_rate = 0.5;
  cfg.seed = 11;
  return generate_synthetic(cfg);
}

ClusterConfig pressured_cluster(const WorkloadStream& stream) {
  ClusterConfig cluster;
  cluster.num_devices = 2;
  const std::uint64_t floor_bytes = 8 * stream.vectors[0].tasks[0].a.bytes();
  cluster.device_capacity_bytes = capacity_for_oversubscription(
      stream, cluster.num_devices, 3.0, floor_bytes);
  return cluster;
}

// ------------------------------------------------------------- name parsing

TEST(EvictPolicyNames, RoundTripAndSpellings) {
  using mem::EvictPolicyKind;
  EXPECT_STREQ(mem::to_string(EvictPolicyKind::kLru), "lru");
  EXPECT_STREQ(mem::to_string(EvictPolicyKind::kReuseDistance),
               "reuse_distance");
  for (const EvictPolicyKind kind : mem::all_evict_policies()) {
    const auto parsed = mem::parse_evict_policy(mem::to_string(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  // CLI hyphen spellings parse to the same kinds.
  EXPECT_EQ(mem::parse_evict_policy("reuse-distance"),
            EvictPolicyKind::kReuseDistance);
  EXPECT_FALSE(mem::parse_evict_policy("pin-until-last-use").has_value());
  EXPECT_FALSE(mem::parse_evict_policy("belady").has_value());
  EXPECT_FALSE(mem::parse_evict_policy("").has_value());
  EXPECT_EQ(mem::all_evict_policies().size(), 2u);
}

TEST(EvictPolicyNames, MetricSegmentsAreDotFree) {
  for (const mem::EvictPolicyKind kind : mem::all_evict_policies()) {
    EXPECT_EQ(std::string(mem::to_string(kind)).find('.'), std::string::npos);
  }
}

// -------------------------------------------------------- FutureUseTracker

TEST(FutureUseTracker, NextUseFollowsVisitOrder) {
  VectorWorkload vec;
  vec.tasks = {make_task(1, 2, 10), make_task(3, 4, 11), make_task(1, 3, 12)};
  mem::FutureUseTracker tracker;
  tracker.begin_vector(vec, identity_order(vec));

  EXPECT_EQ(tracker.next_use(1), 0);
  EXPECT_EQ(tracker.next_use(3), 1);
  EXPECT_FALSE(tracker.next_use(99).has_value());

  tracker.observe_use(vec.tasks[0], 0);
  EXPECT_EQ(tracker.next_use(1), 2);  // retired pos 0; next use is pair 2
  EXPECT_EQ(tracker.next_use(2), std::nullopt);
  EXPECT_EQ(tracker.cursor(), 0);
}

TEST(FutureUseTracker, RecoveryReplayIsNoOp) {
  VectorWorkload vec;
  vec.tasks = {make_task(1, 2, 10), make_task(1, 3, 11)};
  mem::FutureUseTracker tracker;
  tracker.begin_vector(vec, identity_order(vec));
  tracker.observe_use(vec.tasks[0], 0);
  const auto before = tracker.next_use(1);
  // A lineage re-execution after a device loss replays the same task with
  // position -1: the books must not retire anything twice.
  tracker.observe_use(vec.tasks[0], -1);
  EXPECT_EQ(tracker.next_use(1), before);
}

TEST(FutureUseTracker, RespectsNonIdentityVisitOrder) {
  VectorWorkload vec;
  vec.tasks = {make_task(1, 2, 10), make_task(3, 4, 11), make_task(5, 6, 12)};
  // Visit order 2,0,1: tensor 5 is used at position 0, tensor 1 at 1.
  mem::FutureUseTracker tracker;
  tracker.begin_vector(vec, {2, 0, 1});
  EXPECT_EQ(tracker.next_use(5), 0);
  EXPECT_EQ(tracker.next_use(1), 1);
  EXPECT_EQ(tracker.next_use(3), 2);
}

// ------------------------------------------------------------ victim orders

TEST(LruPolicy, MatchesEvictLruDecisions) {
  // Picking and evicting until nothing is left walks the recency order:
  // the touched tensor goes last, a pinned one never.
  mem::LruPolicy policy;
  DeviceMemory mem(1000);
  std::vector<DeviceMemory::Slot> slots;
  for (TensorId id = 0; id < 6; ++id) {
    slots.push_back(mem.allocate(id, 100, id % 2 == 0));
  }
  mem.touch(slots[0]);
  mem.pin(slots[5]);
  std::vector<TensorId> victims;
  while (const auto choice = policy.pick_victim(mem)) {
    EXPECT_EQ(choice->reuse_distance, mem::kNoFutureUse);
    const Eviction ev = mem.evict(choice->slot);
    EXPECT_EQ(choice->slot, slots[ev.id]);
    EXPECT_EQ(ev.dirty, ev.id % 2 == 0);
    victims.push_back(ev.id);
  }
  EXPECT_EQ(victims, (std::vector<TensorId>{1, 2, 3, 4, 0}));
  EXPECT_EQ(mem.resident_count(), 1u);
  EXPECT_EQ(mem.at(slots[5]).id, 5u);
}

TEST(LruPolicy, SkipsPinnedAndReportsNoVictimWhenAllPinned) {
  mem::LruPolicy policy;
  DeviceMemory mem(1000);
  const DeviceMemory::Slot one = mem.allocate(1, 100, false);
  const DeviceMemory::Slot two = mem.allocate(2, 100, false);
  mem.pin(one);
  const auto choice = policy.pick_victim(mem);
  ASSERT_TRUE(choice.has_value());
  EXPECT_EQ(choice->slot, two);
  mem.pin(two);
  EXPECT_FALSE(policy.pick_victim(mem).has_value());
}

TEST(ReuseDistancePolicy, EvictsFarthestNextUse) {
  // Pairs: (1,2) at 0, (3,4) at 1, (1,3) at 2 -> after executing pair 0,
  // next uses are 3:1, 1:2, and 2/4 never again.
  VectorWorkload vec;
  vec.tasks = {make_task(1, 2, 10), make_task(3, 4, 11), make_task(1, 3, 12)};
  mem::ReuseDistancePolicy policy;
  policy.begin_vector(vec, identity_order(vec));
  policy.observe_use(vec.tasks[0], 0);

  DeviceMemory mem(1000);
  mem.allocate(1, 100, false);
  mem.allocate(3, 100, false);
  mem.allocate(2, 100, false);  // never used again: wins outright
  const auto choice = policy.pick_victim(mem);
  ASSERT_TRUE(choice.has_value());
  EXPECT_EQ(victim_id(mem, *choice), 2u);
  EXPECT_EQ(choice->reuse_distance, mem::kNoFutureUse);

  mem.release(choice->slot);
  // Both residents have future uses: tensor 1 (pos 2) is farther than
  // tensor 3 (pos 1) from the cursor (0).
  const auto next = policy.pick_victim(mem);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(victim_id(mem, *next), 1u);
  EXPECT_EQ(next->reuse_distance, 2u);
}

TEST(ReuseDistancePolicy, NeverUsedTiesBreakTowardLru) {
  VectorWorkload vec;
  vec.tasks = {make_task(1, 2, 10)};
  mem::ReuseDistancePolicy policy;
  policy.begin_vector(vec, identity_order(vec));

  DeviceMemory mem(1000);
  mem.allocate(7, 100, false);  // older
  mem.allocate(8, 100, false);
  // Neither 7 nor 8 has a future use: the LRU one goes first.
  const auto choice = policy.pick_victim(mem);
  ASSERT_TRUE(choice.has_value());
  EXPECT_EQ(victim_id(mem, *choice), 7u);
}

TEST(ReuseDistancePolicy, SkipsPinnedResidents) {
  VectorWorkload vec;
  vec.tasks = {make_task(1, 2, 10)};
  mem::ReuseDistancePolicy policy;
  policy.begin_vector(vec, identity_order(vec));

  DeviceMemory mem(1000);
  mem.pin(mem.allocate(5, 100, false));
  mem.allocate(6, 100, false);
  const auto choice = policy.pick_victim(mem);
  ASSERT_TRUE(choice.has_value());
  EXPECT_EQ(victim_id(mem, *choice), 6u);
}

// -------------------------------------------------------- deep-copy safety

TEST(EvictionPolicy, SimulatorClonesShareThePolicyWithoutCrosstalk) {
  // The oracle scheduler copies whole simulators per candidate assignment;
  // the clones share one policy pointer. pick_victim is const, so probe
  // executions in a clone must not disturb the original's residency.
  ClusterConfig cfg;
  cfg.num_devices = 1;
  cfg.device_capacity_bytes = 4 * make_desc(0).bytes();

  mem::ReuseDistancePolicy policy;
  VectorWorkload vec;
  vec.tasks = {make_task(0, 1, 10), make_task(2, 3, 11), make_task(0, 2, 12)};
  policy.begin_vector(vec, identity_order(vec));

  ClusterSimulator sim(cfg);
  sim.set_eviction_policy(&policy);
  sim.execute(vec.tasks[0], 0);
  const std::uint64_t used_before = sim.memory_used(0);

  ClusterSimulator clone = sim;
  clone.execute(vec.tasks[1], 0);  // forces an eviction in the clone only
  EXPECT_EQ(sim.memory_used(0), used_before);
  EXPECT_TRUE(sim.resident_on(0, 0));
  EXPECT_TRUE(sim.resident_on(0, 1));

  // The shared policy still answers consistently for both simulators.
  const auto choice = policy.pick_victim(clone.device_memory(0));
  EXPECT_TRUE(choice.has_value());
}

// ------------------------------------------------------ the default policy

/// The report's metrics carry the run's eviction totals, which the registry
/// does not restate.
void expect_report_counts_evictions(const obs::JsonValue& report,
                                    const ExecutionMetrics& metrics) {
  const obs::JsonValue& m = report.at("metrics");
  EXPECT_EQ(m.at("evictions").as_int(),
            static_cast<std::int64_t>(metrics.evictions));
  EXPECT_EQ(m.at("writeback_bytes").as_int(),
            static_cast<std::int64_t>(metrics.writeback_bytes));
  EXPECT_GT(metrics.writeback_bytes, 0u);
  for (const auto& [name, value] :
       report.at("registry").at("counters").members()) {
    EXPECT_FALSE(name.starts_with("mem.")) << name;
  }
}

TEST(EvictionPolicy, DefaultRunReportCarriesNoPolicyKeys) {
  // A run that attaches no policy evicts under the simulator's own LRU and
  // reports it like any other policy.
  const WorkloadStream stream = pressured_stream();
  const ClusterConfig cluster = pressured_cluster(stream);

  obs::Telemetry telemetry;
  MiccoScheduler scheduler;
  RunOptions options;
  options.telemetry = &telemetry;
  const RunResult result = run_stream(stream, scheduler, cluster, options);
  ASSERT_TRUE(result.completed);
  EXPECT_GT(result.metrics.evictions, 0u);
  EXPECT_EQ(result.metrics.evict_policy, "lru");
  EXPECT_GT(result.metrics.eviction_refetch_bytes, 0u);

  const obs::JsonValue report = make_run_report(result, telemetry);
  const std::string text = report.dump();
  EXPECT_NE(text.find("\"evict_policy\":\"lru\""), std::string::npos);
  EXPECT_NE(text.find("\"eviction_refetch_bytes\":" +
                      std::to_string(result.metrics.eviction_refetch_bytes)),
            std::string::npos);
  expect_report_counts_evictions(report, result.metrics);
}

TEST(EvictionPolicy, NullptrRestoresTheSharedLruDefault) {
  ClusterConfig cfg;
  cfg.num_devices = 1;
  ClusterSimulator sim(cfg);
  const ClusterSimulator other(cfg);
  ASSERT_NE(sim.eviction_policy(), nullptr);
  EXPECT_EQ(sim.eviction_policy(), other.eviction_policy());
  EXPECT_EQ(sim.eviction_policy()->kind(), mem::EvictPolicyKind::kLru);
  EXPECT_EQ(sim.metrics().evict_policy, "lru");

  mem::ReuseDistancePolicy policy;
  sim.set_eviction_policy(&policy);
  EXPECT_EQ(sim.metrics().evict_policy, "reuse_distance");
  sim.set_eviction_policy(nullptr);
  EXPECT_EQ(sim.eviction_policy(), other.eviction_policy());
  EXPECT_EQ(sim.metrics().evict_policy, "lru");
}

/// Runs the same evict-then-refetch sequence on device `dev` of a 70-device
/// cluster, with every tensor id offset by `base`; returns the metrics.
ExecutionMetrics refetch_run(TensorId base, DeviceId dev) {
  ClusterConfig cfg;
  cfg.num_devices = 70;
  cfg.device_capacity_bytes = 3 * make_desc(0).bytes();
  ClusterSimulator sim(cfg);
  // Three tensors fill the device: the second task evicts all of the
  // first's, and the third fetches both of its evicted operands back.
  for (const ContractionTask& t :
       {make_task(base, base + 1, base + 2), make_task(base + 3, base + 4,
                                                       base + 5),
        make_task(base, base + 3, base + 6)}) {
    EXPECT_TRUE(sim.execute(t, dev).ok());
  }
  return sim.metrics();
}

TEST(EvictionPolicy, RefetchOfLargeIdOrWideDeviceCountsLikeSmall) {
  const ExecutionMetrics small = refetch_run(0, 0);
  EXPECT_EQ(small.evictions, 6u);
  EXPECT_EQ(small.eviction_refetch_bytes, 2 * make_desc(0).bytes());
  for (const auto& [base, dev] :
       {std::pair<TensorId, DeviceId>{(1ULL << 20) - 2, 0},
        {1ULL << 20, 0},
        {1ULL << 40, 0},
        {0, 64},
        {1ULL << 20, 69}}) {
    const ExecutionMetrics m = refetch_run(base, dev);
    EXPECT_EQ(m.evictions, small.evictions) << base << " on " << dev;
    EXPECT_EQ(m.eviction_refetch_bytes, small.eviction_refetch_bytes)
        << base << " on " << dev;
  }
}

TEST(EvictionPolicy, AttachedPolicySurfacesInMetricsAndReport) {
  const WorkloadStream stream = pressured_stream();
  const ClusterConfig cluster = pressured_cluster(stream);

  obs::Telemetry telemetry;
  MiccoScheduler scheduler;
  RunOptions options;
  options.telemetry = &telemetry;
  options.evict_policy = mem::EvictPolicyKind::kReuseDistance;
  const RunResult result = run_stream(stream, scheduler, cluster, options);
  ASSERT_TRUE(result.completed);
  EXPECT_GT(result.metrics.evictions, 0u);
  EXPECT_EQ(result.metrics.evict_policy, "reuse_distance");

  const obs::JsonValue report = make_run_report(result, telemetry);
  EXPECT_NE(report.dump().find("\"evict_policy\":\"reuse_distance\""),
            std::string::npos);
  expect_report_counts_evictions(report, result.metrics);
}

}  // namespace
}  // namespace micco
