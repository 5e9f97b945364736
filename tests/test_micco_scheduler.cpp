#include "sched/micco_scheduler.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "obs/events.hpp"

namespace micco {
namespace {

TensorDesc make_desc(TensorId id, std::int64_t extent = 16) {
  return TensorDesc{id, 2, extent, 1};
}

ContractionTask make_task(TensorId a, TensorId b, TensorId out,
                          std::int64_t extent = 16) {
  ContractionTask t;
  t.a = make_desc(a, extent);
  t.b = make_desc(b, extent);
  t.out = make_desc(out, extent);
  return t;
}

VectorWorkload make_vector(std::initializer_list<ContractionTask> tasks) {
  VectorWorkload v;
  v.tasks = tasks;
  return v;
}

ClusterConfig cluster_of(int devices, std::uint64_t capacity = 8u << 20) {
  ClusterConfig c;
  c.num_devices = devices;
  c.device_capacity_bytes = capacity;
  return c;
}

TEST(MiccoScheduler, RequiresBeginVector) {
  MiccoScheduler sched;
  ClusterSimulator sim(cluster_of(2));
  EXPECT_DEATH((void)sched.assign(make_task(0, 1, 2), sim),
               "begin_vector");
}

TEST(MiccoScheduler, BalanceNumIsTensorShare) {
  MiccoScheduler sched;
  ClusterSimulator sim(cluster_of(2));
  // 4 tasks -> 8 tensor slots over 2 devices -> balanceNum 4.
  const VectorWorkload v =
      make_vector({make_task(0, 1, 10), make_task(2, 3, 11),
                   make_task(4, 5, 12), make_task(6, 7, 13)});
  sched.begin_vector(v, sim);
  EXPECT_EQ(sched.balance_num(), 4);
}

TEST(MiccoScheduler, BalanceNumFlooredAtOne) {
  MiccoScheduler sched;
  ClusterSimulator sim(cluster_of(8));
  const VectorWorkload v = make_vector({make_task(0, 1, 10)});
  sched.begin_vector(v, sim);
  EXPECT_EQ(sched.balance_num(), 1);
}

TEST(MiccoScheduler, TwoRepeatedSamePairGoesToHoldingDevice) {
  MiccoScheduler sched;
  ClusterSimulator sim(cluster_of(2));
  const VectorWorkload v0 =
      make_vector({make_task(0, 1, 10), make_task(2, 3, 11)});
  sched.begin_vector(v0, sim);
  for (const ContractionTask& t : v0.tasks) {
    sim.execute(t, sched.assign(t, sim));
  }
  const DeviceId home = sim.devices_holding(0).front();

  // Next vector re-presents (0, 1): the data-centric policy must send it to
  // the same device.
  const VectorWorkload v1 =
      make_vector({make_task(0, 1, 12), make_task(4, 5, 13)});
  sched.begin_vector(v1, sim);
  EXPECT_EQ(sched.assign(v1.tasks[0], sim), home);
}

TEST(MiccoScheduler, OneRepeatedPairPrefersHoldingDevice) {
  MiccoSchedulerOptions opts;
  opts.bounds = ReuseBounds{2, 2, 2};
  MiccoScheduler sched(opts);
  ClusterSimulator sim(cluster_of(2));
  const VectorWorkload v0 = make_vector({make_task(0, 1, 10)});
  sched.begin_vector(v0, sim);
  sim.execute(v0.tasks[0], sched.assign(v0.tasks[0], sim));
  const DeviceId home = sim.devices_holding(0).front();

  const VectorWorkload v1 = make_vector({make_task(0, 99, 12)});
  sched.begin_vector(v1, sim);
  EXPECT_EQ(sched.assign(v1.tasks[0], sim), home);
}

TEST(MiccoScheduler, NaiveBoundsForceSpread) {
  // With zero bounds and balanceNum = 2 (vector of 4 slots on 2 devices),
  // no device may take more than 2 distinct tensors, so the two pairs land
  // on different devices even when reuse says otherwise.
  MiccoScheduler sched;  // naive bounds
  ClusterSimulator sim(cluster_of(2));

  const VectorWorkload warm =
      make_vector({make_task(0, 1, 10), make_task(2, 3, 11)});
  sched.begin_vector(warm, sim);
  for (const ContractionTask& t : warm.tasks) {
    sim.execute(t, sched.assign(t, sim));
  }
  // All four tensors now live somewhere; re-present them as one vector.
  const VectorWorkload v =
      make_vector({make_task(0, 1, 12), make_task(2, 3, 13)});
  sched.begin_vector(v, sim);
  const DeviceId d0 = sched.assign(v.tasks[0], sim);
  sim.execute(v.tasks[0], d0);
  const DeviceId d1 = sched.assign(v.tasks[1], sim);
  sim.execute(v.tasks[1], d1);
  EXPECT_EQ(sched.assigned_count(d0), 2);
  EXPECT_EQ(sched.assigned_count(d1), 2);
}

TEST(MiccoScheduler, ReuseBoundAllowsImbalanceForReuse) {
  // Same situation, but bound 2 on the TwoRepeatedSame tier lets one device
  // absorb all four tensors when it already holds them.
  ClusterSimulator sim(cluster_of(2));
  MiccoSchedulerOptions warm_opts;
  warm_opts.bounds = ReuseBounds{2, 2, 2};
  MiccoScheduler warm_sched(warm_opts);
  const VectorWorkload warm =
      make_vector({make_task(0, 1, 10), make_task(2, 3, 11)});
  warm_sched.begin_vector(warm, sim);
  // Pin both pairs onto device 0 by executing manually.
  sim.execute(warm.tasks[0], 0);
  sim.execute(warm.tasks[1], 0);

  MiccoSchedulerOptions opts;
  opts.bounds = ReuseBounds{2, 0, 0};
  MiccoScheduler sched(opts);
  const VectorWorkload v =
      make_vector({make_task(0, 1, 12), make_task(2, 3, 13)});
  sched.begin_vector(v, sim);
  const DeviceId d0 = sched.assign(v.tasks[0], sim);
  sim.execute(v.tasks[0], d0);
  const DeviceId d1 = sched.assign(v.tasks[1], sim);
  sim.execute(v.tasks[1], d1);
  EXPECT_EQ(d0, 0);
  EXPECT_EQ(d1, 0);  // bound 2 permits 2 extra tensors above balanceNum 2
}

TEST(MiccoScheduler, ComputeCentricBalancesFreshPairs) {
  MiccoScheduler sched;
  ClusterSimulator sim(cluster_of(4));
  const VectorWorkload v =
      make_vector({make_task(0, 1, 10), make_task(2, 3, 11),
                   make_task(4, 5, 12), make_task(6, 7, 13)});
  sched.begin_vector(v, sim);
  std::set<DeviceId> used;
  for (const ContractionTask& t : v.tasks) {
    const DeviceId d = sched.assign(t, sim);
    sim.execute(t, d);
    used.insert(d);
  }
  EXPECT_EQ(used.size(), 4u);  // all-new pairs spread across all devices
}

TEST(MiccoScheduler, EvictionSensitivePolicyAvoidsFullDevice) {
  // Tensor 0 is replicated on both devices, so both enter candiQueue for
  // the incoming OneRepeated pair; device 0 is nearly full (placing there
  // would force evictions) while device 1 has headroom, so the memory
  // policy must pick device 1 (Alg. 2: most available memory in the queue).
  const std::uint64_t tensor_bytes = make_desc(0).bytes();
  ClusterSimulator sim(cluster_of(2, 6 * tensor_bytes));
  sim.execute(make_task(0, 1, 2), 0);   // device 0: tensors 0, 1, 2
  sim.execute(make_task(3, 4, 5), 0);   // device 0: full (6 tensors)
  sim.execute(make_task(0, 9, 10), 1);  // device 1: replica of 0 + 2 more

  MiccoSchedulerOptions opts;
  opts.bounds = ReuseBounds{4, 4, 4};
  MiccoScheduler sched(opts);
  const VectorWorkload v = make_vector({make_task(0, 7, 20)});
  sched.begin_vector(v, sim);
  // Placing on device 0 needs 2 new tensor frames but it is full; device 1
  // has 3 free.
  EXPECT_EQ(sched.assign(v.tasks[0], sim), 1);
}

/// Whether Alg. 2's eviction-risk flag fires for `task`, decided alone in
/// its own vector on `sim`.
bool decision_risk(const ContractionTask& task, const ClusterSimulator& sim) {
  obs::MemoryEventSink sink;
  obs::Telemetry telemetry;
  telemetry.sink = &sink;
  MiccoScheduler sched;
  sched.set_telemetry(&telemetry);
  sched.begin_vector(make_vector({task}), sim);
  (void)sched.assign(task, sim);
  return sink.decisions().at(0).evict_risk;
}

TEST(MiccoScheduler, SelfPairThatExactlyFitsRaisesNoRisk) {
  // A self-pair fetches its one operand once and allocates its output: an
  // empty device of exactly that size needs no eviction.
  const std::uint64_t tensor_bytes = make_desc(0).bytes();
  const ClusterSimulator fits(cluster_of(1, 2 * tensor_bytes));
  EXPECT_FALSE(decision_risk(make_task(7, 7, 20), fits));
  // Two distinct operands on the same device would not fit, and neither
  // would the self-pair one byte short.
  EXPECT_TRUE(decision_risk(make_task(7, 8, 20), fits));
  const ClusterSimulator short_by_one(cluster_of(1, 2 * tensor_bytes - 1));
  EXPECT_TRUE(decision_risk(make_task(7, 7, 20), short_by_one));
}

TEST(MiccoScheduler, ResidentOperandsNeedNoRoom) {
  // Device 0 holds 0, 1 and 2 with room for one more tensor: a pair of
  // residents only allocates its output, a pair with one absent operand
  // needs two frames.
  const std::uint64_t tensor_bytes = make_desc(0).bytes();
  ClusterSimulator sim(cluster_of(1, 4 * tensor_bytes));
  ASSERT_TRUE(sim.execute(make_task(0, 1, 2), 0).ok());
  EXPECT_FALSE(decision_risk(make_task(0, 1, 20), sim));
  EXPECT_FALSE(decision_risk(make_task(1, 0, 20), sim));
  EXPECT_TRUE(decision_risk(make_task(0, 9, 20), sim));
}

TEST(MiccoScheduler, EvictionPolicyCanBeDisabled) {
  const std::uint64_t tensor_bytes = make_desc(0).bytes();
  ClusterSimulator sim(cluster_of(2, 4 * tensor_bytes));
  sim.execute(make_task(0, 1, 2), 0);

  MiccoSchedulerOptions opts;
  opts.bounds = ReuseBounds{2, 2, 2};
  opts.eviction_sensitive = false;
  MiccoScheduler sched(opts);
  const VectorWorkload v = make_vector({make_task(0, 7, 20)});
  sched.begin_vector(v, sim);
  // Without the memory policy, the data-centric choice wins despite the
  // eviction it will cause.
  EXPECT_EQ(sched.assign(v.tasks[0], sim), 0);
}

TEST(MiccoScheduler, FallbackPlacesPairWhenAllBoundsExceeded) {
  // One device, zero bounds, many pairs: counts blow past balanceNum but
  // every pair must still land somewhere.
  MiccoScheduler sched;
  ClusterSimulator sim(cluster_of(1));
  const VectorWorkload v =
      make_vector({make_task(0, 1, 10), make_task(2, 3, 11),
                   make_task(4, 5, 12)});
  sched.begin_vector(v, sim);
  for (const ContractionTask& t : v.tasks) {
    EXPECT_EQ(sched.assign(t, sim), 0);
    sim.execute(t, 0);
  }
}

TEST(MiccoScheduler, AssignedCountTracksDistinctTensors) {
  MiccoScheduler sched;
  ClusterSimulator sim(cluster_of(1));
  const VectorWorkload v =
      make_vector({make_task(0, 1, 10), make_task(0, 1, 11)});
  sched.begin_vector(v, sim);
  sim.execute(v.tasks[0], sched.assign(v.tasks[0], sim));
  sim.execute(v.tasks[1], sched.assign(v.tasks[1], sim));
  EXPECT_EQ(sched.assigned_count(0), 2);  // tensors 0 and 1, not 4 slots
}

TEST(MiccoScheduler, SetReuseBoundsTakesEffect) {
  MiccoScheduler sched;
  EXPECT_EQ(sched.reuse_bounds(), ReuseBounds::naive());
  sched.set_reuse_bounds(ReuseBounds{0, 2, 0});
  EXPECT_EQ(sched.reuse_bounds(), (ReuseBounds{0, 2, 0}));
}

TEST(MiccoScheduler, DeterministicAcrossRunsWithSameSeed) {
  const auto run = [](std::uint64_t seed) {
    MiccoSchedulerOptions opts;
    opts.seed = seed;
    MiccoScheduler sched(opts);
    ClusterSimulator sim(cluster_of(4));
    std::vector<DeviceId> choices;
    for (int vec = 0; vec < 3; ++vec) {
      VectorWorkload v;
      for (TensorId i = 0; i < 4; ++i) {
        const TensorId base = static_cast<TensorId>(vec) * 100;
        v.tasks.push_back(
            make_task(base + 2 * i, base + 2 * i + 1, base + 50 + i));
      }
      sched.begin_vector(v, sim);
      for (const ContractionTask& t : v.tasks) {
        const DeviceId d = sched.assign(t, sim);
        choices.push_back(d);
        sim.execute(t, d);
      }
    }
    return choices;
  };
  EXPECT_EQ(run(7), run(7));
}

TEST(MiccoScheduler, CandidateMaskHandlesMoreThan64Devices) {
  // The alive mask spans two 64-bit words here; device ids past 63 must
  // come from the second word, not alias the first.
  constexpr int kDevices = 70;
  obs::MemoryEventSink sink;
  obs::Telemetry telemetry;
  telemetry.sink = &sink;
  MiccoSchedulerOptions opts;
  opts.bounds = ReuseBounds{2, 2, 2};
  MiccoScheduler sched(opts);
  sched.set_telemetry(&telemetry);
  ClusterSimulator sim(cluster_of(kDevices));

  // Park tensors 0 and 1 on a device in the mask's second word.
  ASSERT_TRUE(sim.execute(make_task(0, 1, 10), 65).ok());

  const VectorWorkload v =
      make_vector({make_task(2, 3, 11), make_task(0, 1, 12)});
  sched.begin_vector(v, sim);

  // TwoNew pair: all 70 devices pass the TwoNew tier, each exactly once.
  (void)sched.assign(v.tasks[0], sim);
  ASSERT_EQ(sink.decisions().size(), 1u);
  const std::vector<int>& cands = sink.decisions()[0].candidates;
  EXPECT_EQ(cands.size(), static_cast<std::size_t>(kDevices));
  EXPECT_EQ(std::set<int>(cands.begin(), cands.end()).size(), cands.size());

  // TwoRepeatedSame pair held only by device 65: the high-word bit admits
  // it and the data-centric tier sends the pair there.
  const DeviceId chosen = sched.assign(v.tasks[1], sim);
  EXPECT_EQ(chosen, 65);
  ASSERT_EQ(sink.decisions().size(), 2u);
  EXPECT_EQ(sink.decisions()[1].candidates, std::vector<int>{65});
}

}  // namespace
}  // namespace micco
