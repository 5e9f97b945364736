#include "sched/baselines.hpp"

#include <gtest/gtest.h>

#include <set>

#include "gpusim/cluster.hpp"
#include "round_robin.hpp"

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

ClusterConfig cluster_of(int devices) {
  ClusterConfig c;
  c.num_devices = devices;
  c.device_capacity_bytes = 64u << 20;
  return c;
}

TEST(Groute, PicksEarliestAvailableDevice) {
  GrouteScheduler sched;
  ClusterSimulator sim(cluster_of(2));
  // Load device 0 heavily.
  sim.execute(make_task(0, 1, 2, 128), 0);
  EXPECT_EQ(sched.assign(make_task(3, 4, 5), sim), 1);
}

TEST(Groute, SpreadsInitialAssignments) {
  GrouteScheduler sched;
  ClusterSimulator sim(cluster_of(4));
  std::set<DeviceId> used;
  for (TensorId i = 0; i < 8; i += 2) {
    const ContractionTask t = make_task(i, i + 1, 100 + i);
    const DeviceId d = sched.assign(t, sim);
    sim.execute(t, d);
    used.insert(d);
  }
  EXPECT_EQ(used.size(), 4u);
}

TEST(Groute, IgnoresResidency) {
  // Tensors 0, 1 sit on device 0, but device 1 is idle -> Groute picks the
  // idle device even though it must re-fetch everything (its defining
  // blindness to the data dimension).
  GrouteScheduler sched;
  ClusterSimulator sim(cluster_of(2));
  sim.execute(make_task(0, 1, 2, 128), 0);
  EXPECT_EQ(sched.assign(make_task(0, 1, 3), sim), 1);
}

TEST(RoundRobin, CyclesThroughDevices) {
  test::RoundRobinScheduler sched;
  ClusterSimulator sim(cluster_of(3));
  EXPECT_EQ(sched.assign(make_task(0, 1, 10), sim), 0);
  EXPECT_EQ(sched.assign(make_task(2, 3, 11), sim), 1);
  EXPECT_EQ(sched.assign(make_task(4, 5, 12), sim), 2);
  EXPECT_EQ(sched.assign(make_task(6, 7, 13), sim), 0);
}

TEST(Baselines, NamesAreStable) {
  EXPECT_EQ(GrouteScheduler{}.name(), "Groute");
  EXPECT_EQ(DmdaScheduler{}.name(), "dmda");
}

}  // namespace
}  // namespace micco
