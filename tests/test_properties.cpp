// Property-based sweeps (TEST_P): invariants that must hold across the
// whole workload-configuration space, not just hand-picked examples.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <vector>

#include "core/experiment.hpp"
#include "core/verify.hpp"
#include "round_robin.hpp"
#include "workload/synthetic.hpp"

namespace micco {
namespace {

struct PropertyCase {
  std::int64_t vector_size;
  double repeated_rate;
  DataDistribution distribution;
  int devices;
  std::uint64_t seed;
};

std::string case_name(const ::testing::TestParamInfo<PropertyCase>& info) {
  const PropertyCase& p = info.param;
  std::string name = "v";
  name += std::to_string(p.vector_size);
  name += "_r";
  name += std::to_string(static_cast<int>(p.repeated_rate * 100));
  name += "_";
  name += to_string(p.distribution);
  name += "_g";
  name += std::to_string(p.devices);
  name += "_s";
  name += std::to_string(p.seed);
  return name;
}

class SchedulerProperties : public ::testing::TestWithParam<PropertyCase> {
 protected:
  WorkloadStream make_stream() const {
    const PropertyCase& p = GetParam();
    SyntheticConfig cfg;
    cfg.num_vectors = 6;
    cfg.vector_size = p.vector_size;
    cfg.tensor_extent = 48;
    cfg.batch = 2;
    cfg.repeated_rate = p.repeated_rate;
    cfg.distribution = p.distribution;
    cfg.seed = p.seed;
    return generate_synthetic(cfg);
  }

  ClusterConfig make_cluster() const {
    ClusterConfig c;
    c.num_devices = GetParam().devices;
    c.device_capacity_bytes = 128u << 20;
    return c;
  }
};

TEST_P(SchedulerProperties, StreamsAreStructurallyValid) {
  EXPECT_EQ(validate_stream_structure(make_stream()), "");
}

TEST_P(SchedulerProperties, AllWorkIsConservedUnderEveryScheduler) {
  const WorkloadStream stream = make_stream();
  std::vector<std::unique_ptr<Scheduler>> schedulers;
  schedulers.push_back(make_scheduler(SchedulerKind::kGroute));
  schedulers.push_back(std::make_unique<test::RoundRobinScheduler>());
  schedulers.push_back(make_scheduler(SchedulerKind::kMiccoNaive));
  for (const std::unique_ptr<Scheduler>& sched : schedulers) {
    const RunResult r = run_stream(stream, *sched, make_cluster());
    EXPECT_EQ(r.metrics.total_flops, stream.total_flops())
        << "scheduler " << sched->name() << " lost work";
    EXPECT_GT(r.metrics.gflops(), 0.0);
  }
}

TEST_P(SchedulerProperties, OperandAccountingBalances) {
  // Every task supplies 1 or 2 distinct operand slots; each is either a
  // reuse hit or a fetch, never both, never neither.
  const WorkloadStream stream = make_stream();
  std::uint64_t min_slots = 0, max_slots = 0;
  for (const VectorWorkload& v : stream.vectors) {
    for (const ContractionTask& t : v.tasks) {
      min_slots += 1;
      max_slots += t.a.id == t.b.id ? 1 : 2;
    }
  }
  MiccoScheduler sched;
  const RunResult r = run_stream(stream, sched, make_cluster());
  const std::uint64_t total =
      r.metrics.reused_operands + r.metrics.fetched_operands;
  EXPECT_GE(total, min_slots);
  EXPECT_LE(total, max_slots);
}

TEST_P(SchedulerProperties, MemoryNeverExceedsCapacityUnderPressure) {
  const WorkloadStream stream = make_stream();
  ClusterConfig cluster = make_cluster();
  cluster.device_capacity_bytes = capacity_for_oversubscription(
      stream, cluster.num_devices, 1.5,
      8 * stream.vectors[0].tasks[0].a.bytes());

  MiccoScheduler sched;
  ClusterSimulator sim(cluster);
  for (const VectorWorkload& vec : stream.vectors) {
    sched.begin_vector(vec, sim);
    for (const ContractionTask& task : vec.tasks) {
      sim.execute(task, sched.assign(task, sim));
      for (DeviceId d = 0; d < sim.num_devices(); ++d) {
        ASSERT_LE(sim.memory_used(d), sim.memory_capacity(d));
      }
    }
    sim.barrier();
  }
}

TEST_P(SchedulerProperties, ReuseBoundCapsPerVectorImbalance) {
  const WorkloadStream stream = make_stream();
  const ClusterConfig cluster = make_cluster();
  for (const std::int64_t bound : {0LL, 2LL}) {
    MiccoSchedulerOptions opts;
    opts.bounds = ReuseBounds{bound, bound, bound};
    MiccoScheduler sched(opts);
    ClusterSimulator sim(cluster);
    for (const VectorWorkload& vec : stream.vectors) {
      sched.begin_vector(vec, sim);
      for (const ContractionTask& task : vec.tasks) {
        sim.execute(task, sched.assign(task, sim));
      }
      // A device passes the availability gate strictly below
      // balanceNum + bound and each pair adds at most 2 distinct tensors,
      // so a count above balanceNum + bound + 1 is only reachable through
      // the everything-gated fallback — which requires EVERY device to have
      // already saturated its own gate. Check exactly that implication.
      const std::int64_t cap = sched.balance_num() + bound + 1;
      std::int64_t min_count = std::numeric_limits<std::int64_t>::max();
      std::int64_t max_count = 0;
      for (DeviceId d = 0; d < sim.num_devices(); ++d) {
        min_count = std::min(min_count, sched.assigned_count(d));
        max_count = std::max(max_count, sched.assigned_count(d));
      }
      if (max_count > cap) {
        EXPECT_GE(min_count, sched.balance_num() + bound)
            << "a device overflowed its reuse bound while another still had "
               "gated capacity";
      }
      sim.barrier();
    }
  }
}

TEST_P(SchedulerProperties, BarriersMakeMakespanAtLeastAnyDeviceTime) {
  const WorkloadStream stream = make_stream();
  MiccoScheduler sched;
  ClusterSimulator sim(make_cluster());
  for (const VectorWorkload& vec : stream.vectors) {
    sched.begin_vector(vec, sim);
    for (const ContractionTask& task : vec.tasks) {
      sim.execute(task, sched.assign(task, sim));
    }
    sim.barrier();
  }
  for (DeviceId d = 0; d < sim.num_devices(); ++d) {
    EXPECT_LE(sim.busy_time(d), sim.metrics().makespan_s + 1e-12);
  }
}

TEST_P(SchedulerProperties, TighterMemoryNeverReducesEvictions) {
  const WorkloadStream stream = make_stream();
  const std::uint64_t floor_bytes =
      8 * stream.vectors[0].tasks[0].a.bytes();

  std::uint64_t previous_evictions = 0;
  bool first = true;
  for (const double rate : {1.0, 1.5, 2.0}) {
    ClusterConfig cluster = make_cluster();
    cluster.device_capacity_bytes = capacity_for_oversubscription(
        stream, cluster.num_devices, rate, floor_bytes);
    MiccoScheduler sched;
    const RunResult r = run_stream(stream, sched, cluster);
    if (!first) {
      EXPECT_GE(r.metrics.evictions, previous_evictions);
    }
    previous_evictions = r.metrics.evictions;
    first = false;
  }
}

TEST_P(SchedulerProperties, SimulatedRunsAreDeterministic) {
  const WorkloadStream stream = make_stream();
  MiccoScheduler s1, s2;
  const RunResult a = run_stream(stream, s1, make_cluster());
  const RunResult b = run_stream(stream, s2, make_cluster());
  EXPECT_DOUBLE_EQ(a.metrics.makespan_s, b.metrics.makespan_s);
  EXPECT_EQ(a.metrics.evictions, b.metrics.evictions);
  EXPECT_EQ(a.metrics.h2d_bytes, b.metrics.h2d_bytes);
  EXPECT_EQ(a.metrics.p2p_bytes, b.metrics.p2p_bytes);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SchedulerProperties,
    ::testing::Values(
        PropertyCase{8, 0.25, DataDistribution::kUniform, 2, 1},
        PropertyCase{8, 1.0, DataDistribution::kGaussian, 2, 2},
        PropertyCase{16, 0.5, DataDistribution::kUniform, 4, 3},
        PropertyCase{16, 0.75, DataDistribution::kGaussian, 4, 4},
        PropertyCase{32, 0.5, DataDistribution::kGaussian, 8, 5},
        PropertyCase{32, 1.0, DataDistribution::kUniform, 8, 6},
        PropertyCase{64, 0.25, DataDistribution::kGaussian, 8, 7},
        PropertyCase{64, 0.75, DataDistribution::kUniform, 3, 8}),
    case_name);

}  // namespace
}  // namespace micco
