// Second property suite: cross-scheduler invariants, extension-feature
// interactions and format round-trip properties swept over workload space.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "core/verify.hpp"
#include "obs/events.hpp"
#include "round_robin.hpp"
#include "sched/oracle.hpp"
#include "workload/serialize.hpp"
#include "workload/synthetic.hpp"

namespace micco {
namespace {

struct Case2 {
  std::int64_t vector_size;
  double repeated_rate;
  DataDistribution distribution;
  std::uint64_t seed;
};

std::string case2_name(const ::testing::TestParamInfo<Case2>& info) {
  std::string name = "v";
  name += std::to_string(info.param.vector_size);
  name += "_r";
  name += std::to_string(static_cast<int>(info.param.repeated_rate * 100));
  name += "_";
  name += to_string(info.param.distribution);
  name += "_s";
  name += std::to_string(info.param.seed);
  return name;
}

class SchedulerProperties2 : public ::testing::TestWithParam<Case2> {
 protected:
  WorkloadStream make_stream() const {
    const Case2& p = GetParam();
    SyntheticConfig cfg;
    cfg.num_vectors = 5;
    cfg.vector_size = p.vector_size;
    cfg.tensor_extent = 48;
    cfg.batch = 2;
    cfg.repeated_rate = p.repeated_rate;
    cfg.distribution = p.distribution;
    cfg.seed = p.seed;
    return generate_synthetic(cfg);
  }

  static ClusterConfig cluster(bool p2p = false, bool overlap = false) {
    ClusterConfig c;
    c.num_devices = 4;
    c.device_capacity_bytes = 256u << 20;
    c.p2p_enabled = p2p;
    c.overlap_transfers = overlap;
    return c;
  }
};

TEST_P(SchedulerProperties2, SerializationRoundTripPreservesMetrics) {
  // Scheduling a saved+loaded stream must produce identical metrics: the
  // file format carries everything the scheduler and simulator consume.
  const WorkloadStream stream = make_stream();
  std::stringstream buffer;
  save_stream(stream, buffer);
  const auto loaded = load_stream(buffer);
  ASSERT_TRUE(loaded.has_value());

  MiccoScheduler s1, s2;
  const RunResult a = run_stream(stream, s1, cluster());
  const RunResult b = run_stream(*loaded, s2, cluster());
  EXPECT_DOUBLE_EQ(a.metrics.makespan_s, b.metrics.makespan_s);
  EXPECT_EQ(a.metrics.h2d_bytes, b.metrics.h2d_bytes);
  EXPECT_EQ(a.metrics.evictions, b.metrics.evictions);
}

TEST_P(SchedulerProperties2, P2PNeverSlowsTimingIndependentSchedulers) {
  // Enabling peer fetches replaces host transfers with strictly faster
  // ones. For a scheduler whose decisions do not feed back on device
  // timing (RoundRobin), the assignment is identical with and without P2P,
  // so the makespan cannot regress. (Timing-fed schedulers like Groute may
  // legitimately take different - occasionally worse - trajectories when
  // transfer costs change.)
  const WorkloadStream stream = make_stream();
  test::RoundRobinScheduler s_off, s_on;
  const double off =
      run_stream(stream, s_off, cluster(false)).metrics.makespan_s;
  const double on = run_stream(stream, s_on, cluster(true)).metrics.makespan_s;
  EXPECT_LE(on, off * (1.0 + 1e-9));
}

TEST_P(SchedulerProperties2, OverlapNeverSlowsTimingIndependentSchedule) {
  const WorkloadStream stream = make_stream();
  test::RoundRobinScheduler s_off, s_on;  // timing-independent assignment
  const double off =
      run_stream(stream, s_off, cluster(false, false)).metrics.makespan_s;
  const double on =
      run_stream(stream, s_on, cluster(false, true)).metrics.makespan_s;
  EXPECT_LE(on, off * (1.0 + 1e-9));
}

TEST_P(SchedulerProperties2, SplittingNodesNeverSpeedsUp) {
  // With P2P on, moving from one node to two replaces some fast intra-node
  // links with the slower inter-node link; under a timing-independent
  // assignment the makespan cannot improve.
  const WorkloadStream stream = make_stream();
  ClusterConfig one_node = cluster(true);
  one_node.devices_per_node = 4;
  ClusterConfig two_nodes = cluster(true);
  two_nodes.devices_per_node = 2;

  test::RoundRobinScheduler s1, s2;
  const double single =
      run_stream(stream, s1, one_node).metrics.makespan_s;
  const double split =
      run_stream(stream, s2, two_nodes).metrics.makespan_s;
  EXPECT_GE(split, single * (1.0 - 1e-9));
}

TEST_P(SchedulerProperties2, TraceDurationsCoverDeviceWork) {
  // Sum of traced kernel+memory event durations equals the accumulated
  // device work time (nothing the simulator prices escapes the trace).
  const WorkloadStream stream = make_stream();
  MiccoScheduler sched;
  obs::MemoryEventSink sink;
  obs::Telemetry telemetry;
  telemetry.sink = &sink;
  RunOptions options;
  options.telemetry = &telemetry;
  const RunResult r = run_stream(stream, sched, cluster(), options);

  double traced = 0.0;
  for (const obs::ClusterEvent& e : sink.cluster_events()) {
    if (e.kind == obs::ClusterEventKind::kFetch ||
        e.kind == obs::ClusterEventKind::kOutputAlloc ||
        e.kind == obs::ClusterEventKind::kEviction ||
        e.kind == obs::ClusterEventKind::kKernel) {
      traced += e.duration_s;
    }
  }
  EXPECT_NEAR(traced,
              r.metrics.kernel_time_s + r.metrics.transfer_time_s,
              1e-9);
}

TEST_P(SchedulerProperties2, DmdaConservesWorkAndStaysReasonable) {
  const WorkloadStream stream = make_stream();
  DmdaScheduler dmda;
  GrouteScheduler groute;
  const RunResult d = run_stream(stream, dmda, cluster());
  const RunResult g = run_stream(stream, groute, cluster());
  EXPECT_EQ(d.metrics.total_flops, stream.total_flops());
  // Data-awareness must not catastrophically backfire.
  EXPECT_LT(d.metrics.makespan_s, g.metrics.makespan_s * 1.5);
}

TEST_P(SchedulerProperties2, NumericDigestIndependentOfScheduler) {
  // Numeric transparency through the full loop: each scheduler runs the
  // stream, the order its kernels ran in is read back from the cluster
  // events, and executing the stream in that order reproduces the
  // reference digest.
  const WorkloadStream stream = make_stream();
  const double reference = execute_numerically(stream).digest;

  // Output ids are unique, so each names one task: (vector, task index).
  std::unordered_map<TensorId, std::pair<std::size_t, std::size_t>> task_of;
  for (std::size_t v = 0; v < stream.vectors.size(); ++v) {
    for (std::size_t t = 0; t < stream.vectors[v].tasks.size(); ++t) {
      task_of.emplace(stream.vectors[v].tasks[t].out.id, std::pair{v, t});
    }
  }

  struct Kernel {
    double start_s;
    int device;
    std::size_t task;
  };
  FixedBounds bounds(ReuseBounds{1, 1, 1});
  std::vector<std::unique_ptr<Scheduler>> schedulers;
  schedulers.push_back(make_scheduler(SchedulerKind::kGroute));
  schedulers.push_back(std::make_unique<test::RoundRobinScheduler>());
  schedulers.push_back(make_scheduler(SchedulerKind::kDmda));
  schedulers.push_back(make_scheduler(SchedulerKind::kMiccoOptimal));
  for (const std::unique_ptr<Scheduler>& scheduler : schedulers) {
    SCOPED_TRACE(scheduler->name());
    obs::MemoryEventSink sink;
    obs::Telemetry telemetry;
    telemetry.sink = &sink;
    RunOptions options;
    options.bounds = &bounds;
    options.telemetry = &telemetry;
    const RunResult run = run_stream(stream, *scheduler, cluster(), options);
    ASSERT_TRUE(run.completed) << run.error;

    std::vector<std::vector<Kernel>> ran(stream.vectors.size());
    for (const obs::ClusterEvent& ev : sink.cluster_events()) {
      if (ev.kind != obs::ClusterEventKind::kKernel) continue;
      const auto it = task_of.find(ev.tensor);
      ASSERT_NE(it, task_of.end()) << "kernel of unknown tensor " << ev.tensor;
      const auto [v, t] = it->second;
      ran[v].push_back(Kernel{ev.start_s, ev.device, t});
    }

    WorkloadStream executed = stream;
    for (std::size_t v = 0; v < stream.vectors.size(); ++v) {
      const std::vector<ContractionTask>& tasks = stream.vectors[v].tasks;
      std::vector<int> kernels_per_task(tasks.size(), 0);
      for (const Kernel& k : ran[v]) ++kernels_per_task[k.task];
      EXPECT_EQ(kernels_per_task, std::vector<int>(tasks.size(), 1))
          << "vector " << v;
      std::sort(ran[v].begin(), ran[v].end(),
                [](const Kernel& a, const Kernel& b) {
                  return std::tie(a.start_s, a.device) <
                         std::tie(b.start_s, b.device);
                });
      executed.vectors[v].tasks.clear();
      for (const Kernel& k : ran[v]) {
        executed.vectors[v].tasks.push_back(tasks[k.task]);
      }
    }
    // The digest sums per-task norms in task order, so a reordering may
    // move its last bits; a wrong operand would move it far more.
    EXPECT_NEAR(execute_numerically(executed).digest, reference,
                1e-12 * reference);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep2, SchedulerProperties2,
    ::testing::Values(Case2{8, 0.5, DataDistribution::kUniform, 31},
                      Case2{16, 0.75, DataDistribution::kGaussian, 32},
                      Case2{16, 1.0, DataDistribution::kUniform, 33},
                      Case2{32, 0.25, DataDistribution::kGaussian, 34},
                      Case2{32, 0.75, DataDistribution::kUniform, 35},
                      Case2{64, 0.5, DataDistribution::kGaussian, 36}),
    case2_name);

}  // namespace
}  // namespace micco
