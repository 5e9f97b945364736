#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "obs/names.hpp"
#include "workload/synthetic.hpp"

namespace micco {
namespace {

SyntheticConfig small_workload() {
  SyntheticConfig c;
  c.num_vectors = 5;
  c.vector_size = 16;
  c.tensor_extent = 64;
  c.batch = 2;
  c.repeated_rate = 0.5;
  c.seed = 7;
  return c;
}

ClusterConfig small_cluster(int devices = 4) {
  ClusterConfig c;
  c.num_devices = devices;
  c.device_capacity_bytes = 256u << 20;
  return c;
}

TEST(Pipeline, RunsAllTasks) {
  const WorkloadStream stream = generate_synthetic(small_workload());
  MiccoScheduler sched;
  const RunResult result = run_stream(stream, sched, small_cluster());
  EXPECT_EQ(result.metrics.total_flops, stream.total_flops());
  EXPECT_GT(result.metrics.makespan_s, 0.0);
  EXPECT_GT(result.metrics.gflops(), 0.0);
  EXPECT_EQ(result.scheduler_name, "MICCO");
}

TEST(Pipeline, InvalidClusterReportedInResult) {
  // Reported like an invalid fault plan: no abort, no simulated work.
  const WorkloadStream stream = generate_synthetic(small_workload());
  MiccoScheduler sched;
  const RunResult result = run_stream(stream, sched, small_cluster(0));
  EXPECT_FALSE(result.completed);
  EXPECT_NE(result.error.find("invalid cluster configuration"),
            std::string::npos)
      << result.error;
  EXPECT_EQ(result.metrics.total_flops, 0u);
}

TEST(Pipeline, RecordsPerVectorCharacteristics) {
  const WorkloadStream stream = generate_synthetic(small_workload());
  MiccoScheduler sched;
  const RunResult result = run_stream(stream, sched, small_cluster());
  ASSERT_EQ(result.per_vector_characteristics.size(), stream.vectors.size());
  // First vector is all fresh -> zero repeated rate; later vectors see
  // residency from earlier ones.
  EXPECT_DOUBLE_EQ(result.per_vector_characteristics[0].repeated_rate, 0.0);
  EXPECT_GT(result.per_vector_characteristics[2].repeated_rate, 0.0);
}

TEST(Pipeline, SchedulingOverheadMeasuredAndSmall) {
  const WorkloadStream stream = generate_synthetic(small_workload());
  MiccoScheduler sched;
  const RunResult result = run_stream(stream, sched, small_cluster());
  EXPECT_GE(result.scheduling_overhead_ms, 0.0);
  // Wall-clock scheduling for 40 pairs must be far under a second.
  EXPECT_LT(result.scheduling_overhead_ms, 1000.0);
}

/// Forwards to a MICCO scheduler and counts its assign calls: the D that
/// run_stream numbers its decision clock by, re-executions included.
class CountingScheduler final : public Scheduler {
 public:
  std::string name() const override { return inner_.name(); }
  void begin_vector(const VectorWorkload& vec,
                    const ClusterSimulator& view) override {
    inner_.begin_vector(vec, view);
  }
  DeviceId assign(const ContractionTask& task,
                  const ClusterSimulator& view) override {
    ++assigns;
    return inner_.assign(task, view);
  }
  void end_vector() override { inner_.end_vector(); }
  void on_device_failure(DeviceId dev, const ClusterSimulator& view) override {
    inner_.on_device_failure(dev, view);
  }

  std::uint64_t assigns = 0;

 private:
  MiccoScheduler inner_;
};

/// One vector of `pairs` pairs over fresh operands.
WorkloadStream fresh_pairs(std::uint64_t pairs) {
  WorkloadStream stream;
  VectorWorkload& vec = stream.vectors.emplace_back();
  for (TensorId i = 0; i < pairs; ++i) {
    vec.tasks.push_back(ContractionTask{TensorDesc{3 * i, 2, 16, 1},
                                        TensorDesc{3 * i + 1, 2, 16, 1},
                                        TensorDesc{3 * i + 2, 2, 16, 1}});
  }
  return stream;
}

TEST(Pipeline, DecisionClockTimesOneDecisionInSixteen) {
  // The decision clock numbers assign calls over the whole run, so the
  // meter sees ceil(D / 16) of D decisions: a per-vector count would give
  // 5 on the 5 x 8 synthetic stream, not 3.
  const auto run_counted = [](const WorkloadStream& stream,
                              const FaultPlan* plan) {
    CountingScheduler sched;
    obs::HistogramScratch latency(obs::names::decision_latency_bounds_us());
    RunOptions options;
    options.faults = plan;
    options.decision_latency = &latency;
    const RunResult result =
        run_stream(stream, sched, small_cluster(), options);
    EXPECT_TRUE(result.completed) << result.error;
    EXPECT_EQ(latency.count(), (sched.assigns + kDecisionClockStride - 1) /
                                   kDecisionClockStride)
        << sched.assigns << " decisions";
    EXPECT_GT(result.scheduling_overhead_ms, 0.0);
    return std::pair{sched.assigns, result};
  };
  for (const std::uint64_t pairs : {1u, 15u, 16u, 17u}) {
    EXPECT_EQ(run_counted(fresh_pairs(pairs), nullptr).first, pairs);
  }
  const WorkloadStream stream = generate_synthetic(small_workload());
  const auto [clean_decisions, clean] = run_counted(stream, nullptr);
  EXPECT_EQ(clean_decisions, 40u);

  // A device lost mid-stream: re-executions add decisions.
  FaultPlan plan;
  plan.device_failures.push_back(
      DeviceFailure{1, clean.metrics.makespan_s / 2.0});
  const auto [decisions, recovered] = run_counted(stream, &plan);
  EXPECT_TRUE(recovered.recovered());
  EXPECT_GT(decisions, clean_decisions);
}

TEST(Pipeline, BoundsProviderFeedsMiccoScheduler) {
  // A provider returning generous bounds must change behaviour vs naive on
  // a reuse-heavy workload.
  SyntheticConfig cfg = small_workload();
  cfg.repeated_rate = 1.0;
  cfg.num_vectors = 8;
  const WorkloadStream stream = generate_synthetic(cfg);

  MiccoScheduler naive_sched;
  const RunResult naive = run_stream(stream, naive_sched, small_cluster());

  MiccoScheduler tuned_sched;
  FixedBounds generous{ReuseBounds{2, 2, 2}};
  const RunResult tuned =
      run_stream(stream, tuned_sched, small_cluster(), &generous);

  EXPECT_NE(naive.metrics.reused_operands, tuned.metrics.reused_operands);
}

TEST(Pipeline, BoundsProviderIgnoredForBaselines) {
  const WorkloadStream stream = generate_synthetic(small_workload());
  GrouteScheduler groute;
  FixedBounds bounds{ReuseBounds{2, 2, 2}};
  // Must run without attempting to cast Groute to MiccoScheduler.
  const RunResult result =
      run_stream(stream, groute, small_cluster(), &bounds);
  EXPECT_EQ(result.metrics.total_flops, stream.total_flops());
}

TEST(Pipeline, DeterministicMetricsAcrossRuns) {
  const WorkloadStream stream = generate_synthetic(small_workload());
  MiccoScheduler s1, s2;
  const RunResult a = run_stream(stream, s1, small_cluster());
  const RunResult b = run_stream(stream, s2, small_cluster());
  EXPECT_DOUBLE_EQ(a.metrics.makespan_s, b.metrics.makespan_s);
  EXPECT_EQ(a.metrics.h2d_bytes, b.metrics.h2d_bytes);
  EXPECT_EQ(a.metrics.evictions, b.metrics.evictions);
}

TEST(Pipeline, EmptyVectorsAreSkipped) {
  WorkloadStream stream;
  stream.vectors.emplace_back();  // empty vector
  MiccoScheduler sched;
  const RunResult result = run_stream(stream, sched, small_cluster());
  EXPECT_EQ(result.metrics.total_flops, 0u);
  EXPECT_TRUE(result.per_vector_characteristics.empty());
}

TEST(CapacitySizing, RateScalesInversely) {
  const WorkloadStream stream = generate_synthetic(small_workload());
  const std::uint64_t at_100 =
      capacity_for_oversubscription(stream, 4, 1.0, 1);
  const std::uint64_t at_200 =
      capacity_for_oversubscription(stream, 4, 2.0, 1);
  EXPECT_NEAR(static_cast<double>(at_100) / static_cast<double>(at_200), 2.0,
              0.01);
}

TEST(CapacitySizing, FlooredAtMinimum) {
  const WorkloadStream stream = generate_synthetic(small_workload());
  const std::uint64_t huge_floor = 1ull << 40;
  EXPECT_EQ(capacity_for_oversubscription(stream, 4, 2.0, huge_floor),
            huge_floor);
}

TEST(Comparison, RunsRequestedSchedulers) {
  const WorkloadStream stream = generate_synthetic(small_workload());
  const auto entries = compare_schedulers(
      stream, small_cluster(),
      {SchedulerKind::kGroute, SchedulerKind::kMiccoNaive});
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].name, "Groute");
  EXPECT_EQ(entries[1].name, "MICCO-naive");
  for (const ComparisonEntry& e : entries) {
    EXPECT_EQ(e.result.metrics.total_flops, stream.total_flops());
  }
}

TEST(Comparison, OptimalSkippedWithoutProvider) {
  const WorkloadStream stream = generate_synthetic(small_workload());
  const auto entries = compare_schedulers(
      stream, small_cluster(),
      {SchedulerKind::kGroute, SchedulerKind::kMiccoOptimal});
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].kind, SchedulerKind::kGroute);
}

TEST(Comparison, OptimalIncludedWithProvider) {
  const WorkloadStream stream = generate_synthetic(small_workload());
  FixedBounds bounds{ReuseBounds{1, 1, 1}};
  const auto entries = compare_schedulers(
      stream, small_cluster(),
      {SchedulerKind::kGroute, SchedulerKind::kMiccoOptimal}, &bounds);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[1].name, "MICCO-optimal");
}

TEST(Comparison, SpeedupOfIsRatioOfMakespans) {
  const WorkloadStream stream = generate_synthetic(small_workload());
  const auto entries = compare_schedulers(
      stream, small_cluster(),
      {SchedulerKind::kGroute, SchedulerKind::kMiccoNaive});
  const double s = speedup_of(entries, SchedulerKind::kMiccoNaive,
                              SchedulerKind::kGroute);
  EXPECT_NEAR(s,
              entries[0].result.metrics.makespan_s /
                  entries[1].result.metrics.makespan_s,
              1e-12);
}

TEST(Comparison, SchedulerKindNames) {
  EXPECT_STREQ(to_string(SchedulerKind::kGroute), "Groute");
  EXPECT_STREQ(to_string(SchedulerKind::kMiccoNaive), "MICCO-naive");
  EXPECT_STREQ(to_string(SchedulerKind::kMiccoOptimal), "MICCO-optimal");
  EXPECT_STREQ(to_string(SchedulerKind::kDmda), "dmda");
}

TEST(Comparison, MakeSchedulerProducesCorrectTypes) {
  EXPECT_EQ(make_scheduler(SchedulerKind::kGroute)->name(), "Groute");
  EXPECT_EQ(make_scheduler(SchedulerKind::kMiccoNaive)->name(), "MICCO");
}

}  // namespace
}  // namespace micco
