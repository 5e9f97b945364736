#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include "core/experiment.hpp"
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
  EXPECT_STREQ(to_string(SchedulerKind::kRoundRobin), "RoundRobin");
}

TEST(Comparison, MakeSchedulerProducesCorrectTypes) {
  EXPECT_EQ(make_scheduler(SchedulerKind::kGroute)->name(), "Groute");
  EXPECT_EQ(make_scheduler(SchedulerKind::kMiccoNaive)->name(), "MICCO");
}

}  // namespace
}  // namespace micco
