// Cross-module integration tests: the headline behaviours the paper's
// evaluation rests on, checked end-to-end on small workloads.
#include <gtest/gtest.h>

#include "core/bounds_model.hpp"
#include "core/experiment.hpp"
#include "core/tuner.hpp"
#include "redstar/correlator.hpp"
#include "workload/synthetic.hpp"

namespace micco {
namespace {

ClusterConfig cluster_of(int devices,
                         std::uint64_t capacity = 512ull << 20) {
  ClusterConfig c;
  c.num_devices = devices;
  c.device_capacity_bytes = capacity;
  return c;
}

WorkloadStream reuse_heavy_stream(DataDistribution dist, std::uint64_t seed,
                                  double rate = 0.75) {
  SyntheticConfig cfg;
  cfg.num_vectors = 10;
  cfg.vector_size = 32;
  cfg.tensor_extent = 128;
  cfg.batch = 4;
  cfg.repeated_rate = rate;
  cfg.distribution = dist;
  cfg.seed = seed;
  return generate_synthetic(cfg);
}

TEST(Integration, MiccoBeatsGrouteOnReuseHeavyUniform) {
  const WorkloadStream stream =
      reuse_heavy_stream(DataDistribution::kUniform, 11);
  const auto entries = compare_schedulers(
      stream, cluster_of(4),
      {SchedulerKind::kGroute, SchedulerKind::kMiccoNaive});
  EXPECT_GT(speedup_of(entries, SchedulerKind::kMiccoNaive,
                       SchedulerKind::kGroute),
            1.0);
}

TEST(Integration, TunedMiccoBeatsGrouteOnReuseHeavyGaussian) {
  // On biased repeats, zero bounds can tie with pure balancing (exactly the
  // paper's motivation for reuse bounds); the best fixed bound triple must
  // beat Groute.
  const WorkloadStream stream =
      reuse_heavy_stream(DataDistribution::kGaussian, 13, 0.5);
  const ClusterConfig cluster = cluster_of(4);
  const auto entries =
      compare_schedulers(stream, cluster, {SchedulerKind::kGroute});
  const double groute_gflops = entries[0].gflops();

  double best = 0.0;
  for (const ReuseBounds& b : fig8_bound_sweep()) {
    best = std::max(best, measure_gflops(stream, b, cluster));
  }
  EXPECT_GT(best, groute_gflops);
}

TEST(Integration, MiccoReusesMoreOperandsThanGroute) {
  // H2D counts only first touches (replicas travel P2P), so the memory-
  // operation win shows up in reuse hits and total transferred bytes.
  const WorkloadStream stream =
      reuse_heavy_stream(DataDistribution::kUniform, 17);
  const auto entries = compare_schedulers(
      stream, cluster_of(4),
      {SchedulerKind::kGroute, SchedulerKind::kMiccoNaive});
  const ExecutionMetrics& groute = entries[0].result.metrics;
  const ExecutionMetrics& micco = entries[1].result.metrics;
  EXPECT_GT(micco.reused_operands, groute.reused_operands);
  EXPECT_LT(micco.h2d_bytes + micco.p2p_bytes,
            groute.h2d_bytes + groute.p2p_bytes);
}

TEST(Integration, TunedBoundsBeatNaiveOnBiasedWorkload) {
  // Gaussian-biased repeats are exactly where slack pays: the hot tensors
  // cluster on few devices, and a small bound lets MICCO keep them there.
  const WorkloadStream stream =
      reuse_heavy_stream(DataDistribution::kGaussian, 19, 0.75);
  const ClusterConfig cluster = cluster_of(4);

  double best_tuned = 0.0;
  for (const ReuseBounds& b : fig8_bound_sweep()) {
    best_tuned = std::max(best_tuned, measure_gflops(stream, b, cluster));
  }
  const double naive = measure_gflops(stream, ReuseBounds::naive(), cluster);
  EXPECT_GE(best_tuned, naive);
}

TEST(Integration, ZeroRepeatWorkloadsShowNoMiccoAdvantage) {
  // Without repeats there is nothing to reuse; MICCO must not lose badly
  // either (sanity bound: within 10% of Groute).
  SyntheticConfig cfg;
  cfg.num_vectors = 8;
  cfg.vector_size = 32;
  cfg.tensor_extent = 128;
  cfg.batch = 4;
  cfg.repeated_rate = 0.0;
  cfg.seed = 23;
  const WorkloadStream stream = generate_synthetic(cfg);
  const auto entries = compare_schedulers(
      stream, cluster_of(4),
      {SchedulerKind::kGroute, SchedulerKind::kMiccoNaive});
  const double speedup = speedup_of(entries, SchedulerKind::kMiccoNaive,
                                    SchedulerKind::kGroute);
  EXPECT_GT(speedup, 0.9);
}

TEST(Integration, MoreDevicesReduceMakespan) {
  const WorkloadStream stream =
      reuse_heavy_stream(DataDistribution::kUniform, 29);
  MiccoScheduler s2, s4;
  const RunResult two = run_stream(stream, s2, cluster_of(2));
  const RunResult four = run_stream(stream, s4, cluster_of(4));
  EXPECT_LT(four.metrics.makespan_s, two.metrics.makespan_s);
}

TEST(Integration, OversubscriptionCausesEvictionsAndSlowdown) {
  const WorkloadStream stream =
      reuse_heavy_stream(DataDistribution::kUniform, 31);
  MiccoScheduler roomy_sched, tight_sched;

  const RunResult roomy = run_stream(stream, roomy_sched, cluster_of(4));
  ClusterConfig tight = cluster_of(4);
  tight.device_capacity_bytes = capacity_for_oversubscription(
      stream, 4, 2.0, 4 * stream.vectors[0].tasks[0].a.bytes());
  const RunResult pressured = run_stream(stream, tight_sched, tight);

  EXPECT_EQ(roomy.metrics.evictions, 0u);
  EXPECT_GT(pressured.metrics.evictions, 0u);
  EXPECT_GT(pressured.metrics.makespan_s, roomy.metrics.makespan_s);
}

TEST(Integration, EvictionSensitivePolicyReducesEvictionsOnAverage) {
  // The policy is a heuristic, not per-seed monotone; require it to win in
  // aggregate across several workloads.
  std::uint64_t total_on = 0;
  std::uint64_t total_off = 0;
  for (const std::uint64_t seed : {37u, 38u, 39u, 40u, 41u}) {
    const WorkloadStream stream =
        reuse_heavy_stream(DataDistribution::kGaussian, seed, 0.75);
    ClusterConfig tight = cluster_of(4);
    tight.device_capacity_bytes = capacity_for_oversubscription(
        stream, 4, 1.5, 4 * stream.vectors[0].tasks[0].a.bytes());

    MiccoSchedulerOptions with_policy;
    with_policy.bounds = ReuseBounds{2, 2, 2};
    with_policy.eviction_sensitive = true;
    MiccoSchedulerOptions without_policy = with_policy;
    without_policy.eviction_sensitive = false;

    MiccoScheduler s_on(with_policy), s_off(without_policy);
    total_on += run_stream(stream, s_on, tight).metrics.evictions;
    total_off += run_stream(stream, s_off, tight).metrics.evictions;
  }
  EXPECT_LE(total_on, total_off);
}

TEST(Integration, EndToEndRegressionPipelineImprovesOrMatchesNaive) {
  // Miniature version of the full Fig. 6 flow: sweep, train, run online.
  TunerConfig tuner;
  tuner.samples = 24;
  tuner.vector_sizes = {16, 32};
  tuner.tensor_extents = {128};
  tuner.repeated_rates = {0.25, 0.75};
  tuner.num_vectors = 6;
  tuner.batch = 2;
  tuner.num_devices = 4;
  tuner.max_bound = 2;
  tuner.seed = 41;
  TrainedBoundsModel model = train_default_model(tuner);

  const WorkloadStream stream =
      reuse_heavy_stream(DataDistribution::kGaussian, 43, 0.75);
  const auto entries = compare_schedulers(
      stream, cluster_of(4),
      {SchedulerKind::kMiccoNaive, SchedulerKind::kMiccoOptimal},
      model.provider.get());
  ASSERT_EQ(entries.size(), 2u);
  const double ratio = speedup_of(entries, SchedulerKind::kMiccoOptimal,
                                  SchedulerKind::kMiccoNaive);
  EXPECT_GT(ratio, 0.95);  // never materially worse than naive
}

TEST(Integration, TunerCorpusSeed9Trains) {
  // `micco train --seed=9` once aborted in the forest fit: its corpus holds
  // adjacent doubles in a feature column, whose midpoint threshold split no
  // samples off. The first 80 samples of that corpus already trip it.
  TunerConfig tuner;
  tuner.samples = 80;
  tuner.batch = 32;
  tuner.seed = 9;
  const TuningData data = generate_tuning_data(tuner);
  const TrainedBoundsModel trained = train_bounds_model(
      data.samples, random_forest_factory(), "RandomForest", tuner.max_bound);
  ASSERT_NE(trained.provider, nullptr);
  for (const ml::Dataset& set : build_bound_datasets(data.samples)) {
    random_forest_factory()()->fit(set);
  }
}

TEST(Integration, RedstarWorkloadSchedulesOnCluster) {
  redstar::CorrelatorSpec spec = redstar::make_a1_rhopi();
  spec.time_slices = 4;
  spec.extent = 32;
  spec.batch = 2;
  const redstar::CorrelatorWorkload w = redstar::build_workload(spec);

  const auto entries = compare_schedulers(
      w.stream, cluster_of(4),
      {SchedulerKind::kGroute, SchedulerKind::kMiccoNaive});
  for (const ComparisonEntry& e : entries) {
    EXPECT_EQ(e.result.metrics.total_flops, w.stream.total_flops());
  }
  // Real correlators share hadron nodes heavily; MICCO must reuse more.
  EXPECT_GE(entries[1].result.metrics.reused_operands,
            entries[0].result.metrics.reused_operands);
}

}  // namespace
}  // namespace micco
