#include "core/tuner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <set>

#include "parallel/parallel.hpp"

namespace micco {
namespace {

TunerConfig tiny_tuner() {
  TunerConfig c;
  c.samples = 6;
  c.vector_sizes = {8, 16};
  c.tensor_extents = {64};
  c.repeated_rates = {0.5, 1.0};
  c.num_vectors = 4;
  c.batch = 1;
  c.num_devices = 2;
  c.max_bound = 1;  // 8 grid points per sample
  c.seed = 99;
  return c;
}

TEST(Tuner, ProducesRequestedSamples) {
  const TuningData data = generate_tuning_data(tiny_tuner());
  EXPECT_EQ(data.samples.size(), 6u);
  // Each sample swept the full (max_bound+1)^3 grid.
  EXPECT_EQ(data.records.size(), 6u * 8u);
}

TEST(Tuner, BestBoundsComeFromGrid) {
  const TunerConfig cfg = tiny_tuner();
  const TuningData data = generate_tuning_data(cfg);
  for (const TrainingSample& s : data.samples) {
    for (std::size_t b = 0; b < 3; ++b) {
      EXPECT_GE(s.best_bounds[b], 0);
      EXPECT_LE(s.best_bounds[b], cfg.max_bound);
    }
    EXPECT_GT(s.best_gflops, 0.0);
    EXPECT_GE(s.best_gflops, s.worst_gflops);
  }
}

TEST(Tuner, BestLabelMatchesBestRecord) {
  const TuningData data = generate_tuning_data(tiny_tuner());
  // For the first sample, the labelled best must equal the max over its
  // records.
  const TrainingSample& s = data.samples[0];
  double best = 0.0;
  for (std::size_t r = 0; r < 8; ++r) {
    best = std::max(best, data.records[r].gflops);
  }
  EXPECT_DOUBLE_EQ(s.best_gflops, best);
}

TEST(Tuner, FeaturesComeFromOnlineExtraction) {
  // Features must be what the online extractor would report: vector size
  // and extent are exact; bias and repeated rate are measured estimates.
  const TunerConfig cfg = tiny_tuner();
  const TuningData data = generate_tuning_data(cfg);
  for (const TrainingSample& s : data.samples) {
    EXPECT_TRUE(s.characteristics.vector_size == 8.0 ||
                s.characteristics.vector_size == 16.0);
    EXPECT_DOUBLE_EQ(s.characteristics.tensor_extent, 64.0);
    EXPECT_GE(s.characteristics.repeated_rate, 0.0);
    EXPECT_LE(s.characteristics.repeated_rate, 1.0);
    EXPECT_GE(s.characteristics.distribution_bias, 0.0);
    EXPECT_LE(s.characteristics.distribution_bias, 1.0);
  }
  // Across the corpus the measured repeated rates must spread (configs use
  // 0.5 and 1.0 requested rates).
  double lo = 1.0, hi = 0.0;
  for (const TrainingSample& s : data.samples) {
    lo = std::min(lo, s.characteristics.repeated_rate);
    hi = std::max(hi, s.characteristics.repeated_rate);
  }
  EXPECT_LT(lo, hi);
}

TEST(Tuner, DeterministicInSeed) {
  const TuningData a = generate_tuning_data(tiny_tuner());
  const TuningData b = generate_tuning_data(tiny_tuner());
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.records[i].gflops, b.records[i].gflops);
    EXPECT_EQ(a.records[i].bounds, b.records[i].bounds);
  }
}

TEST(Tuner, MeasureGflopsPositiveAndBoundsSensitive) {
  // A biased (Gaussian) repeat pattern concentrates the hot tensors, so
  // loosening the bounds must change the assignment and hence GFLOPS.
  SyntheticConfig synth;
  synth.num_vectors = 8;
  synth.vector_size = 16;
  synth.tensor_extent = 64;
  synth.batch = 1;
  synth.repeated_rate = 0.75;
  synth.distribution = DataDistribution::kGaussian;
  synth.seed = 3;
  const WorkloadStream stream = generate_synthetic(synth);
  ClusterConfig cluster;
  cluster.num_devices = 4;

  std::set<double> distinct;
  for (const ReuseBounds& b : bound_grid(2)) {
    const double gflops = measure_gflops(stream, b, cluster);
    EXPECT_GT(gflops, 0.0);
    distinct.insert(gflops);
  }
  EXPECT_GE(distinct.size(), 2u);  // bounds must matter somewhere on the grid
}

/// The sweep before interval reuse: every (sample, stream, triple) run
/// simulated through measure_gflops, averaged over a sample's streams in
/// stream order.
std::vector<double> brute_force_gflops(const TunerConfig& cfg) {
  const std::vector<SyntheticConfig> synths = tuning_stream_configs(cfg);
  const std::size_t group =
      synths.size() / static_cast<std::size_t>(cfg.samples);
  ClusterConfig cluster;
  cluster.num_devices = cfg.num_devices;
  cluster.device_capacity_bytes = cfg.device_capacity_bytes;
  std::vector<double> gflops;
  for (std::size_t s = 0; s < synths.size(); s += group) {
    std::vector<WorkloadStream> streams;
    for (std::size_t k = 0; k < group; ++k) {
      streams.push_back(generate_synthetic(synths[s + k]));
    }
    for (const ReuseBounds& bounds : bound_grid(cfg.max_bound)) {
      double sum = 0.0;
      for (const WorkloadStream& stream : streams) {
        sum += measure_gflops(stream, bounds, cluster);
      }
      gflops.push_back(sum / static_cast<double>(group));
    }
  }
  return gflops;
}

TunerConfig reuse_tuner() {
  TunerConfig c = tiny_tuner();
  c.samples = 4;
  c.num_devices = 4;
  c.max_bound = 2;
  c.seeds_per_sample = 3;
  return c;
}

TEST(Tuner, RecordsMatchBruteForceMeasureGflops) {
  const TunerConfig cfg = reuse_tuner();
  const std::vector<double> reference = brute_force_gflops(cfg);
  for (const int threads : {1, 4}) {
    parallel::set_threads(threads);
    const TuningData data = generate_tuning_data(cfg);
    parallel::set_threads(1);
    ASSERT_EQ(data.records.size(), reference.size());
    for (std::size_t r = 0; r < reference.size(); ++r) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(data.records[r].gflops),
                std::bit_cast<std::uint64_t>(reference[r]))
          << "record " << r << " at " << threads << " threads";
    }
    EXPECT_EQ(data.grid_runs_simulated + data.grid_runs_reused, 4u * 3 * 27);
    EXPECT_GT(data.grid_runs_reused, 0u);  // the intervals did prune
  }
}

TEST(Tuner, SweepBoundGridMatchesMeasureGflops) {
  SyntheticConfig synth;
  synth.num_vectors = 6;
  synth.vector_size = 16;
  synth.tensor_extent = 64;
  synth.batch = 1;
  synth.repeated_rate = 0.75;
  synth.distribution = DataDistribution::kGaussian;
  synth.seed = 12;
  const WorkloadStream stream = generate_synthetic(synth);
  ClusterConfig cluster;
  cluster.num_devices = 4;
  const auto& triples = fig8_bound_sweep();
  const BoundSweep sweep = sweep_bound_grid(stream, triples, cluster);
  ASSERT_EQ(sweep.gflops.size(), triples.size());
  EXPECT_EQ(sweep.simulated + sweep.reused, triples.size());
  EXPECT_GE(sweep.simulated, 1u);
  for (std::size_t t = 0; t < triples.size(); ++t) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(sweep.gflops[t]),
              std::bit_cast<std::uint64_t>(
                  measure_gflops(stream, triples[t], cluster)))
        << triples[t].to_string();
  }
}

TEST(TunerValidate, RejectsBadConfigs) {
  EXPECT_EQ(TunerConfig{}.validate(), "");
  EXPECT_EQ(tiny_tuner().validate(), "");
  const auto problem = [](auto edit) {
    TunerConfig c = tiny_tuner();
    edit(c);
    return c.validate();
  };
  EXPECT_NE(problem([](TunerConfig& c) { c.samples = 0; }), "");
  EXPECT_NE(problem([](TunerConfig& c) { c.samples = -3; }), "");
  EXPECT_NE(problem([](TunerConfig& c) { c.batch = 0; }), "");
  EXPECT_NE(problem([](TunerConfig& c) { c.num_vectors = 0; }), "");
  EXPECT_NE(problem([](TunerConfig& c) { c.num_devices = 0; }), "");
  EXPECT_NE(problem([](TunerConfig& c) { c.device_capacity_bytes = 0; }), "");
  EXPECT_NE(problem([](TunerConfig& c) { c.max_bound = -1; }), "");
  EXPECT_NE(problem([](TunerConfig& c) { c.vector_sizes.clear(); }), "");
  EXPECT_NE(problem([](TunerConfig& c) { c.vector_sizes = {8, 3}; }), "");
  EXPECT_NE(problem([](TunerConfig& c) { c.tensor_extents = {0}; }), "");
  EXPECT_NE(problem([](TunerConfig& c) { c.repeated_rates = {1.5}; }), "");
  EXPECT_NE(problem([](TunerConfig& c) { c.samples = 0; }).find("samples"),
            std::string::npos);
}

}  // namespace
}  // namespace micco
