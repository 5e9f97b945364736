#include "core/tuner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <set>
#include <span>
#include <utility>

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

TEST(Tuner, FeaturesAreANaiveRunsSteadyStateMean) {
  // A sample's features are the mean over every vector but the first of
  // what a plain MICCO-naive run of the sample's first stream extracts.
  const TunerConfig cfg = tiny_tuner();
  const TuningData data = generate_tuning_data(cfg);
  const std::vector<SyntheticConfig> streams = tuning_stream_configs(cfg);
  const std::size_t group = streams.size() / data.samples.size();
  ClusterConfig cluster;
  cluster.num_devices = cfg.num_devices;
  cluster.device_capacity_bytes = cfg.device_capacity_bytes;
  for (std::size_t s = 0; s < data.samples.size(); ++s) {
    MiccoScheduler naive;
    const RunResult run =
        run_stream(generate_synthetic(streams[s * group]), naive, cluster);
    const std::vector<DataCharacteristics>& per_vector =
        run.per_vector_characteristics;
    ASSERT_GT(per_vector.size(), 1u);
    DataCharacteristics mean;
    double n = 0.0;
    for (std::size_t v = 1; v < per_vector.size(); ++v) {
      mean.vector_size += per_vector[v].vector_size;
      mean.tensor_extent += per_vector[v].tensor_extent;
      mean.distribution_bias += per_vector[v].distribution_bias;
      mean.repeated_rate += per_vector[v].repeated_rate;
      n += 1.0;
    }
    const DataCharacteristics& got = data.samples[s].characteristics;
    EXPECT_EQ(got.vector_size, mean.vector_size / n) << "sample " << s;
    EXPECT_EQ(got.tensor_extent, mean.tensor_extent / n) << "sample " << s;
    EXPECT_EQ(got.distribution_bias, mean.distribution_bias / n)
        << "sample " << s;
    EXPECT_EQ(got.repeated_rate, mean.repeated_rate / n) << "sample " << s;
  }
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
    EXPECT_GT(data.grid_runs_forked, 0u);  // and runs resumed from forks
    EXPECT_LT(data.grid_pairs_simulated, data.grid_pairs);
  }
}

/// `stream` with a pair of wide tensors set in the middle of vector
/// `vector`: on 1 MiB devices no run gets past that pair.
WorkloadStream with_undersized_pair(const WorkloadStream& stream,
                                    std::size_t vector) {
  WorkloadStream stopping = stream;
  std::vector<ContractionTask>& tasks = stopping.vectors[vector].tasks;
  ContractionTask wide = tasks.front();
  for (TensorDesc* desc : {&wide.a, &wide.b, &wide.out}) desc->extent = 1024;
  wide.a.id = TensorId{1} << 19;
  wide.b.id = wide.a.id + 1;
  wide.out.id = wide.a.id + 2;
  tasks.insert(tasks.begin() + static_cast<std::ptrdiff_t>(tasks.size() / 2),
               wide);
  return stopping;
}

TEST(Tuner, SweepBoundGridMatchesMeasureGflops) {
  // Every triple of the full grid and of the Fig. 8 list, on seeded Uniform
  // and Gaussian streams, bit for bit — whether the sweep reused an earlier
  // run, resumed from a checkpoint or simulated from vector 0.
  ClusterConfig roomy;
  roomy.num_devices = 4;
  const std::vector<ReuseBounds> grid = bound_grid(2);
  const auto& fig8 = fig8_bound_sweep();
  const std::vector<ReuseBounds> fig8_list(fig8.begin(), fig8.end());
  std::vector<WorkloadStream> streams;
  for (const DataDistribution distribution :
       {DataDistribution::kUniform, DataDistribution::kGaussian}) {
    for (const std::uint64_t seed : {12ULL, 31ULL, 47ULL}) {
      SyntheticConfig synth;
      synth.num_vectors = 6;
      synth.vector_size = 16;
      synth.tensor_extent = 64;
      synth.batch = 1;
      synth.repeated_rate = 0.75;
      synth.distribution = distribution;
      synth.seed = seed;
      streams.push_back(generate_synthetic(synth));
    }
  }

  // Two cases stop part way: their devices are too small for one pair of
  // wide tensors, set in the middle of the fourth vector in one and of the
  // last in the other, so every run ends there with the GFLOPS it reached.
  // In the second, runs fork before they reach that pair.
  const WorkloadStream& gaussian = streams[3];
  const WorkloadStream stops_early = with_undersized_pair(gaussian, 3);
  const WorkloadStream stops_late =
      with_undersized_pair(gaussian, gaussian.vectors.size() - 1);
  ClusterConfig small = roomy;
  small.device_capacity_bytes = 1ULL << 20;
  const std::vector<ContractionTask>& early = stops_early.vectors[3].tasks;
  ASSERT_GT(early[early.size() / 2].a.bytes(), small.device_capacity_bytes);
  for (const WorkloadStream* s : {&stops_early, &stops_late}) {
    MiccoScheduler naive;
    const RunResult stopped = run_stream(*s, naive, small);
    ASSERT_FALSE(stopped.completed);
    ASSERT_GT(stopped.metrics.gflops(), 0.0);
  }

  struct Case {
    const WorkloadStream* stream;
    ClusterConfig cluster;
    const std::vector<ReuseBounds>* triples;
  };
  std::vector<Case> cases;
  for (const WorkloadStream& stream : streams) {
    cases.push_back(Case{&stream, roomy, &grid});
    cases.push_back(Case{&stream, roomy, &fig8_list});
  }
  cases.push_back(Case{&stops_early, small, &fig8_list});
  cases.push_back(Case{&stops_late, small, &grid});
  std::uint64_t forked = 0;
  for (const Case& c : cases) {
    const std::vector<ReuseBounds>& triples = *c.triples;
    const BoundSweep sweep = sweep_bound_grid(*c.stream, triples, c.cluster);
    ASSERT_EQ(sweep.gflops.size(), triples.size());
    EXPECT_EQ(sweep.simulated + sweep.reused, triples.size());
    EXPECT_GE(sweep.simulated, 1u);
    EXPECT_EQ(sweep.forked, sweep.simulated - 1);  // all but the root resume
    EXPECT_LE(sweep.pairs_simulated, sweep.pairs);
    forked += sweep.forked;
    for (std::size_t t = 0; t < triples.size(); ++t) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(sweep.gflops[t]),
                std::bit_cast<std::uint64_t>(
                    measure_gflops(*c.stream, triples[t], c.cluster)))
          << triples[t].to_string() << " on "
          << c.cluster.device_capacity_bytes << "-byte devices";
    }
  }
  EXPECT_GT(forked, 0u);  // the cases above do fork

  // Every run of the late stopper ends at its undersized pair, so each
  // holds the same pairs. A forked run that resumed ahead of that pair
  // simulates more than the one pair it stops at.
  const BoundSweep late = sweep_bound_grid(stops_late, grid, small);
  ASSERT_GT(late.forked, 0u);
  const std::uint64_t run_pairs = late.pairs / late.simulated;
  EXPECT_EQ(late.pairs, late.simulated * run_pairs);
  EXPECT_GT(late.pairs_simulated - (late.simulated - late.forked) * run_pairs,
            late.forked);
}

TEST(Tuner, SweepIsIndependentOfTripleOrder) {
  // The final boxes the walk simulates, and the pairs it simulates to reach
  // them, follow from the boxes, not from the list's order: a list and its
  // reverse give the same GFLOPS per triple, bit for bit, and the same
  // counts. Two cases stop part way, in the first vector and in the last.
  ClusterConfig roomy;
  roomy.num_devices = 4;
  ClusterConfig small = roomy;
  small.device_capacity_bytes = 1ULL << 20;
  const auto& fig8 = fig8_bound_sweep();
  const std::vector<std::vector<ReuseBounds>> lists = {
      bound_grid(2), bound_grid(4),
      std::vector<ReuseBounds>(fig8.begin(), fig8.end())};
  struct Case {
    WorkloadStream stream;
    ClusterConfig cluster;
  };
  std::vector<Case> cases;
  for (const DataDistribution distribution :
       {DataDistribution::kUniform, DataDistribution::kGaussian}) {
    for (const std::uint64_t seed : {12ULL, 47ULL}) {
      SyntheticConfig synth;
      synth.num_vectors = 6;
      synth.vector_size = 16;
      synth.tensor_extent = 64;
      synth.batch = 1;
      synth.repeated_rate = 0.75;
      synth.distribution = distribution;
      synth.seed = seed;
      cases.push_back(Case{generate_synthetic(synth), roomy});
    }
  }
  const WorkloadStream gaussian = cases.back().stream;
  cases.push_back(Case{with_undersized_pair(gaussian, 0), small});
  cases.push_back(
      Case{with_undersized_pair(gaussian, gaussian.vectors.size() - 1), small});

  for (const Case& c : cases) {
    for (const std::vector<ReuseBounds>& list : lists) {
      const std::vector<ReuseBounds> reversed(list.rbegin(), list.rend());
      const BoundSweep forward = sweep_bound_grid(c.stream, list, c.cluster);
      const BoundSweep backward =
          sweep_bound_grid(c.stream, reversed, c.cluster);
      EXPECT_EQ(forward.simulated, backward.simulated);
      EXPECT_EQ(forward.forked, backward.forked);
      EXPECT_EQ(forward.pairs_simulated, backward.pairs_simulated);
      EXPECT_EQ(forward.pairs, backward.pairs);
      ASSERT_EQ(backward.gflops.size(), list.size());
      for (std::size_t t = 0; t < list.size(); ++t) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(forward.gflops[t]),
                  std::bit_cast<std::uint64_t>(
                      backward.gflops[list.size() - 1 - t]))
            << list[t].to_string() << " of " << list.size() << " triples";
      }
    }
  }
}

TEST(Tuner, ForkedSweepCountsItsPairs) {
  // A sweep that forks simulates fewer pairs than its runs hold; a sweep
  // that never forks simulates them all. With the full grid's first triple
  // alone, the one run holds every pair of the stream.
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
  std::uint64_t stream_pairs = 0;
  for (const VectorWorkload& vec : stream.vectors) {
    stream_pairs += vec.tasks.size();
  }

  const std::vector<ReuseBounds> grid = bound_grid(2);
  const BoundSweep one =
      sweep_bound_grid(stream, std::span(grid).first(1), cluster);
  EXPECT_EQ(one.simulated, 1u);
  EXPECT_EQ(one.forked, 0u);
  EXPECT_EQ(one.pairs, stream_pairs);
  EXPECT_EQ(one.pairs_simulated, stream_pairs);

  const BoundSweep all = sweep_bound_grid(stream, grid, cluster);
  EXPECT_GT(all.forked, 0u);
  EXPECT_EQ(all.pairs, all.simulated * stream_pairs);
  EXPECT_LT(all.pairs_simulated, all.pairs);
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
