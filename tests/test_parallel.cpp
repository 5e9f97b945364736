// Parallel layer tests: pool semantics (every index exactly once, ordering,
// exceptions, nesting) and the determinism contract — tuner labels, forest
// predictions and trial statistics bit-identical at threads=1 vs threads=8
// and across repeated threads=8 runs. All suites here start with "Parallel"
// so ci.sh can run exactly this set under ThreadSanitizer.
#include "parallel/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "bench_common.hpp"
#include "core/tuner.hpp"
#include "ml/random_forest.hpp"

namespace micco {
namespace {

/// Restores the lane count on scope exit so one test's width never leaks
/// into another (the pool is process-global).
class ThreadGuard {
 public:
  explicit ThreadGuard(int threads) { parallel::set_threads(threads); }
  ~ThreadGuard() { parallel::set_threads(1); }
};

// -- pool semantics --------------------------------------------------------

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  for (const int threads : {1, 2, 8}) {
    ThreadGuard guard(threads);
    constexpr std::size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    parallel::parallel_for(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " @" << threads;
    }
  }
}

TEST(ParallelFor, HandlesEmptyAndSingleItemLoops) {
  ThreadGuard guard(8);
  int calls = 0;
  parallel::parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallel::parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelMap, ResultsLandInIndexOrder) {
  ThreadGuard guard(8);
  // Uneven per-item work so completion order scrambles under real threads;
  // the results must come back in index order anyway.
  const auto out = parallel::parallel_map(257, [](std::size_t i) {
    std::uint64_t x = i;
    for (std::size_t spin = 0; spin < (i % 7) * 1000; ++spin) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    }
    (void)x;
    return i * i;
  });
  ASSERT_EQ(out.size(), 257u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ParallelMap, SupportsMoveOnlyResultTypes) {
  ThreadGuard guard(4);
  const auto out = parallel::parallel_map(
      16, [](std::size_t i) { return std::make_unique<std::size_t>(i); });
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(*out[i], i);
}

TEST(ParallelFor, PropagatesExceptionsToCaller) {
  for (const int threads : {1, 8}) {
    ThreadGuard guard(threads);
    EXPECT_THROW(
        parallel::parallel_for(100,
                               [](std::size_t i) {
                                 if (i == 37) {
                                   throw std::runtime_error("item 37");
                                 }
                               }),
        std::runtime_error);
    // The pool must still be usable after a failed loop.
    std::atomic<int> ran{0};
    parallel::parallel_for(10, [&](std::size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 10);
  }
}

TEST(ParallelFor, NestedLoopsCompleteWithoutDeadlock) {
  for (const int threads : {1, 2, 8}) {
    ThreadGuard guard(threads);
    constexpr std::size_t kOuter = 6;
    constexpr std::size_t kInner = 32;
    std::atomic<int> total{0};
    parallel::parallel_for(kOuter, [&](std::size_t) {
      parallel::parallel_for(kInner,
                             [&](std::size_t) { total.fetch_add(1); });
    });
    EXPECT_EQ(total.load(), static_cast<int>(kOuter * kInner));
  }
}

TEST(ParallelConfig, SetThreadsControlsLaneCount) {
  ThreadGuard guard(1);
  EXPECT_EQ(parallel::configured_threads(), 1);
  parallel::set_threads(6);
  EXPECT_EQ(parallel::configured_threads(), 6);
  parallel::set_threads(0);  // auto: at least one lane, whatever the host
  EXPECT_GE(parallel::configured_threads(), 1);
}

// -- determinism contract --------------------------------------------------

TunerConfig tiny_tuner() {
  TunerConfig c;
  c.samples = 4;
  c.vector_sizes = {8, 16};
  c.tensor_extents = {64};
  c.repeated_rates = {0.5, 1.0};
  c.num_vectors = 3;
  c.batch = 1;
  c.num_devices = 2;
  c.max_bound = 1;
  c.seeds_per_sample = 2;
  c.seed = 99;
  return c;
}

void expect_same_tuning(const TuningData& a, const TuningData& b) {
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i].best_bounds.values, b.samples[i].best_bounds.values);
    // Bit-exact, not approximately equal: the parallel sweep must merge the
    // very same measurements the serial sweep produced.
    EXPECT_EQ(a.samples[i].best_gflops, b.samples[i].best_gflops);
    EXPECT_EQ(a.samples[i].worst_gflops, b.samples[i].worst_gflops);
  }
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].bounds.values, b.records[i].bounds.values);
    EXPECT_EQ(a.records[i].gflops, b.records[i].gflops);
  }
}

TEST(ParallelDeterminism, TunerLabelsBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard(1);
  const TuningData serial = generate_tuning_data(tiny_tuner());
  parallel::set_threads(8);
  const TuningData wide = generate_tuning_data(tiny_tuner());
  const TuningData wide_again = generate_tuning_data(tiny_tuner());
  expect_same_tuning(serial, wide);        // threads=1 vs threads=8
  expect_same_tuning(wide, wide_again);    // two threads=8 runs
}

ml::Dataset forest_data(int n, std::uint64_t seed) {
  ml::Dataset d(3);
  Pcg32 rng(seed);
  for (int i = 0; i < n; ++i) {
    const double a = rng.uniform_real(0, 1);
    const double b = rng.uniform_real(0, 1);
    const double c = rng.uniform_real(0, 1);
    const double features[3] = {a, b, c};
    d.add(features, (a > 0.5 ? 2.0 : 0.0) + b * c);
  }
  return d;
}

TEST(ParallelDeterminism, ForestPredictionsBitIdenticalAcrossThreadCounts) {
  const ml::Dataset train = forest_data(160, 5);
  const ml::Dataset probe = forest_data(40, 6);
  ml::ForestConfig cfg;
  cfg.n_trees = 24;

  ThreadGuard guard(1);
  ml::RandomForest serial(cfg);
  serial.fit(train);
  const std::vector<double> want = serial.predict_all(probe);

  parallel::set_threads(8);
  for (int run = 0; run < 2; ++run) {
    ml::RandomForest wide(cfg);
    wide.fit(train);
    const std::vector<double> got = wide.predict_all(probe);
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(want[i], got[i]) << "probe " << i << " run " << run;
    }
  }
}

std::vector<double> trial_stats(std::int64_t trials) {
  // Each trial measures an independent stream (its own seed) — exactly the
  // repeated-measurement shape the bench harnesses fan out.
  return bench::run_trials(trials, [&](std::size_t t) {
    SyntheticConfig cfg;
    cfg.num_vectors = 2;
    cfg.vector_size = 8;
    cfg.tensor_extent = 64;
    cfg.batch = 1;
    cfg.seed = 100 + t;
    ClusterConfig cluster;
    cluster.num_devices = 2;
    return measure_gflops(generate_synthetic(cfg), ReuseBounds{1, 1, 1},
                          cluster);
  });
}

TEST(ParallelDeterminism, BenchTrialStatsBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard(1);
  const std::vector<double> serial = trial_stats(12);
  parallel::set_threads(8);
  const std::vector<double> wide = trial_stats(12);
  const std::vector<double> wide_again = trial_stats(12);
  EXPECT_EQ(serial, wide);
  EXPECT_EQ(wide, wide_again);
  EXPECT_EQ(stats::mean(serial), stats::mean(wide));
}

}  // namespace
}  // namespace micco
