#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace micco::obs {
namespace {

TEST(ObsMetrics, CounterAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), 5u);
}

TEST(ObsMetrics, GaugeKeepsLastValue) {
  Gauge g;
  g.set(1.5);
  g.set(-2.0);
  EXPECT_DOUBLE_EQ(g.value(), -2.0);
}

TEST(ObsMetrics, HistogramBucketsByUpperBound) {
  Histogram h({1.0, 10.0, 100.0});
  h.observe(0.5);    // <= 1
  h.observe(1.0);    // <= 1 (bound is inclusive)
  h.observe(5.0);    // <= 10
  h.observe(1000.0); // overflow
  ASSERT_EQ(h.bucket_counts().size(), 4u);
  EXPECT_EQ(h.bucket_counts()[0], 2u);
  EXPECT_EQ(h.bucket_counts()[1], 1u);
  EXPECT_EQ(h.bucket_counts()[2], 0u);
  EXPECT_EQ(h.bucket_counts()[3], 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 1006.5);
  EXPECT_DOUBLE_EQ(h.mean(), 1006.5 / 4.0);
}

TEST(ObsMetrics, EmptyHistogramMeanIsZero) {
  Histogram h({1.0});
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.count(), 0u);
}

TEST(ObsMetrics, RegistryReturnsStableReferences) {
  MetricsRegistry reg;
  Counter& a = reg.counter("a");
  a.add(3);
  // Creating more metrics must not invalidate the first reference.
  for (int i = 0; i < 100; ++i) {
    std::string name = "c";
    name += std::to_string(i);
    reg.counter(name);
  }
  EXPECT_EQ(&reg.counter("a"), &a);
  EXPECT_EQ(reg.counter("a").value(), 3u);
}

TEST(ObsMetrics, HistogramBoundsFixedAtCreation) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("h", {1.0, 2.0});
  // Re-request with different bounds returns the original histogram.
  Histogram& again = reg.histogram("h", {99.0});
  EXPECT_EQ(&again, &h);
  EXPECT_EQ(again.upper_bounds(), (std::vector<double>{1.0, 2.0}));
}

TEST(ObsMetrics, FindDoesNotCreate) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.find_counter("nope"), nullptr);
  EXPECT_EQ(reg.find_gauge("nope"), nullptr);
  EXPECT_EQ(reg.find_histogram("nope"), nullptr);
  EXPECT_EQ(reg.size(), 0u);
  reg.counter("yes");
  EXPECT_NE(reg.find_counter("yes"), nullptr);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(ObsMetrics, SnapshotSortsNamesAndCarriesHistogramShape) {
  MetricsRegistry reg;
  reg.counter("z.count").add(2);
  reg.counter("a.count").add(1);
  reg.gauge("g").set(0.25);
  reg.histogram("h", {1.0, 2.0}).observe(1.5);

  const JsonValue snap = reg.snapshot();
  const JsonValue& counters = snap.at("counters");
  ASSERT_EQ(counters.members().size(), 2u);
  EXPECT_EQ(counters.members()[0].first, "a.count");  // sorted
  EXPECT_EQ(counters.members()[1].first, "z.count");
  EXPECT_DOUBLE_EQ(snap.at("gauges").at("g").as_double(), 0.25);

  const JsonValue& hist = snap.at("histograms").at("h");
  EXPECT_EQ(hist.at("upper_bounds").items().size(), 2u);
  EXPECT_EQ(hist.at("counts").items().size(), 3u);  // bounds + overflow
  EXPECT_EQ(hist.at("counts").items()[1].as_int(), 1);
  EXPECT_EQ(hist.at("count").as_int(), 1);
  EXPECT_DOUBLE_EQ(hist.at("sum").as_double(), 1.5);
}

// -- quantiles (Prometheus-style linear interpolation) ----------------------

TEST(ObsMetrics, QuantileOfEmptyHistogramIsZero) {
  Histogram h({1.0, 10.0});
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.0);
}

TEST(ObsMetrics, QuantileInterpolatesInsideTheOwningBucket) {
  Histogram h({10.0, 20.0});
  // Four observations in (10, 20]: the median sits at rank 2 of 4, i.e.
  // halfway through the second bucket.
  for (const double v : {12.0, 14.0, 16.0, 18.0}) h.observe(v);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 15.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 20.0);
}

TEST(ObsMetrics, QuantileFirstBucketInterpolatesFromZero) {
  Histogram h({10.0, 20.0});
  h.observe(3.0);
  h.observe(7.0);
  // Both in the first bucket; p50 = rank 1 of 2 → halfway from 0 to 10.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 5.0);
}

TEST(ObsMetrics, QuantileOverflowBucketReportsLargestFiniteBound) {
  Histogram h({10.0, 20.0});
  h.observe(999.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 20.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 20.0);
}

TEST(ObsMetrics, QuantileClampsQAndSkipsEmptyBuckets) {
  Histogram h({1.0, 10.0, 100.0});
  h.observe(50.0);  // only the third bucket is populated
  EXPECT_DOUBLE_EQ(h.quantile(-1.0), h.quantile(0.0));
  EXPECT_DOUBLE_EQ(h.quantile(2.0), h.quantile(1.0));
  // All mass in (10, 100]: every quantile lands there.
  EXPECT_GE(h.quantile(0.01), 10.0);
  EXPECT_LE(h.quantile(0.99), 100.0);
}

TEST(ObsMetrics, QuantileFromMatchesMemberQuantile) {
  Histogram h({1.0, 10.0, 100.0});
  for (const double v : {0.5, 2.0, 3.0, 42.0, 999.0}) h.observe(v);
  const std::vector<std::uint64_t> counts = h.bucket_counts();
  for (const double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(
        Histogram::quantile_from(h.upper_bounds(), counts, h.count(), q),
        h.quantile(q));
  }
}

// -- scratch ----------------------------------------------------------------

TEST(ObsMetrics, ScratchFlushMatchesDirectObservation) {
  const std::vector<double> bounds{1.0, 10.0};
  Histogram direct(bounds);
  Histogram via_scratch(bounds);
  HistogramScratch scratch(bounds);
  for (const double v : {0.2, 5.0, 100.0}) {
    direct.observe(v);
    scratch.observe(v);
  }
  EXPECT_EQ(scratch.count(), 3u);
  scratch.flush_into(via_scratch);
  EXPECT_EQ(via_scratch.bucket_counts(), direct.bucket_counts());
  EXPECT_DOUBLE_EQ(via_scratch.sum(), direct.sum());
  // Flush resets the scratch; a second flush is a no-op.
  EXPECT_EQ(scratch.count(), 0u);
  scratch.flush_into(via_scratch);
  EXPECT_EQ(via_scratch.count(), direct.count());
}

// -- exposition -------------------------------------------------------------

TEST(ObsMetrics, QuantileSummaryReducesHistograms) {
  MetricsRegistry reg;
  reg.counter("c").add(3);
  reg.gauge("g").set(0.5);
  Histogram& h = reg.histogram("h", {10.0, 20.0});
  for (const double v : {12.0, 14.0, 16.0, 18.0}) h.observe(v);

  const JsonValue summary = reg.quantile_summary();
  EXPECT_EQ(summary.at("counters").at("c").as_int(), 3);
  EXPECT_DOUBLE_EQ(summary.at("gauges").at("g").as_double(), 0.5);
  const JsonValue& entry = summary.at("histograms").at("h");
  EXPECT_EQ(entry.at("count").as_int(), 4);
  EXPECT_DOUBLE_EQ(entry.at("sum").as_double(), 60.0);
  EXPECT_DOUBLE_EQ(entry.at("mean").as_double(), 15.0);
  EXPECT_DOUBLE_EQ(entry.at("p50").as_double(), h.quantile(0.5));
  EXPECT_DOUBLE_EQ(entry.at("p90").as_double(), h.quantile(0.9));
  EXPECT_DOUBLE_EQ(entry.at("p99").as_double(), h.quantile(0.99));
}

// -- concurrency (suite name starts with "Parallel" so ci.sh runs it under
// TSan alongside the other threaded suites) --------------------------------

TEST(ParallelObsMetrics, ConcurrentHistogramRecordingKeepsExactCounts) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  MetricsRegistry reg;
  Histogram& h = reg.histogram("contended", {1.0, 10.0, 100.0});
  Counter& c = reg.counter("contended.count");

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, &c, t] {
      for (int i = 0; i < kPerThread; ++i) {
        // Deterministic per-thread values spanning all four buckets.
        h.observe(static_cast<double>((t * kPerThread + i) % 200));
        c.add();
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads * kPerThread));
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t n : h.bucket_counts()) bucket_total += n;
  EXPECT_EQ(bucket_total, h.count());
}

TEST(ParallelObsMetrics, ConcurrentScratchFlushesMergeExactly) {
  constexpr int kThreads = 6;
  constexpr int kPerThread = 2000;
  const std::vector<double> bounds{1.0, 10.0, 100.0};
  Histogram shared(bounds);

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&shared, &bounds, t] {
      HistogramScratch scratch(bounds);
      for (int i = 0; i < kPerThread; ++i) {
        scratch.observe(static_cast<double>((t + i) % 150));
        if (i % 500 == 499) scratch.flush_into(shared);
      }
      scratch.flush_into(shared);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(shared.count(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
}

}  // namespace
}  // namespace micco::obs
