// Metrics registry: named counters, gauges and fixed-bucket histograms.
//
// The registry is the aggregate half of the observability layer (the event
// sink is the per-decision half). Instrumentation points resolve a metric
// once — counter()/gauge()/histogram() return references that stay valid for
// the registry's lifetime — and then update it with a single add/set/observe,
// so a hot loop never does a name lookup. Everything snapshots to JSON with
// deterministic (sorted-name) ordering for golden tests and run reports.
//
// Concurrency: resolved Counter/Gauge updates are relaxed atomics (the
// daemon's I/O lanes snapshot the registry live while the dispatcher
// writes), and each Histogram carries its own annotated mutex so concurrent
// observation keeps exact counts. Hot paths that cannot afford a lock per
// observation batch into an unsynchronised HistogramScratch and flush once
// per vector.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/lock_ranks.hpp"
#include "common/mutex.hpp"
#include "obs/json.hpp"

namespace micco::obs {

class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  /// MICCO_LOCK_FREE: monotone event count; relaxed is enough because no
  /// other state is published through it.
  std::atomic<std::uint64_t> value_ MICCO_LOCK_FREE{0};
};

class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  /// MICCO_LOCK_FREE: last-writer-wins sample; readers need no ordering.
  std::atomic<double> value_ MICCO_LOCK_FREE{0.0};
};

/// Fixed-bucket histogram: bucket i counts observations <= bounds[i]; one
/// implicit overflow bucket counts the rest. Bounds are set at creation and
/// immutable afterwards (re-requesting the histogram ignores the bounds
/// argument), so concurrent instrumentation points cannot disagree. All
/// mutation and reads go through the internal mutex — counts are exact even
/// under concurrent recording.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);
  /// Move is needed for registry storage; the source must be quiescent
  /// except for this move (registry creation happens under its lock).
  Histogram(Histogram&& other);

  void observe(double value);

  /// Adds pre-bucketed observations (HistogramScratch::flush_into).
  void absorb(const std::vector<std::uint64_t>& bucket_counts,
              std::uint64_t count, double sum);

  const std::vector<double>& upper_bounds() const { return bounds_; }
  /// Per-bucket counts; size is upper_bounds().size() + 1 (overflow last).
  std::vector<std::uint64_t> bucket_counts() const;
  std::uint64_t count() const;
  double sum() const;
  double mean() const;

  /// Quantile estimate by linear interpolation inside the owning bucket
  /// (Prometheus semantics): the first bucket interpolates from
  /// min(0, bounds[0]), the overflow bucket reports the largest finite
  /// bound. q is clamped to [0, 1]; an empty histogram reports 0.0. Exact
  /// recomputation from a snapshot of the same counts yields the same
  /// double.
  double quantile(double q) const;

  /// Interpolation core shared with offline recomputation (trace summary).
  static double quantile_from(const std::vector<double>& bounds,
                              const std::vector<std::uint64_t>& counts,
                              std::uint64_t total, double q);

 private:
  std::vector<double> bounds_;
  mutable Mutex mutex_{"Histogram::mutex_", kLockRankHistogram};
  std::vector<std::uint64_t> counts_ MICCO_GUARDED_BY(mutex_);
  std::uint64_t count_ MICCO_GUARDED_BY(mutex_) = 0;
  double sum_ MICCO_GUARDED_BY(mutex_) = 0.0;
};

/// Unsynchronised observation buffer with Histogram semantics, for hot
/// loops owned by one thread (the per-decision latency meter). Accumulate
/// with observe(), then flush_into() the shared locked Histogram once per
/// batch — one lock acquisition amortised over the whole vector.
class HistogramScratch {
 public:
  explicit HistogramScratch(std::vector<double> upper_bounds);

  /// Header-inline on purpose: this runs once per scheduler decision on the
  /// dispatcher's hot path, where an out-of-line call was a measurable
  /// share of the tracing-overhead budget (bench_overhead --gate).
  void observe(double value) {
    const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
    ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
    ++count_;
    sum_ += value;
  }
  /// Adds the buffered observations to `h` (bounds must match) and resets.
  void flush_into(Histogram& h);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

/// The registry's name→metric maps are mutex-protected so instrumentation
/// points may resolve metrics from parallel setup code (sweep lanes attach
/// telemetry concurrently). Updating a *resolved* metric is safe from any
/// thread: counters and gauges are relaxed atomics, histograms lock
/// internally, and the references stay valid for the registry's lifetime
/// (node-based map storage).
class MetricsRegistry {
 public:
  /// Finds or creates the named metric. References remain valid until the
  /// registry is destroyed (node-based map storage).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name,
                       std::vector<double> upper_bounds);

  /// Lookup without creation; nullptr when absent.
  const Counter* find_counter(const std::string& name) const;
  const Gauge* find_gauge(const std::string& name) const;
  const Histogram* find_histogram(const std::string& name) const;

  std::size_t size() const {
    const MutexLock lock(mutex_);
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  /// {"counters": {...}, "gauges": {...}, "histograms": {name:
  /// {"upper_bounds": [...], "counts": [...], "count": n, "sum": s}}} with
  /// names in sorted order.
  JsonValue snapshot() const;

  /// Live-exposition summary: counters and gauges as in snapshot(), each
  /// histogram reduced to {count, sum, mean, p50, p90, p99}.
  JsonValue quantile_summary() const;

 private:
  mutable Mutex mutex_{"MetricsRegistry::mutex_", kLockRankMetrics};
  std::map<std::string, Counter> counters_ MICCO_GUARDED_BY(mutex_);
  std::map<std::string, Gauge> gauges_ MICCO_GUARDED_BY(mutex_);
  std::map<std::string, Histogram> histograms_ MICCO_GUARDED_BY(mutex_);
};

}  // namespace micco::obs
