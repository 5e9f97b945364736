#include "obs/metrics.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace micco::obs {

namespace {

std::size_t bucket_index(const std::vector<double>& bounds, double value) {
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), value);
  return static_cast<std::size_t>(it - bounds.begin());
}

void check_bounds(const std::vector<double>& bounds) {
  MICCO_EXPECTS_MSG(!bounds.empty(), "histogram needs at least one bucket");
  MICCO_EXPECTS_MSG(std::is_sorted(bounds.begin(), bounds.end()),
                    "histogram bounds must be ascending");
}

}  // namespace

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)),
      counts_(bounds_.size() + 1, 0) {
  check_bounds(bounds_);
}

Histogram::Histogram(Histogram&& other) : bounds_(std::move(other.bounds_)) {
  const MutexLock lock(other.mutex_);
  counts_ = std::move(other.counts_);
  count_ = other.count_;
  sum_ = other.sum_;
}

void Histogram::observe(double value) {
  const std::size_t idx = bucket_index(bounds_, value);
  const MutexLock lock(mutex_);
  ++counts_[idx];
  ++count_;
  sum_ += value;
}

void Histogram::absorb(const std::vector<std::uint64_t>& bucket_counts,
                       std::uint64_t count, double sum) {
  MICCO_EXPECTS_MSG(bucket_counts.size() == bounds_.size() + 1,
                    "histogram absorb: bucket shape mismatch");
  const MutexLock lock(mutex_);
  for (std::size_t i = 0; i < bucket_counts.size(); ++i) {
    counts_[i] += bucket_counts[i];
  }
  count_ += count;
  sum_ += sum;
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  const MutexLock lock(mutex_);
  return counts_;
}

std::uint64_t Histogram::count() const {
  const MutexLock lock(mutex_);
  return count_;
}

double Histogram::sum() const {
  const MutexLock lock(mutex_);
  return sum_;
}

double Histogram::mean() const {
  const MutexLock lock(mutex_);
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double Histogram::quantile(double q) const {
  const MutexLock lock(mutex_);
  return quantile_from(bounds_, counts_, count_, q);
}

double Histogram::quantile_from(const std::vector<double>& bounds,
                                const std::vector<std::uint64_t>& counts,
                                std::uint64_t total, double q) {
  if (total == 0 || bounds.empty()) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  const double rank = q * static_cast<double>(total);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    cum += counts[i];
    if (static_cast<double>(cum) < rank) continue;
    if (i >= bounds.size()) return bounds.back();  // overflow bucket
    const double lower = i == 0 ? std::min(0.0, bounds[0]) : bounds[i - 1];
    const double into =
        rank - static_cast<double>(cum - counts[i]);
    double fraction = into / static_cast<double>(counts[i]);
    fraction = std::min(1.0, std::max(0.0, fraction));
    return lower + fraction * (bounds[i] - lower);
  }
  return bounds.back();
}

HistogramScratch::HistogramScratch(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)),
      counts_(bounds_.size() + 1, 0) {
  check_bounds(bounds_);
}

void HistogramScratch::flush_into(Histogram& h) {
  MICCO_EXPECTS_MSG(h.upper_bounds() == bounds_,
                    "histogram flush: bucket bounds differ");
  if (count_ == 0) return;
  h.absorb(counts_, count_, sum_);
  std::fill(counts_.begin(), counts_.end(), 0);
  count_ = 0;
  sum_ = 0.0;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  const MutexLock lock(mutex_);
  return counters_[name];
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  const MutexLock lock(mutex_);
  return gauges_[name];
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> upper_bounds) {
  const MutexLock lock(mutex_);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_.emplace(name, Histogram(std::move(upper_bounds)))
      .first->second;
}

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
  const MutexLock lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Gauge* MetricsRegistry::find_gauge(const std::string& name) const {
  const MutexLock lock(mutex_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second;
}

const Histogram* MetricsRegistry::find_histogram(
    const std::string& name) const {
  const MutexLock lock(mutex_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

JsonValue MetricsRegistry::snapshot() const {
  const MutexLock lock(mutex_);
  JsonValue out = JsonValue::object();
  JsonValue& counters = out.set("counters", JsonValue::object());
  for (const auto& [name, c] : counters_) {
    counters.set(name, c.value());
  }
  JsonValue& gauges = out.set("gauges", JsonValue::object());
  for (const auto& [name, g] : gauges_) {
    gauges.set(name, g.value());
  }
  JsonValue& histograms = out.set("histograms", JsonValue::object());
  for (const auto& [name, h] : histograms_) {
    JsonValue entry = JsonValue::object();
    JsonValue bounds = JsonValue::array();
    for (const double b : h.upper_bounds()) bounds.push_back(b);
    entry.set("upper_bounds", std::move(bounds));
    JsonValue counts = JsonValue::array();
    for (const std::uint64_t c : h.bucket_counts()) counts.push_back(c);
    entry.set("counts", std::move(counts));
    entry.set("count", h.count());
    entry.set("sum", h.sum());
    histograms.set(name, std::move(entry));
  }
  return out;
}

JsonValue MetricsRegistry::quantile_summary() const {
  const MutexLock lock(mutex_);
  JsonValue out = JsonValue::object();
  JsonValue& counters = out.set("counters", JsonValue::object());
  for (const auto& [name, c] : counters_) {
    counters.set(name, c.value());
  }
  JsonValue& gauges = out.set("gauges", JsonValue::object());
  for (const auto& [name, g] : gauges_) {
    gauges.set(name, g.value());
  }
  JsonValue& histograms = out.set("histograms", JsonValue::object());
  for (const auto& [name, h] : histograms_) {
    // One consistent capture per histogram so count/sum/quantiles agree
    // even while another thread records.
    const std::vector<std::uint64_t> counts = h.bucket_counts();
    std::uint64_t total = 0;
    for (const std::uint64_t c : counts) total += c;
    JsonValue entry = JsonValue::object();
    entry.set("count", total);
    entry.set("sum", h.sum());
    entry.set("mean",
              total == 0 ? 0.0 : h.sum() / static_cast<double>(total));
    entry.set("p50",
              Histogram::quantile_from(h.upper_bounds(), counts, total, 0.5));
    entry.set("p90",
              Histogram::quantile_from(h.upper_bounds(), counts, total, 0.9));
    entry.set("p99",
              Histogram::quantile_from(h.upper_bounds(), counts, total, 0.99));
    histograms.set(name, std::move(entry));
  }
  return out;
}

}  // namespace micco::obs
