#include "sched/micco_scheduler.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "obs/names.hpp"

namespace micco {

namespace {

/// splitmix64 finalizer: full-avalanche slot hash for sequential TensorIds.
std::uint64_t mix_id(TensorId id) {
  std::uint64_t x = id + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

constexpr std::size_t kInitialTableSlots = 64;  // power of two (mask probing)

/// True when the record exists and `dev` holds a replica.
bool held(const ClusterIndex::Residency* res, DeviceId dev) {
  return res != nullptr && res->holds(dev);
}

/// Alive devices in ascending id order.
template <typename Fn>
void for_each_alive(const ClusterSimulator& view, Fn fn) {
  for (DeviceId dev = 0; dev < view.num_devices(); ++dev) {
    if (view.device_alive(dev)) fn(dev);
  }
}

}  // namespace

void DistinctTensorCounts::reset(std::size_t num_devices) {
  tables_.resize(num_devices);
  for (Table& table : tables_) ++table.gen;
  live_.assign(num_devices, 0);
}

void DistinctTensorCounts::clear_device(DeviceId dev) {
  const auto idx = static_cast<std::size_t>(dev);
  if (idx >= tables_.size()) return;
  ++tables_[idx].gen;
  live_[idx] = 0;
}

void DistinctTensorCounts::grow(Table& table) {
  const std::vector<TensorId> old_keys = std::move(table.keys);
  const std::vector<std::uint64_t> old_gens = std::move(table.gens);
  table.keys.assign(old_keys.size() * 2, 0);
  table.gens.assign(old_gens.size() * 2, 0);
  const std::size_t mask = table.keys.size() - 1;
  for (std::size_t s = 0; s < old_keys.size(); ++s) {
    if (old_gens[s] != table.gen) continue;
    std::size_t slot = mix_id(old_keys[s]) & mask;
    while (table.gens[slot] == table.gen) slot = (slot + 1) & mask;
    table.keys[slot] = old_keys[s];
    table.gens[slot] = table.gen;
  }
}

bool DistinctTensorCounts::insert(DeviceId dev, TensorId id) {
  MICCO_EXPECTS(dev >= 0 && static_cast<std::size_t>(dev) < tables_.size());
  const auto idx = static_cast<std::size_t>(dev);
  Table& table = tables_[idx];
  if (table.keys.empty()) {
    table.keys.assign(kInitialTableSlots, 0);
    table.gens.assign(kInitialTableSlots, 0);
  }
  const std::size_t mask = table.keys.size() - 1;
  std::size_t slot = mix_id(id) & mask;
  while (table.gens[slot] == table.gen) {
    if (table.keys[slot] == id) return false;
    slot = (slot + 1) & mask;
  }
  table.keys[slot] = id;
  table.gens[slot] = table.gen;
  const std::int64_t live = ++live_[idx];
  // Grow at 3/4 load: the table must never fill completely (linear probing
  // needs a free slot to terminate misses).
  if (static_cast<std::size_t>(live) * 4 > table.keys.size() * 3) {
    grow(table);
  }
  return true;
}

void DistinctTensorCounts::erase(DeviceId dev, TensorId id) {
  MICCO_EXPECTS(dev >= 0 && static_cast<std::size_t>(dev) < tables_.size());
  const auto idx = static_cast<std::size_t>(dev);
  Table& table = tables_[idx];
  MICCO_EXPECTS(!table.keys.empty());
  const std::size_t mask = table.keys.size() - 1;
  std::size_t hole = mix_id(id) & mask;
  for (;; hole = (hole + 1) & mask) {
    MICCO_EXPECTS_MSG(table.gens[hole] == table.gen,
                      "erase of an uncounted tensor");
    if (table.keys[hole] == id) break;
  }
  // Pull each later key of the probe run into the hole whenever the hole
  // lies between its home slot and where it sits, so every lookup still
  // meets its key before the first free slot.
  for (std::size_t next = (hole + 1) & mask; table.gens[next] == table.gen;
       next = (next + 1) & mask) {
    const std::size_t home = mix_id(table.keys[next]) & mask;
    if (((next - home) & mask) >= ((next - hole) & mask)) {
      table.keys[hole] = table.keys[next];
      hole = next;
    }
  }
  table.gens[hole] = 0;
  --live_[idx];
}

std::int64_t DistinctTensorCounts::count(DeviceId dev) const {
  MICCO_EXPECTS(dev >= 0 && static_cast<std::size_t>(dev) < tables_.size());
  return live_[static_cast<std::size_t>(dev)];
}

MiccoScheduler::MiccoScheduler(MiccoSchedulerOptions options)
    : options_(options),
      bounds_(options.bounds),
      rng_(options.seed),
      recording_(options.record_bound_interval.has_value()) {}

std::string MiccoScheduler::name() const { return "MICCO"; }

void MiccoScheduler::set_telemetry(obs::Telemetry* telemetry) {
  Scheduler::set_telemetry(telemetry);
  slack_hist_ = telemetry == nullptr
                    ? nullptr
                    : &telemetry->registry.histogram(
                          obs::names::kSchedBoundSlack,
                          {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0});
}

void MiccoScheduler::begin_vector(const VectorWorkload& vec,
                                  const ClusterSimulator& view) {
  const auto num_devices = static_cast<std::size_t>(view.num_devices());
  counts_.reset(num_devices);
  rewind_.device = kNoDevice;
  // Decision scratch sized once per vector; assign() then runs without a
  // single heap allocation in steady state.
  candidates_.reserve(num_devices);
  best_.reserve(num_devices);
  // balanceNum is the per-device share of *distinct* tensors, matching what
  // mapGPUTensor.at(dev).size() counts. Real correlator stages share hadron
  // nodes across many pairs of one vector; dividing raw slot counts instead
  // would inflate the share and let the data-centric tier concentrate the
  // whole stage onto the few devices holding the hot nodes. The divisor is
  // the number of *surviving* devices: after a failure the share is split
  // over the devices that can still take work.
  unique_scratch_.reset(1);
  std::int64_t unique = 0;
  for (const ContractionTask& task : vec.tasks) {
    if (unique_scratch_.insert(0, task.a.id)) ++unique;
    if (unique_scratch_.insert(0, task.b.id)) ++unique;
  }
  vector_unique_inputs_ = unique;
  balance_num_ = std::max<std::int64_t>(
      1, vector_unique_inputs_ /
             std::max<std::int64_t>(1, view.num_alive_devices()));
}

void MiccoScheduler::on_device_failure(DeviceId dev,
                                       const ClusterSimulator& view) {
  // The casualty's per-vector accounting is void (its tensors are gone and
  // its pending pairs will be re-assigned); survivors split the stage.
  counts_.clear_device(dev);
  rewind_.device = kNoDevice;
  balance_num_ = std::max<std::int64_t>(
      1, vector_unique_inputs_ /
             std::max<std::int64_t>(1, view.num_alive_devices()));
}

void MiccoScheduler::set_reuse_bounds(ReuseBounds bounds) {
  // No single fixed triple reproduces a run whose bounds change mid-way.
  if (decided_ && bounds != bounds_) recording_ = false;
  bounds_ = bounds;
}

BoundInterval MiccoScheduler::bound_interval() const {
  MICCO_EXPECTS_MSG(options_.record_bound_interval.has_value(),
                    "bound_interval needs record_bound_interval");
  return recording_ ? interval_ : BoundInterval::point(bounds_);
}

void MiccoScheduler::rewind_last_assign() {
  MICCO_EXPECTS_MSG(rewind_.device != kNoDevice,
                    "rewind_last_assign needs a recording assign before it");
  rng_ = rewind_.rng;
  interval_ = rewind_.interval;
  recording_ = true;
  decided_ = rewind_.decided;
  while (rewind_.num_counted > 0) {
    counts_.erase(rewind_.device, rewind_.counted[--rewind_.num_counted]);
  }
  rewind_.device = kNoDevice;
}

void MiccoScheduler::rebind_bounds(ReuseBounds bounds) {
  MICCO_EXPECTS_MSG(recording_ && interval_.contains(bounds),
                    "rebind_bounds needs a recorded box holding the bounds");
  bounds_ = bounds;
}

std::int64_t MiccoScheduler::assigned_count(DeviceId dev) const {
  return counts_.count(dev);
}

template <typename KeyFn>
DeviceId MiccoScheduler::pick_best(const std::vector<DeviceId>& candidates,
                                   KeyFn keys) {
  // Exact ties on both keys break randomly (Alg. 2, lines 9/15).
  best_.clear();
  double best_primary = std::numeric_limits<double>::infinity();
  double best_secondary = std::numeric_limits<double>::infinity();
  for (const DeviceId dev : candidates) {
    const auto [primary, secondary] = keys(dev);
    if (primary < best_primary ||
        (primary == best_primary && secondary < best_secondary)) {
      best_primary = primary;
      best_secondary = secondary;
      best_.clear();
      best_.push_back(dev);
    } else if (primary == best_primary && secondary == best_secondary) {
      best_.push_back(dev);
    }
  }

  if (best_.size() == 1) return best_.front();
  return best_[rng_.uniform_below(static_cast<std::uint32_t>(best_.size()))];
}

DeviceId MiccoScheduler::decide(const ContractionTask& task,
                                const ClusterSimulator& view, int& tier,
                                bool& fallback) {
  // One contract check covers every count read below: the count table
  // spans the cluster's device ids.
  MICCO_EXPECTS(counts_.size() >=
                static_cast<std::size_t>(view.num_devices()));
  const std::int64_t* counts = counts_.data();
  const ClusterIndex& index = view.cluster_index();
  const auto at = [](DeviceId dev) { return static_cast<std::size_t>(dev); };

  // The pair's residency, looked up once for the whole decision.
  const ClusterIndex::Residency* res_a = index.find(task.a.id);
  const ClusterIndex::Residency* res_b = index.find(task.b.id);
  const bool a_resident = res_a != nullptr && !res_a->holders.empty();
  const bool b_resident = res_b != nullptr && !res_b->holders.empty();

  // Alg. 2's oversubscription test (lines 3-5) runs on each candidate as it
  // is admitted: would placing the pair there push it past capacity? The
  // bytes to move are the absent operands (a self-pair's operand counts
  // once) plus the output allocation, from sizes computed once; a
  // candidate's test is skipped once any earlier one found the risk.
  const bool sensitive = options_.eviction_sensitive;
  const bool same_operand = task.a.id == task.b.id;
  const std::uint64_t a_bytes = sensitive ? task.a.bytes() : 0;
  const std::uint64_t b_bytes = sensitive ? task.b.bytes() : 0;
  const std::uint64_t out_bytes = sensitive ? task.out.bytes() : 0;
  bool evict_risk = false;
  const auto admit = [&](DeviceId dev) {
    candidates_.push_back(dev);
    if (!sensitive || evict_risk) return;
    std::uint64_t needed = out_bytes;
    if (!held(res_a, dev)) needed += a_bytes;
    if (!same_operand && !held(res_b, dev)) needed += b_bytes;
    evict_risk = view.memory_used(dev) + needed > view.memory_capacity(dev);
  };

  // Step I — data-centric, TwoRepeatedSame tier: a's holders that also hold
  // b, gated by reuse bound 0 (Alg. 1, lines 4-7). Holder lists carry no
  // duplicates, so neither does the candidate queue.
  if (a_resident && b_resident) {
    const std::int64_t limit = bounds_[0] + balance_num_;
    for (const DeviceId dev : res_a->holders) {
      if (res_b->holds(dev) && counts[at(dev)] < limit) admit(dev);
    }
    if (!candidates_.empty()) tier = 0;
  }

  // Step II — one-reused tier: holders of either tensor in holders_a-then-
  // holders_b order, gated by reuse bound 1 (Alg. 1, lines 8-14). A b-holder
  // that also holds a was already judged as an a-holder against the same
  // limit (admitted, or rejected again), so it is skipped.
  if (tier < 0 && (a_resident || b_resident)) {
    const std::int64_t limit = bounds_[1] + balance_num_;
    if (a_resident) {
      for (const DeviceId dev : res_a->holders) {
        if (counts[at(dev)] < limit) admit(dev);
      }
    }
    if (b_resident) {
      for (const DeviceId dev : res_b->holders) {
        if (!held(res_a, dev) && counts[at(dev)] < limit) admit(dev);
      }
    }
    if (!candidates_.empty()) tier = 1;
  }

  // Step II' — TwoNew tier: any alive device under reuse bound 2 (lines
  // 15-18), ascending. Tiers I/II need no liveness filter: residency dies
  // with a device, so holder lists only ever name survivors.
  if (tier < 0) {
    const std::int64_t limit = bounds_[2] + balance_num_;
    for_each_alive(view, [&](DeviceId dev) {
      if (counts[at(dev)] < limit) admit(dev);
    });
    if (!candidates_.empty()) tier = 2;
  }

  // Fallback: every tier ran dry, so all survivors, ascending.
  if (tier < 0) {
    fallback = true;
    for_each_alive(view, admit);
  }
  MICCO_EXPECTS(!candidates_.empty());
  last_evict_risk_ = evict_risk;

  // Alg. 2's selection. The computation-centric policy keys on the
  // least-loaded device, then the most free memory; the memory-eviction-
  // sensitive policy swaps the two. Load is the device's accumulated
  // timeline (mapGPUCom): kernels plus the memory operations earlier
  // assignments induced — balancing on raw FLOPs alone would let
  // transfer-heavy devices fall behind and waste the stage barrier. Keys
  // are read from the simulator's devices inside the argmin.
  return pick_best(candidates_, [&](DeviceId dev) {
    const double load = view.busy_time(dev);
    const double used = static_cast<double>(view.memory_used(dev));
    return evict_risk ? std::pair{used, load} : std::pair{load, used};
  });
}

void MiccoScheduler::narrow_interval(const ContractionTask& task,
                                     const ClusterSimulator& view, int tier,
                                     bool fallback, DeviceId chosen) {
  // Replays decide()'s scans over the state it decided on (nothing has
  // executed since) and keeps only the triples that repeat the decision.
  // Device dev passes tier k's availability test exactly when bound_k >= t,
  // with threshold t = count - balanceNum + 1.
  decided_ = true;
  const std::int64_t* counts = counts_.data();
  const ClusterIndex& index = view.cluster_index();
  const auto at = [](DeviceId dev) { return static_cast<std::size_t>(dev); };
  const ClusterIndex::Residency* res_a = index.find(task.a.id);
  const ClusterIndex::Residency* res_b = index.find(task.b.id);
  const bool a_resident = res_a != nullptr && !res_a->holders.empty();
  const bool b_resident = res_b != nullptr && !res_b->holders.empty();

  // decide()'s scan set of each tier, in its admission order.
  const auto scan = [&](std::size_t k, const auto& fn) {
    if (k == 0) {
      for (const DeviceId dev : res_a->holders) {
        if (res_b->holds(dev)) fn(dev);
      }
    } else if (k == 1) {
      if (a_resident) {
        for (const DeviceId dev : res_a->holders) fn(dev);
      }
      if (b_resident) {
        for (const DeviceId dev : res_b->holders) {
          if (!held(res_a, dev)) fn(dev);
        }
      }
    } else {
      for_each_alive(view, fn);
    }
  };
  const auto threshold = [&](DeviceId dev) {
    return counts[at(dev)] - balance_num_ + 1;
  };
  const auto keep_out = [&](std::size_t k, DeviceId dev) {
    interval_.hi[k] = std::min(interval_.hi[k], threshold(dev) - 1);
  };
  const auto keep_in = [&](std::size_t k, std::int64_t t) {
    interval_.lo[k] = std::max(interval_.lo[k], t);
  };

  // Every tier walked before the admitting one (all three on fallback)
  // must stay empty: each device it rejected stays rejected.
  const std::size_t admitting = fallback ? 3 : static_cast<std::size_t>(tier);
  const bool walked[3] = {a_resident && b_resident, a_resident || b_resident,
                          true};
  for (std::size_t k = 0; k < admitting; ++k) {
    if (walked[k]) scan(k, [&](DeviceId dev) { keep_out(k, dev); });
  }

  // The admitting tier must admit the whole tie set and nothing that would
  // beat or join it, and keep the risk flag: at least one at-risk device
  // while the flag is up, none while it is down. Keys and the risk test are
  // decide()'s, on the same doubles and bytes.
  if (!fallback) {
    const auto k = static_cast<std::size_t>(tier);
    const std::int64_t limit = bounds_[k] + balance_num_;
    const bool sensitive = options_.eviction_sensitive;
    const bool evict_risk = last_evict_risk_;
    const bool same_operand = task.a.id == task.b.id;
    const auto at_risk = [&](DeviceId dev) {
      std::uint64_t needed = task.out.bytes();
      if (!held(res_a, dev)) needed += task.a.bytes();
      if (!same_operand && !held(res_b, dev)) needed += task.b.bytes();
      return view.memory_used(dev) + needed > view.memory_capacity(dev);
    };
    const auto key = [&](DeviceId dev) {
      const double load = view.busy_time(dev);
      const double used = static_cast<double>(view.memory_used(dev));
      return evict_risk ? std::pair{used, load} : std::pair{load, used};
    };
    const auto [best_primary, best_secondary] = key(chosen);
    std::int64_t risk_floor = BoundInterval::kMax;
    scan(k, [&](DeviceId dev) {
      const auto [primary, secondary] = key(dev);
      const bool contends =
          primary < best_primary ||
          (primary == best_primary && secondary <= best_secondary);
      const bool risky = sensitive && at_risk(dev);
      if (counts[at(dev)] < limit) {
        if (contends) keep_in(k, threshold(dev));  // a tie-set member
      } else if (contends || (risky && !evict_risk)) {
        keep_out(k, dev);
      }
      if (risky) risk_floor = std::min(risk_floor, threshold(dev));
    });
    if (evict_risk) keep_in(k, risk_floor);
  }
  MICCO_ASSERT(interval_.contains(bounds_));

  // The box only shrinks and always holds bounds_, so once its part inside
  // the region is bounds_ alone it stays so: no later decision can change
  // what the box says about a triple the caller asks about.
  if (interval_.intersect(*options_.record_bound_interval) ==
      BoundInterval::point(bounds_)) {
    recording_ = false;
  }
}

DeviceId MiccoScheduler::assign(const ContractionTask& task,
                                const ClusterSimulator& view) {
  MICCO_EXPECTS_MSG(counts_.size() > 0,
                    "begin_vector must run before assign");

  // A recording assign keeps what it is about to change, so the sweep can
  // rewind a copy of it (rewind_last_assign).
  const bool recording = recording_;
  if (recording) {
    rewind_.rng = rng_;
    rewind_.interval = interval_;
    rewind_.decided = decided_;
  }

  candidates_.clear();
  int tier = -1;        ///< reuse-bound tier that produced the candidates
  bool fallback = false;
  const DeviceId chosen = decide(task, view, tier, fallback);
  if (recording) narrow_interval(task, view, tier, fallback, chosen);

  if (telemetry_ != nullptr) {
    // Slack the winner had already consumed beyond its balanced share when
    // it won; how deep into the reuse bounds the schedule actually runs.
    slack_hist_->observe(
        static_cast<double>(assigned_count(chosen) - balance_num_));
    record_decision(task, view, candidates_, chosen, tier,
                    tier >= 0 ? bounds_[static_cast<std::size_t>(tier)] : -1,
                    balance_num_, fallback, last_evict_risk_);
  }

  // Step IV — update mapGPUTensor (Alg. 1, line 20). mapGPUCom is the
  // device's busy time, which the simulator accumulates itself.
  const bool counted_a = counts_.insert(chosen, task.a.id);
  const bool counted_b = counts_.insert(chosen, task.b.id);
  if (recording) {
    rewind_.device = chosen;
    rewind_.num_counted = 0;
    if (counted_a) rewind_.counted[rewind_.num_counted++] = task.a.id;
    if (counted_b) rewind_.counted[rewind_.num_counted++] = task.b.id;
  } else {
    rewind_.device = kNoDevice;
  }
  return chosen;
}

}  // namespace micco
