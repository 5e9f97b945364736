#include "sched/micco_scheduler.hpp"

#include <algorithm>
#include <bit>
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

/// Alive devices in ascending id order via the alive-mask word scan (bit
/// position == device id, so set-bit order is ascending) — the reference
/// path's `for (dev = 0; ...)` enumeration.
template <typename Fn>
void for_each_alive(const std::vector<std::uint64_t>& alive, Fn fn) {
  for (std::size_t w = 0; w < alive.size(); ++w) {
    std::uint64_t bits = alive[w];
    while (bits != 0) {
      fn(static_cast<DeviceId>(
          w * 64 + static_cast<std::size_t>(std::countr_zero(bits))));
      bits &= bits - 1;
    }
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

std::int64_t DistinctTensorCounts::count(DeviceId dev) const {
  MICCO_EXPECTS(dev >= 0 && static_cast<std::size_t>(dev) < tables_.size());
  return live_[static_cast<std::size_t>(dev)];
}

MiccoScheduler::MiccoScheduler(MiccoSchedulerOptions options)
    : options_(options), bounds_(options.bounds), rng_(options.seed) {}

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
                                  const ClusterView& view) {
  const auto num_devices = static_cast<std::size_t>(view.num_devices());
  counts_.reset(num_devices);
  // Decision scratch sized once per vector; assign() then runs without a
  // single heap allocation in steady state.
  candidate_mask_.assign((num_devices + 63) / 64, 0);
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

void MiccoScheduler::on_device_failure(DeviceId dev, const ClusterView& view) {
  // The casualty's per-vector accounting is void (its tensors are gone and
  // its pending pairs will be re-assigned); survivors split the stage.
  counts_.clear_device(dev);
  balance_num_ = std::max<std::int64_t>(
      1, vector_unique_inputs_ /
             std::max<std::int64_t>(1, view.num_alive_devices()));
}

std::int64_t MiccoScheduler::assigned_count(DeviceId dev) const {
  return counts_.count(dev);
}

bool MiccoScheduler::available(DeviceId dev, std::size_t bound_index) const {
  return assigned_count(dev) < bounds_[bound_index] + balance_num_;
}

void MiccoScheduler::push_unique(DeviceId dev) {
  const auto idx = static_cast<std::size_t>(dev);
  std::uint64_t& word = candidate_mask_[idx / 64];
  const std::uint64_t bit = 1ULL << (idx % 64);
  if ((word & bit) == 0) {
    word |= bit;
    candidates_.push_back(dev);
  }
}

template <typename KeyFn>
DeviceId MiccoScheduler::pick_best(const std::vector<DeviceId>& candidates,
                                   KeyFn keys) {
  // Exact ties on both keys break randomly (Alg. 2, lines 9/15).
  best_.clear();
  double best_primary = std::numeric_limits<double>::infinity();
  double best_secondary = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const auto [primary, secondary] = keys(i, candidates[i]);
    if (primary < best_primary ||
        (primary == best_primary && secondary < best_secondary)) {
      best_primary = primary;
      best_secondary = secondary;
      best_.clear();
      best_.push_back(candidates[i]);
    } else if (primary == best_primary && secondary == best_secondary) {
      best_.push_back(candidates[i]);
    }
  }

  if (best_.size() == 1) return best_.front();
  return best_[rng_.uniform_below(static_cast<std::uint32_t>(best_.size()))];
}

void MiccoScheduler::gather_candidates(const ContractionTask& task,
                                       const ClusterView& view, int& tier,
                                       bool& fallback) {
  const std::span<const DeviceId> holders_a = view.devices_holding(task.a.id);
  const std::span<const DeviceId> holders_b = view.devices_holding(task.b.id);

  // Step I — data-centric, TwoRepeatedSame tier: devices holding BOTH
  // tensors, gated by reuse bound 0 (Alg. 1, lines 4-7).
  for (const DeviceId dev : holders_a) {
    const bool holds_both =
        std::find(holders_b.begin(), holders_b.end(), dev) != holders_b.end();
    if (holds_both && available(dev, 0)) push_unique(dev);
  }
  if (!candidates_.empty()) {
    tier = 0;
    return;
  }

  // Step II — one-reused tier: devices holding either tensor, gated by
  // reuse bound 1 (Alg. 1, lines 8-14). Entered both for the
  // TwoRepeatedDiff / OneRepeated patterns and when every TwoRepeatedSame
  // device failed its availability test.
  if (!holders_a.empty() || !holders_b.empty()) {
    for (const DeviceId dev : holders_a) {
      if (available(dev, 1)) push_unique(dev);
    }
    for (const DeviceId dev : holders_b) {
      if (available(dev, 1)) push_unique(dev);
    }
    if (!candidates_.empty()) {
      tier = 1;
      return;
    }
  }

  // Step II' — TwoNew tier: any alive device under reuse bound 2 (lines
  // 15-18). Tiers I/II need no filter: residency dies with a device, so
  // holder lists only ever name survivors.
  for (DeviceId dev = 0; dev < view.num_devices(); ++dev) {
    if (view.device_alive(dev) && available(dev, 2)) {
      push_unique(dev);
    }
  }
  if (!candidates_.empty()) {
    tier = 2;
    return;
  }

  // Fallback the pseudocode leaves implicit: when every device exceeds even
  // the TwoNew bound (possible late in a vector with small bounds and an
  // uneven tensor count), consider all survivors so the pair is still placed.
  fallback = true;
  for (DeviceId dev = 0; dev < view.num_devices(); ++dev) {
    if (view.device_alive(dev)) candidates_.push_back(dev);
  }
}

DeviceId MiccoScheduler::decide(const ContractionTask& task,
                                const ClusterIndex& index, int& tier,
                                bool& fallback) {
  // One contract check covers every flat per-device read below: the count
  // table and the index mirrors span the same device ids.
  MICCO_EXPECTS(counts_.size() >=
                static_cast<std::size_t>(index.num_devices()));
  const std::int64_t* counts = counts_.data();
  const std::uint64_t* mem_used = index.memory_used_data();
  const std::uint64_t* mem_capacity = index.memory_capacity_data();
  const auto at = [](DeviceId dev) { return static_cast<std::size_t>(dev); };

  // The pair's residency, looked up once for the whole decision.
  const ClusterIndex::Residency* res_a = index.find(task.a.id);
  const ClusterIndex::Residency* res_b = index.find(task.b.id);
  const bool a_resident = res_a != nullptr && !res_a->holders.empty();
  const bool b_resident = res_b != nullptr && !res_b->holders.empty();

  // Alg. 2's oversubscription test (lines 3-5) runs on each candidate as it
  // is admitted: would placing the pair there push it past capacity? The
  // bytes are bytes_needed_on's, from operand sizes computed once, and a
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
    evict_risk = mem_used[at(dev)] + needed > mem_capacity[at(dev)];
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
    for_each_alive(index.alive_mask(), [&](DeviceId dev) {
      if (counts[at(dev)] < limit) admit(dev);
    });
    if (!candidates_.empty()) tier = 2;
  }

  // Fallback: every tier ran dry, so all survivors, ascending.
  if (tier < 0) {
    fallback = true;
    for_each_alive(index.alive_mask(), admit);
  }
  MICCO_EXPECTS(!candidates_.empty());
  last_evict_risk_ = evict_risk;

  // Alg. 2's selection, keys gathered straight from the flat device mirrors
  // inside the argmin — the same doubles the reference path reads through
  // virtual calls, so comparisons (and tie sets) agree bit-for-bit.
  const double* busy = index.busy_data();
  return pick_best(candidates_, [&](std::size_t, DeviceId dev) {
    const double load = busy[at(dev)];
    const double used = static_cast<double>(mem_used[at(dev)]);
    return evict_risk ? std::pair{used, load} : std::pair{load, used};
  });
}

DeviceId MiccoScheduler::assign(const ContractionTask& task,
                                const ClusterView& view) {
  MICCO_EXPECTS_MSG(counts_.size() > 0,
                    "begin_vector must run before assign");
  const ClusterIndex* index =
      sched_incremental() ? view.cluster_index() : nullptr;

  candidates_.clear();
  int tier = -1;        ///< reuse-bound tier that produced the candidates
  bool fallback = false;
  DeviceId chosen = kNoDevice;
  if (index != nullptr) {
    chosen = decide(task, *index, tier, fallback);
  } else {
    std::fill(candidate_mask_.begin(), candidate_mask_.end(), 0);
    gather_candidates(task, view, tier, fallback);
    chosen = select_from_candidates(candidates_, task, view);
  }

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
  counts_.insert(chosen, task.a.id);
  counts_.insert(chosen, task.b.id);
  return chosen;
}

DeviceId MiccoScheduler::select_from_candidates(
    const std::vector<DeviceId>& candidates, const ContractionTask& task,
    const ClusterView& view) {
  MICCO_EXPECTS(!candidates.empty());

  // Step III — detect oversubscription among the candidates (Alg. 2,
  // lines 3-5): would placing this pair push any candidate past capacity?
  bool evict_risk = false;
  if (options_.eviction_sensitive) {
    for (const DeviceId dev : candidates) {
      const std::uint64_t needed = bytes_needed_on(task, dev, view);
      if (view.memory_used(dev) + needed > view.memory_capacity(dev)) {
        evict_risk = true;
        break;
      }
    }
  }
  last_evict_risk_ = evict_risk;

  // Primary/secondary keys swap between the computation-centric policy
  // (least-loaded device, then most free memory) and the memory-eviction-
  // sensitive policy (most free memory, then least-loaded). Load is the
  // device's accumulated timeline (mapGPUCom): kernels plus the memory
  // operations earlier assignments induced — balancing on raw FLOPs alone
  // would let transfer-heavy devices fall behind and waste the stage
  // barrier.
  const std::size_t n = candidates.size();
  cand_primary_.resize(n);
  cand_secondary_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double busy = view.busy_time(candidates[i]);
    const double used = static_cast<double>(view.memory_used(candidates[i]));
    cand_primary_[i] = evict_risk ? used : busy;
    cand_secondary_[i] = evict_risk ? busy : used;
  }
  return pick_best(candidates, [&](std::size_t i, DeviceId) {
    return std::pair{cand_primary_[i], cand_secondary_[i]};
  });
}

}  // namespace micco
