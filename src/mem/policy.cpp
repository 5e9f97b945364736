#include "mem/policy.hpp"

#include <algorithm>

namespace micco::mem {

const char* to_string(EvictPolicyKind kind) {
  switch (kind) {
    case EvictPolicyKind::kLru: return "lru";
    case EvictPolicyKind::kReuseDistance: return "reuse_distance";
  }
  return "?";
}

std::optional<EvictPolicyKind> parse_evict_policy(const std::string& text) {
  std::string norm = text;
  std::replace(norm.begin(), norm.end(), '-', '_');
  if (norm == "lru") return EvictPolicyKind::kLru;
  if (norm == "reuse_distance") return EvictPolicyKind::kReuseDistance;
  return std::nullopt;
}

std::vector<EvictPolicyKind> all_evict_policies() {
  return {EvictPolicyKind::kLru, EvictPolicyKind::kReuseDistance};
}

void EvictionPolicy::begin_vector(const VectorWorkload&,
                                  const std::vector<std::size_t>&) {}

void EvictionPolicy::observe_use(const ContractionTask&, std::int64_t) {}

// -- FutureUseTracker --------------------------------------------------------

void FutureUseTracker::begin_vector(const VectorWorkload& vec,
                                    const std::vector<std::size_t>& order) {
  uses_.clear();
  cursor_ = 0;
  for (std::size_t seq = 0; seq < order.size(); ++seq) {
    const ContractionTask& task = vec.tasks[order[seq]];
    const auto pos = static_cast<std::int64_t>(seq);
    uses_[task.a.id].push_back(pos);
    if (task.b.id != task.a.id) uses_[task.b.id].push_back(pos);
  }
}

void FutureUseTracker::observe_use(const ContractionTask& task,
                                   std::int64_t pos) {
  if (pos < 0) return;  // recovery re-execution: its positions are history
  cursor_ = pos;
  erase_use(task.a.id, pos);
  if (task.b.id != task.a.id) erase_use(task.b.id, pos);
}

void FutureUseTracker::erase_use(TensorId id, std::int64_t pos) {
  const auto it = uses_.find(id);
  if (it == uses_.end()) return;
  std::vector<std::int64_t>& positions = it->second;
  // Exact-position removal: a position either exists once or was already
  // retired (re-observation after recovery), never "the next one in line".
  const auto where =
      std::lower_bound(positions.begin(), positions.end(), pos);
  if (where != positions.end() && *where == pos) positions.erase(where);
}

std::optional<std::int64_t> FutureUseTracker::next_use(TensorId id) const {
  const auto it = uses_.find(id);
  if (it == uses_.end() || it->second.empty()) return std::nullopt;
  return it->second.front();
}

// -- LruPolicy ---------------------------------------------------------------

std::optional<VictimChoice> LruPolicy::pick_victim(
    const DeviceMemory& memory) const {
  for (const TensorId id : memory.lru_order()) {
    if (memory.pinned(id)) continue;
    return VictimChoice{id, kNoFutureUse};
  }
  return std::nullopt;
}

// -- ReuseDistancePolicy -----------------------------------------------------

void ReuseDistancePolicy::begin_vector(const VectorWorkload& vec,
                                       const std::vector<std::size_t>& order) {
  tracker_.begin_vector(vec, order);
}

void ReuseDistancePolicy::observe_use(const ContractionTask& task,
                                      std::int64_t pos) {
  tracker_.observe_use(task, pos);
}

std::optional<VictimChoice> ReuseDistancePolicy::pick_victim(
    const DeviceMemory& memory) const {
  // Never-used-again tensors carry the uint64 max sentinel, so a plain
  // strictly-greater scan makes them win outright; strict comparison keeps
  // ties on the least recently used candidate (encountered first in LRU
  // order), which is also what pins the selection deterministically.
  std::optional<TensorId> best;
  std::uint64_t best_key = 0;
  for (const TensorId id : memory.lru_order()) {
    if (memory.pinned(id)) continue;
    const std::optional<std::int64_t> next = tracker_.next_use(id);
    const std::uint64_t key =
        next.has_value() ? static_cast<std::uint64_t>(*next) : kNoFutureUse;
    if (!best.has_value() || key > best_key) {
      best = id;
      best_key = key;
    }
  }
  if (!best.has_value()) return std::nullopt;
  std::uint64_t distance = kNoFutureUse;
  if (best_key != kNoFutureUse) {
    const auto cursor = static_cast<std::uint64_t>(
        tracker_.cursor() < 0 ? 0 : tracker_.cursor());
    distance = best_key > cursor ? best_key - cursor : 0;
  }
  return VictimChoice{*best, distance};
}

std::unique_ptr<EvictionPolicy> make_policy(EvictPolicyKind kind) {
  switch (kind) {
    case EvictPolicyKind::kLru: return std::make_unique<LruPolicy>();
    case EvictPolicyKind::kReuseDistance:
      return std::make_unique<ReuseDistancePolicy>();
  }
  return nullptr;
}

}  // namespace micco::mem
