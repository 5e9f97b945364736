// Pluggable eviction policies (memory co-design subsystem, DESIGN.md §11).
//
// The oversubscription experiments (Fig. 11) originally ran on a hard-coded
// per-device LRU inside DeviceMemory. The contraction graph, however, gives
// the runtime *exact* future-use information per vector: every pair a
// scheduler will feed to the cluster is known up front, so an eviction
// policy can rank victims by their true next-use distance (Belady) instead
// of by recency. This header defines the policy interface and its two
// implementations:
//
//   * LruPolicy            — exactly today's behavior (the default path in
//                            ClusterSimulator stays policy-free and
//                            byte-identical; attaching LruPolicy makes the
//                            same decisions through the policy interface).
//   * ReuseDistancePolicy  — evicts the unpinned resident whose next use is
//                            farthest in the vector's remaining pair
//                            sequence (never-used-again wins outright);
//                            ties break toward the least recently used.
//
// Determinism rules. pick_victim() is const and must read only the memory
// state plus the tracker state fed by run_stream — the oracle scheduler
// clones whole simulators per candidate assignment and the clones share one
// policy pointer, so a mutating pick_victim() would let probe executions
// corrupt the real run. All mutation happens through the two feed hooks
// (begin_vector / observe_use), which only the pipeline's real execution
// path calls; recovery re-executions pass position -1 and are no-ops.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "gpusim/memory.hpp"
#include "workload/task.hpp"

namespace micco::mem {

enum class EvictPolicyKind : std::uint8_t {
  kLru,
  kReuseDistance,
};

/// Metric-segment-safe policy name ("lru", "reuse_distance") — used
/// verbatim in mem.evictions.<policy> and in run reports, so it must never
/// contain a dot.
const char* to_string(EvictPolicyKind kind);

/// Accepts both hyphenated CLI spellings ("reuse-distance") and the
/// underscore metric spellings; nullopt for anything else.
std::optional<EvictPolicyKind> parse_evict_policy(const std::string& text);

/// Every kind, in declaration order (bench sweeps, CLI help).
std::vector<EvictPolicyKind> all_evict_policies();

/// Sentinel reuse distance for a victim with no known future use.
inline constexpr std::uint64_t kNoFutureUse =
    std::numeric_limits<std::uint64_t>::max();

/// A policy's verdict for one eviction: which tensor to spill and how far
/// away its next use is (kNoFutureUse when it has none), in units of pairs
/// remaining before the use. The distance feeds the mem.reuse_distance
/// histogram for future-use-aware policies.
struct VictimChoice {
  TensorId id = kInvalidTensor;
  std::uint64_t reuse_distance = kNoFutureUse;
};

/// Known future uses of every tensor in the current vector, in visit-order
/// positions. run_stream rebuilds it per vector (begin_vector) and retires
/// positions as pairs execute (observe_use); policies query next_use()
/// during victim selection.
class FutureUseTracker {
 public:
  /// Rebuilds the position lists for one vector. `order` is the visit order
  /// run_stream will feed pairs in (visit_order()'s result); position k is
  /// the k-th pair executed, i.e. vec.tasks[order[k]].
  void begin_vector(const VectorWorkload& vec,
                    const std::vector<std::size_t>& order);

  /// Retires exactly position `pos` of both operands (a recovery
  /// re-execution passes pos < 0 and is a no-op, so replays after a device
  /// loss never desynchronize the books). Also advances the cursor the
  /// distances are measured from.
  void observe_use(const ContractionTask& task, std::int64_t pos);

  /// Smallest remaining use position of `id`, or nullopt when the vector's
  /// remaining pairs never touch it again.
  std::optional<std::int64_t> next_use(TensorId id) const;

  /// Position distances are measured from: the position of the pair
  /// currently executing.
  std::int64_t cursor() const { return cursor_; }

 private:
  void erase_use(TensorId id, std::int64_t pos);

  // Per-tensor remaining use positions, each vector ascending (built by one
  // forward sweep, consumed front-first). Lookup only — iteration order of
  // the map itself never reaches any output.
  std::unordered_map<TensorId, std::vector<std::int64_t>> uses_;
  std::int64_t cursor_ = 0;
};

class EvictionPolicy {
 public:
  virtual ~EvictionPolicy() = default;

  virtual EvictPolicyKind kind() const = 0;
  const char* name() const { return to_string(kind()); }

  /// Selects the next victim among the unpinned residents of `memory`, or
  /// nullopt when everything resident is pinned (the caller escalates this
  /// exactly as the legacy evict_lru() nullopt). Const on purpose — see the
  /// determinism rules in the header comment.
  virtual std::optional<VictimChoice> pick_victim(
      const DeviceMemory& memory) const = 0;

  // -- feed hooks (no-ops for recency-only policies) -----------------------
  virtual void begin_vector(const VectorWorkload& vec,
                            const std::vector<std::size_t>& order);
  virtual void observe_use(const ContractionTask& task, std::int64_t pos);
};

/// The extracted legacy behavior: least recently used unpinned resident.
/// Decision-for-decision identical to DeviceMemory::evict_lru().
class LruPolicy final : public EvictionPolicy {
 public:
  EvictPolicyKind kind() const override { return EvictPolicyKind::kLru; }
  std::optional<VictimChoice> pick_victim(
      const DeviceMemory& memory) const override;
};

/// Belady selection: the unpinned resident with the farthest next use in
/// the vector's remaining pairs (never-used-again counts as infinitely
/// far); ties toward the least recently used.
class ReuseDistancePolicy final : public EvictionPolicy {
 public:
  EvictPolicyKind kind() const override {
    return EvictPolicyKind::kReuseDistance;
  }
  std::optional<VictimChoice> pick_victim(
      const DeviceMemory& memory) const override;
  void begin_vector(const VectorWorkload& vec,
                    const std::vector<std::size_t>& order) override;
  void observe_use(const ContractionTask& task, std::int64_t pos) override;

 private:
  FutureUseTracker tracker_;
};

std::unique_ptr<EvictionPolicy> make_policy(EvictPolicyKind kind);

}  // namespace micco::mem
