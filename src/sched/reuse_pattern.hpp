// Local reuse patterns (Section III-B.1, Fig. 4).
//
// Every incoming tensor pair is classified against current device residency
// into one of four patterns; together with the chosen device this fixes the
// memory-operation cost of the assignment (the seven canonical mappings).
//
// Each classification exists in two forms: the original recompute-from-view
// form, and an overload over the incremental ClusterIndex that answers the
// same question from bitmask intersections instead of holder-list scans.
// The two forms return identical results on identical state — the
// byte-identity tests hold the schedulers to that. PatternCache sits on top
// of the index form, memoizing classifications per (pair, residency epochs).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "gpusim/cluster.hpp"
#include "workload/task.hpp"

namespace micco {

enum class LocalReusePattern {
  kTwoRepeatedSame,  ///< both tensors resident on at least one common device
  kTwoRepeatedDiff,  ///< both resident, but on disjoint device sets
  kOneRepeated,      ///< exactly one tensor resident somewhere
  kTwoNew,           ///< neither tensor resident on any device
};

const char* to_string(LocalReusePattern p);

/// Classifies a pair against the cluster's residency state.
LocalReusePattern classify_pair(const ContractionTask& task,
                                const ClusterView& view);

/// Index form: emptiness from the holder lists, overlap from the bitmask
/// intersection. Identical result to the view form.
LocalReusePattern classify_pair(const ContractionTask& task,
                                const ClusterIndex& index);

/// Cost class of assigning `task` to `dev` — the collapse of Fig. 4's seven
/// mappings by their memory-operation cost: mapping (1) reuses both
/// operands, (2)/(3) reuse one, (4)-(7) reuse none.
enum class MappingClass {
  kBothReused = 1,    ///< mapping (1): no fetches
  kFirstReused = 2,   ///< mapping (2): fetch operand B only
  kSecondReused = 3,  ///< mapping (3): fetch operand A only
  kNoneReused = 4,    ///< mappings (4)-(7): fetch both operands
};

const char* to_string(MappingClass m);

MappingClass classify_mapping(const ContractionTask& task, DeviceId dev,
                              const ClusterView& view);
MappingClass classify_mapping(const ContractionTask& task, DeviceId dev,
                              const ClusterIndex& index);

/// Number of operand fetches (memory allocation + communication pairs) the
/// mapping incurs, i.e. the yellow-bar cost of Fig. 4.
int fetches_for(MappingClass m);

/// Bytes that must move onto `dev` to run `task` there (absent operands plus
/// the output allocation). The eviction-sensitive policy compares this
/// against the device's headroom; MICCO's incremental decision kernel
/// computes the same sum from the operands' residency records in hand.
std::uint64_t bytes_needed_on(const ContractionTask& task, DeviceId dev,
                              const ClusterView& view);

/// Memoized pair classification keyed on (tensor pair, residency epochs).
///
/// A cached entry is valid exactly while *both* tensors' residency epochs
/// are unchanged — any eviction, fetch, discard or device failure touching
/// either tensor bumps its epoch in the index, and the next classify() for
/// the pair recomputes (counted as a miss). Real correlator stages re-ask
/// about the same hot hadron nodes many times per epoch, which is the hit
/// rate this converts from repeated holder-list scans into one table probe.
///
/// The table never evicts within a run (pair universes are bounded by the
/// stream) and collisions on the mixed key are disambiguated by the stored
/// ids — a losing pair simply overwrites the slot, trading a recompute, not
/// correctness.
class PatternCache {
 public:
  LocalReusePattern classify(const ContractionTask& task,
                             const ClusterIndex& index);

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

  /// Optional registry counters mirrored on every classify (resolved by the
  /// owning scheduler at set_telemetry; nullptr detaches).
  void set_counters(obs::Counter* hits, obs::Counter* misses) {
    hits_counter_ = hits;
    misses_counter_ = misses;
  }

  void clear() {
    entries_.clear();
    hits_ = 0;
    misses_ = 0;
  }

 private:
  struct Entry {
    TensorId a = kInvalidTensor;
    TensorId b = kInvalidTensor;
    std::uint64_t epoch_a = 0;
    std::uint64_t epoch_b = 0;
    LocalReusePattern pattern = LocalReusePattern::kTwoNew;
  };

  std::unordered_map<std::uint64_t, Entry> entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  obs::Counter* hits_counter_ = nullptr;
  obs::Counter* misses_counter_ = nullptr;
};

}  // namespace micco
