// Local reuse patterns (Section III-B.1, Fig. 4).
//
// Every incoming tensor pair is classified against current device residency
// into one of four patterns; together with the chosen device this fixes the
// memory-operation cost of the assignment (the seven canonical mappings).
// Classification reads the cluster's delta-maintained ClusterIndex:
// emptiness from the holder lists, overlap from the bitmask intersection.
#pragma once

#include "gpusim/cluster_index.hpp"
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
                              const ClusterIndex& index);

}  // namespace micco
