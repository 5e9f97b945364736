#include "sched/reuse_pattern.hpp"

namespace micco {

const char* to_string(LocalReusePattern p) {
  switch (p) {
    case LocalReusePattern::kTwoRepeatedSame: return "TwoRepeatedSame";
    case LocalReusePattern::kTwoRepeatedDiff: return "TwoRepeatedDiff";
    case LocalReusePattern::kOneRepeated: return "OneRepeated";
    case LocalReusePattern::kTwoNew: return "TwoNew";
  }
  return "?";
}

namespace {

/// True when the two tensors share at least one holder device: one word
/// intersection for devices 0-63, membership probes for a's holders past
/// that (wide clusters only).
bool masks_overlap(const ClusterIndex::Residency& a,
                   const ClusterIndex::Residency& b) {
  if ((a.mask0 & b.mask0) != 0) return true;
  for (const DeviceId dev : a.holders) {
    if (dev >= 64 && b.holds(dev)) return true;
  }
  return false;
}

}  // namespace

LocalReusePattern classify_pair(const ContractionTask& task,
                                const ClusterIndex& index) {
  const ClusterIndex::Residency* res_a = index.find(task.a.id);
  const ClusterIndex::Residency* res_b = index.find(task.b.id);
  const bool a_empty = res_a == nullptr || res_a->holders.empty();
  const bool b_empty = res_b == nullptr || res_b->holders.empty();
  if (a_empty && b_empty) return LocalReusePattern::kTwoNew;
  if (a_empty || b_empty) return LocalReusePattern::kOneRepeated;
  return masks_overlap(*res_a, *res_b) ? LocalReusePattern::kTwoRepeatedSame
                                       : LocalReusePattern::kTwoRepeatedDiff;
}

const char* to_string(MappingClass m) {
  switch (m) {
    case MappingClass::kBothReused: return "BothReused";
    case MappingClass::kFirstReused: return "FirstReused";
    case MappingClass::kSecondReused: return "SecondReused";
    case MappingClass::kNoneReused: return "NoneReused";
  }
  return "?";
}

MappingClass classify_mapping(const ContractionTask& task, DeviceId dev,
                              const ClusterIndex& index) {
  const bool a_here = index.holds(dev, task.a.id);
  const bool b_here = index.holds(dev, task.b.id);
  if (a_here && b_here) return MappingClass::kBothReused;
  if (a_here) return MappingClass::kFirstReused;
  if (b_here) return MappingClass::kSecondReused;
  return MappingClass::kNoneReused;
}

}  // namespace micco
