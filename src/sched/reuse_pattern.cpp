#include "sched/reuse_pattern.hpp"

#include <algorithm>

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

LocalReusePattern classify_pair(const ContractionTask& task,
                                const ClusterView& view) {
  const std::span<const DeviceId> holders_a = view.devices_holding(task.a.id);
  const std::span<const DeviceId> holders_b = view.devices_holding(task.b.id);

  if (holders_a.empty() && holders_b.empty()) {
    return LocalReusePattern::kTwoNew;
  }
  if (holders_a.empty() || holders_b.empty()) {
    return LocalReusePattern::kOneRepeated;
  }
  const bool overlap = std::any_of(
      holders_a.begin(), holders_a.end(), [&](DeviceId dev) {
        return std::find(holders_b.begin(), holders_b.end(), dev) !=
               holders_b.end();
      });
  return overlap ? LocalReusePattern::kTwoRepeatedSame
                 : LocalReusePattern::kTwoRepeatedDiff;
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

LocalReusePattern PatternCache::classify(const ContractionTask& task,
                                         const ClusterIndex& index) {
  const TensorId a = task.a.id;
  const TensorId b = task.b.id;
  const std::uint64_t epoch_a = index.tensor_epoch(a);
  const std::uint64_t epoch_b = index.tensor_epoch(b);
  // splitmix-style mix of the pair identity; asymmetric in (a, b) because
  // classification is order-sensitive only in naming, not result — but two
  // distinct pairs must land on distinct keys with high probability.
  std::uint64_t key = a * 0x9e3779b97f4a7c15ULL;
  key ^= (b + 0x517cc1b727220a95ULL) + (key << 6) + (key >> 2);
  Entry& entry = entries_[key];
  if (entry.a == a && entry.b == b && entry.epoch_a == epoch_a &&
      entry.epoch_b == epoch_b && entry.a != kInvalidTensor) {
    ++hits_;
    if (hits_counter_ != nullptr) hits_counter_->add();
    return entry.pattern;
  }
  ++misses_;
  if (misses_counter_ != nullptr) misses_counter_->add();
  entry.a = a;
  entry.b = b;
  entry.epoch_a = epoch_a;
  entry.epoch_b = epoch_b;
  entry.pattern = classify_pair(task, index);
  return entry.pattern;
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
                              const ClusterView& view) {
  const bool a_here = view.resident_on(dev, task.a.id);
  const bool b_here = view.resident_on(dev, task.b.id);
  if (a_here && b_here) return MappingClass::kBothReused;
  if (a_here) return MappingClass::kFirstReused;
  if (b_here) return MappingClass::kSecondReused;
  return MappingClass::kNoneReused;
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

int fetches_for(MappingClass m) {
  switch (m) {
    case MappingClass::kBothReused: return 0;
    case MappingClass::kFirstReused:
    case MappingClass::kSecondReused: return 1;
    case MappingClass::kNoneReused: return 2;
  }
  return 2;
}

std::uint64_t bytes_needed_on(const ContractionTask& task, DeviceId dev,
                              const ClusterView& view) {
  std::uint64_t bytes = task.out.bytes();
  if (!view.resident_on(dev, task.a.id)) bytes += task.a.bytes();
  const bool same_operand = task.a.id == task.b.id;
  if (!same_operand && !view.resident_on(dev, task.b.id)) {
    bytes += task.b.bytes();
  }
  return bytes;
}

}  // namespace micco
