#include "workload/characteristics.hpp"

#include <array>
#include <cstddef>
#include <memory_resource>
#include <unordered_map>

namespace micco {

double multiplicity_skew(const VectorWorkload& vec) {
  // The count map's nodes and bucket arrays come from a stack arena (new and
  // delete only once a vector outgrows it) instead of one heap allocation
  // per distinct tensor. libstdc++ sizes and links the buckets the same way
  // whatever the allocator, so the iteration order below — and with it the
  // summation order of the HHI — matches a plain std::unordered_map.
  alignas(std::max_align_t) std::array<std::byte, 16 * 1024> arena;
  std::pmr::monotonic_buffer_resource pool(arena.data(), arena.size(),
                                           std::pmr::new_delete_resource());
  std::pmr::unordered_map<TensorId, std::int64_t> counts(&pool);
  std::int64_t slots = 0;
  for (const ContractionTask& t : vec.tasks) {
    ++counts[t.a.id];
    ++counts[t.b.id];
    slots += 2;
  }
  if (slots == 0 || counts.empty()) return 0.0;

  // Herfindahl-style concentration of slot occupancy, rescaled so that an
  // all-distinct vector scores 0 and a single-tensor vector scores 1.
  const double n = static_cast<double>(counts.size());
  double hhi = 0.0;
  for (const auto& [id, c] : counts) {
    (void)id;
    const double share = static_cast<double>(c) / static_cast<double>(slots);
    hhi += share * share;
  }
  const double uniform_floor = 1.0 / n;  // HHI when all multiplicities equal
  if (n <= 1.0) return 1.0;
  const double skew = (hhi - uniform_floor) / (1.0 - uniform_floor);
  return skew < 0.0 ? 0.0 : (skew > 1.0 ? 1.0 : skew);
}

DataCharacteristics extract_characteristics(const VectorWorkload& vec,
                                            const ResidencyOracle& residency) {
  DataCharacteristics c;
  c.vector_size = static_cast<double>(vec.tensor_count());
  if (!vec.tasks.empty()) {
    c.tensor_extent = static_cast<double>(vec.tasks.front().a.extent);
  }

  std::int64_t resident_slots = 0;
  for (const ContractionTask& t : vec.tasks) {
    if (residency.resident_anywhere(t.a.id)) ++resident_slots;
    if (residency.resident_anywhere(t.b.id)) ++resident_slots;
  }
  const std::int64_t slots = vec.tensor_count();
  c.repeated_rate =
      slots == 0 ? 0.0
                 : static_cast<double>(resident_slots) /
                       static_cast<double>(slots);

  c.distribution_bias = multiplicity_skew(vec);
  return c;
}

}  // namespace micco
