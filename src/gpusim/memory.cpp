#include "gpusim/memory.hpp"

#include <algorithm>
#include <bit>

namespace micco {

namespace {

/// Smallest id table; the table doubles whenever it would pass half full.
constexpr std::size_t kMinBuckets = 16;

}  // namespace

DeviceMemory::DeviceMemory(std::uint64_t capacity_bytes)
    : capacity_(capacity_bytes) {
  MICCO_EXPECTS(capacity_bytes > 0);
}

std::size_t DeviceMemory::occupied_bucket(TensorId id,
                                          const char* violation) const {
  const std::size_t b = buckets_.empty() ? 0 : probe(id);
  MICCO_EXPECTS_MSG(!buckets_.empty() && buckets_[b].slot != kNoSlot,
                    violation);
  return b;
}

void DeviceMemory::allocate(TensorId id, std::uint64_t bytes, bool dirty,
                            double alloc_time_s) {
  if (2 * (count_ + 1) > buckets_.size()) grow_table();
  const std::size_t b = probe(id);
  MICCO_EXPECTS_MSG(buckets_[b].slot == kNoSlot,
                    "double allocation of a tensor");
  MICCO_EXPECTS_MSG(fits(bytes), "allocate() requires prior eviction");
  std::uint32_t slot = free_head_;
  if (slot != kNoSlot) {
    free_head_ = slots_[slot].next;
  } else {
    MICCO_ASSERT(slots_.size() < kNoSlot);
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Node& node = slots_[slot];
  node.id = id;
  node.bytes = bytes;
  node.dirty = dirty;
  node.pinned = false;
  node.alloc_time_s = alloc_time_s;
  link_back(slot);
  buckets_[b] = Bucket{id, slot};
  used_ += bytes;
  ++count_;
}

void DeviceMemory::release(TensorId id) {
  (void)remove_at(occupied_bucket(id, "release of a non-resident tensor"));
}

void DeviceMemory::touch(TensorId id) {
  const std::uint32_t slot =
      buckets_[occupied_bucket(id, "touch of a non-resident tensor")].slot;
  if (slot == tail_) return;
  unlink(slot);
  link_back(slot);
}

Eviction DeviceMemory::evict(TensorId id) {
  const std::size_t b =
      occupied_bucket(id, "eviction of a non-resident tensor");
  MICCO_EXPECTS_MSG(!slots_[buckets_[b].slot].pinned,
                    "eviction of a pinned tensor");
  return remove_at(b);
}

std::vector<TensorId> DeviceMemory::resident_ids() const {
  std::vector<TensorId> ids;
  ids.reserve(count_);
  for (const TensorId id : lru_order()) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

Eviction DeviceMemory::remove_at(std::size_t b) {
  const std::uint32_t slot = buckets_[b].slot;
  Node& node = slots_[slot];
  const Eviction ev{node.id, node.bytes, node.dirty, node.alloc_time_s};
  erase_bucket(b);
  unlink(slot);
  node.next = free_head_;
  free_head_ = slot;
  used_ -= ev.bytes;
  --count_;
  return ev;
}

void DeviceMemory::grow_table() {
  const std::size_t size =
      buckets_.empty() ? kMinBuckets : 2 * buckets_.size();
  std::vector<Bucket> old = std::exchange(buckets_, std::vector<Bucket>(size));
  hash_shift_ = 64 - std::countr_zero(size);
  for (const Bucket& bucket : old) {
    if (bucket.slot != kNoSlot) buckets_[probe(bucket.id)] = bucket;
  }
}

void DeviceMemory::erase_bucket(std::size_t hole) {
  // Backward-shift deletion: pull later members of the probe run into the
  // hole whenever the hole lies between their home bucket and where they
  // sit, so every lookup still finds its id before the first empty bucket.
  const std::size_t mask = buckets_.size() - 1;
  for (std::size_t next = (hole + 1) & mask; buckets_[next].slot != kNoSlot;
       next = (next + 1) & mask) {
    const std::size_t home = home_bucket(buckets_[next].id);
    if (((next - home) & mask) >= ((next - hole) & mask)) {
      buckets_[hole] = buckets_[next];
      hole = next;
    }
  }
  buckets_[hole].slot = kNoSlot;
}

void DeviceMemory::link_back(std::uint32_t slot) {
  Node& node = slots_[slot];
  node.prev = tail_;
  node.next = kNoSlot;
  if (tail_ != kNoSlot) {
    slots_[tail_].next = slot;
  } else {
    head_ = slot;
  }
  tail_ = slot;
}

void DeviceMemory::unlink(std::uint32_t slot) {
  const Node& node = slots_[slot];
  if (node.prev != kNoSlot) {
    slots_[node.prev].next = node.next;
  } else {
    head_ = node.next;
  }
  if (node.next != kNoSlot) {
    slots_[node.next].prev = node.prev;
  } else {
    tail_ = node.prev;
  }
}

}  // namespace micco
