#include "gpusim/memory.hpp"

namespace micco {

DeviceMemory::DeviceMemory(std::uint64_t capacity_bytes)
    : capacity_(capacity_bytes) {
  MICCO_EXPECTS(capacity_bytes > 0);
}

DeviceMemory::Slot DeviceMemory::allocate(TensorId id, std::uint64_t bytes,
                                          bool dirty, double alloc_time_s) {
  MICCO_EXPECTS(id != kInvalidTensor);
  MICCO_EXPECTS_MSG(fits(bytes), "allocate() requires prior eviction");
  Slot slot = free_head_;
  if (slot != kNoSlot) {
    free_head_ = slots_[slot].next;
  } else {
    MICCO_ASSERT(slots_.size() < kNoSlot);
    slot = static_cast<Slot>(slots_.size());
    slots_.emplace_back();
  }
  Resident& node = slots_[slot];
  node.id = id;
  node.bytes = bytes;
  node.dirty = dirty;
  node.pinned = false;
  node.alloc_time_s = alloc_time_s;
  link_back(slot);
  used_ += bytes;
  ++count_;
  return slot;
}

void DeviceMemory::touch(Slot slot) {
  (void)at(slot);  // aborts on a free slot
  if (slot == tail_) return;
  unlink(slot);
  link_back(slot);
}

Eviction DeviceMemory::evict(Slot slot) {
  MICCO_EXPECTS_MSG(!at(slot).pinned, "eviction of a pinned tensor");
  return remove(slot);
}

Eviction DeviceMemory::remove(Slot slot) {
  Resident& node = this->node(slot);
  const Eviction ev{node.id, node.bytes, node.dirty, node.alloc_time_s};
  unlink(slot);
  node.id = kInvalidTensor;
  node.next = free_head_;
  free_head_ = slot;
  used_ -= ev.bytes;
  --count_;
  return ev;
}

void DeviceMemory::link_back(Slot slot) {
  Resident& node = slots_[slot];
  node.prev = tail_;
  node.next = kNoSlot;
  if (tail_ != kNoSlot) {
    slots_[tail_].next = slot;
  } else {
    head_ = slot;
  }
  tail_ = slot;
}

void DeviceMemory::unlink(Slot slot) {
  const Resident& node = slots_[slot];
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
