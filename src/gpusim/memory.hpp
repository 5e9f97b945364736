// Per-device memory manager.
//
// Tracks the tensors resident in one simulated device memory, with capacity
// accounting, pinning (current kernel operands must not be evicted from
// under the kernel) and the recency order the eviction policies (src/mem/)
// pick victims from in the oversubscription experiments (Fig. 11). Dirty
// tensors (kernel outputs not yet on the host) must be written back on
// eviction; clean cached inputs can be dropped.
//
// Storage is flat and allocation-free in steady state: residents live in a
// slab of nodes (freed slots are recycled through a free list) and the
// recency order is an intrusive doubly linked list over slot indices. A
// resident is addressed by the slot allocate() returned; which tensor lives
// in which slot is recorded once, in the cluster's ClusterIndex (each
// holder entry carries its replica's slot), not here. Every member is a
// vector or a scalar and slot indices are position-independent, so the
// defaulted copies are deep and exact — the oracle search clones whole
// simulators per candidate assignment — and a copy assignment reuses the
// slab's capacity.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include "common/assert.hpp"
#include "workload/task.hpp"

namespace micco {

/// Outcome of one eviction: what was removed and whether write-back applies.
struct Eviction {
  TensorId id = kInvalidTensor;
  std::uint64_t bytes = 0;
  bool dirty = false;
  /// Simulated time the tensor was allocated (its age feeds the
  /// victim-age histogram).
  double alloc_time_s = 0.0;
};

class DeviceMemory {
 public:
  /// Index of a resident's node in the slab; stable while it stays
  /// resident, recycled after it leaves.
  using Slot = std::uint32_t;
  static constexpr Slot kNoSlot = ~Slot{0};

  /// One resident tensor, read through at(). A free slot keeps
  /// kInvalidTensor as its id and reuses `next` as its free-list link.
  class Resident {
   public:
    TensorId id = kInvalidTensor;
    std::uint64_t bytes = 0;
    bool dirty = false;   ///< a kernel output not yet written back
    bool pinned = false;  ///< an operand of the in-flight kernel
    double alloc_time_s = 0.0;

   private:
    friend class DeviceMemory;
    Slot prev = kNoSlot;  ///< towards the least recently used end
    Slot next = kNoSlot;  ///< towards the most recently used end
  };

  /// Forward range over the residents' slots, least recently used first.
  class LruRange {
   public:
    class iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = Slot;
      using difference_type = std::ptrdiff_t;
      using pointer = void;
      using reference = Slot;

      iterator() = default;
      Slot operator*() const { return slot_; }
      iterator& operator++() {
        slot_ = nodes_[slot_].next;
        return *this;
      }
      iterator operator++(int) {
        const iterator old = *this;
        ++*this;
        return old;
      }
      bool operator==(const iterator& other) const {
        return slot_ == other.slot_;
      }

     private:
      friend class LruRange;
      iterator(const Resident* nodes, Slot slot) : nodes_(nodes), slot_(slot) {}
      const Resident* nodes_ = nullptr;
      Slot slot_ = kNoSlot;
    };

    iterator begin() const { return iterator(nodes_, head_); }
    iterator end() const { return iterator(nodes_, kNoSlot); }

   private:
    friend class DeviceMemory;
    LruRange(const Resident* nodes, Slot head) : nodes_(nodes), head_(head) {}
    const Resident* nodes_;
    Slot head_;
  };

  explicit DeviceMemory(std::uint64_t capacity_bytes);

  std::uint64_t capacity() const { return capacity_; }
  std::uint64_t used() const { return used_; }
  /// Zero while the device is over-committed (a capacity fault can shrink
  /// capacity below the current usage until evictions catch up).
  std::uint64_t free_bytes() const {
    return capacity_ > used_ ? capacity_ - used_ : 0;
  }

  /// Resizes usable capacity in either direction. Shrinking (spurious
  /// capacity-loss faults) may leave usage transiently above the new
  /// capacity; the owner must evict until fits() holds again before
  /// allocating. Growing (a healed fault restoring memory) is always legal,
  /// even with live residents from the shrunken era — residency, LRU order
  /// and pins are untouched, the extra bytes simply become allocatable.
  void set_capacity(std::uint64_t capacity_bytes) {
    MICCO_EXPECTS(capacity_bytes > 0);
    capacity_ = capacity_bytes;
  }

  std::size_t resident_count() const { return count_; }

  /// True when `bytes` more can be allocated without eviction.
  bool fits(std::uint64_t bytes) const { return used_ + bytes <= capacity_; }

  /// Allocates a tensor (must fit; the caller's index guarantees it is not
  /// already resident) at simulated time `alloc_time_s`, which its Eviction
  /// reports back, and returns its slot. Newly allocated tensors are the
  /// most recently used.
  Slot allocate(TensorId id, std::uint64_t bytes, bool dirty,
                double alloc_time_s = 0.0);

  /// The resident in `slot`; aborts when the slot holds none.
  const Resident& at(Slot slot) const {
    MICCO_EXPECTS_MSG(slot < slots_.size() && slots_[slot].id != kInvalidTensor,
                      "access to a non-resident slot");
    return slots_[slot];
  }

  /// Releases a resident tensor.
  void release(Slot slot) { (void)remove(slot); }

  /// Marks a resident tensor as most recently used (a kernel touched it).
  void touch(Slot slot);

  /// Pins/unpins a tensor against eviction for the duration of a kernel.
  void pin(Slot slot) { node(slot).pinned = true; }
  void unpin(Slot slot) { node(slot).pinned = false; }

  /// Evicts a specific resident tensor — the victim an eviction policy
  /// (src/mem/) selected. The tensor must be unpinned.
  Eviction evict(Slot slot);

  /// Residents in recency order, least recently used first — what the
  /// eviction policies (src/mem/) walk. The range stays valid until the
  /// next mutation; policies read it within one pick_victim() call.
  LruRange lru_order() const { return LruRange(slots_.data(), head_); }

 private:
  Resident& node(Slot slot) { return const_cast<Resident&>(at(slot)); }

  /// Unlinks and frees a resident; returns what was removed.
  Eviction remove(Slot slot);

  void link_back(Slot slot);
  void unlink(Slot slot);

  std::uint64_t capacity_ = 0;
  std::uint64_t used_ = 0;
  std::size_t count_ = 0;
  std::vector<Resident> slots_;
  Slot free_head_ = kNoSlot;  ///< first recyclable slot
  Slot head_ = kNoSlot;       ///< least recently used resident
  Slot tail_ = kNoSlot;       ///< most recently used resident
};

}  // namespace micco
