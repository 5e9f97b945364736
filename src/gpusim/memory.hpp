// Per-device memory manager.
//
// Tracks which tensors are resident in one simulated device memory, with
// capacity accounting, pinning (current kernel operands must not be evicted
// from under the kernel) and the recency order the eviction policies
// (src/mem/) pick victims from in the oversubscription experiments
// (Fig. 11). Dirty tensors (kernel outputs not yet on the host) must be
// written back on eviction; clean cached inputs can be dropped.
//
// Storage is flat and allocation-free in steady state: residents live in a
// slab of nodes (freed slots are recycled through a free list), the recency
// order is an intrusive doubly linked list over slot indices, and an
// open-addressing id -> slot table (linear probing, backward-shift deletion)
// answers lookups. Every member is a vector or a scalar and slot indices
// are position-independent, so the defaulted copies are deep and exact —
// the oracle search clones whole simulators per candidate assignment.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <utility>
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
 private:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  /// One resident tensor. A free slot reuses `next` as its free-list link.
  struct Node {
    TensorId id = kInvalidTensor;
    std::uint64_t bytes = 0;
    std::uint32_t prev = kNoSlot;  ///< towards the least recently used end
    std::uint32_t next = kNoSlot;  ///< towards the most recently used end
    bool dirty = false;
    bool pinned = false;
    double alloc_time_s = 0.0;
  };

 public:
  /// Forward range over the resident ids, least recently used first.
  class LruRange {
   public:
    class iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = TensorId;
      using difference_type = std::ptrdiff_t;
      using pointer = const TensorId*;
      using reference = const TensorId&;

      iterator() = default;
      reference operator*() const { return nodes_[slot_].id; }
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
      iterator(const Node* nodes, std::uint32_t slot)
          : nodes_(nodes), slot_(slot) {}
      const Node* nodes_ = nullptr;
      std::uint32_t slot_ = kNoSlot;
    };

    iterator begin() const { return iterator(nodes_, head_); }
    iterator end() const { return iterator(nodes_, kNoSlot); }

   private:
    friend class DeviceMemory;
    LruRange(const Node* nodes, std::uint32_t head)
        : nodes_(nodes), head_(head) {}
    const Node* nodes_;
    std::uint32_t head_;
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

  /// Empties the memory at `capacity_bytes`, as DeviceMemory(capacity_bytes)
  /// would, but keeps the slot slab and the id table allocated. The table
  /// keeps its grown size, which nothing observes: recency order is the
  /// intrusive list and resident_ids() sorts.
  void reset(std::uint64_t capacity_bytes);

  bool resident(TensorId id) const { return slot_of(id) != kNoSlot; }
  std::size_t resident_count() const { return count_; }

  /// True when `bytes` more can be allocated without eviction.
  bool fits(std::uint64_t bytes) const { return used_ + bytes <= capacity_; }

  /// Allocates a tensor (must not already be resident, must fit) at
  /// simulated time `alloc_time_s`, which its Eviction reports back. Newly
  /// allocated tensors are the most recently used.
  void allocate(TensorId id, std::uint64_t bytes, bool dirty,
                double alloc_time_s = 0.0);

  /// Releases a resident tensor.
  void release(TensorId id);

  /// Marks a resident tensor as most recently used (a kernel touched it).
  void touch(TensorId id);

  /// True when a resident tensor is a kernel output not yet written back.
  bool is_dirty(TensorId id) const { return node(id).dirty; }

  /// Pins/unpins a tensor against eviction for the duration of a kernel.
  void pin(TensorId id) { node(id).pinned = true; }
  void unpin(TensorId id) { node(id).pinned = false; }

  /// Evicts a specific resident tensor — the victim an eviction policy
  /// (src/mem/) selected. The tensor must be resident and unpinned.
  Eviction evict(TensorId id);

  // -- read-only views for eviction policies (src/mem/) -------------------
  /// Residents in recency order, least recently used first. The range stays
  /// valid until the next mutation; policies read it within one
  /// pick_victim() call. Iteration order is deterministic (an intrusive list
  /// maintained by allocate/touch/release, never the id table's layout).
  LruRange lru_order() const { return LruRange(slots_.data(), head_); }
  bool pinned(TensorId id) const { return node(id).pinned; }
  std::uint64_t bytes_of(TensorId id) const { return node(id).bytes; }

  /// All resident tensor ids in ascending id order; used by tests and by
  /// the cluster's failure handling (lost-tensor accounting, residency
  /// rebuilds), which must not depend on recency order.
  std::vector<TensorId> resident_ids() const;

  /// Fibonacci hash of an id; an id's home bucket is the top bits. Ids
  /// sharing their top 16 hash bits collide in every table of up to 2^16
  /// buckets, which is how tests build long probe chains.
  static constexpr std::uint64_t hash(TensorId id) {
    return id * 0x9E3779B97F4A7C15ULL;
  }

 private:
  struct Bucket {
    TensorId id = kInvalidTensor;
    std::uint32_t slot = kNoSlot;  ///< kNoSlot marks an empty bucket
  };

  std::size_t home_bucket(TensorId id) const {
    return static_cast<std::size_t>(hash(id) >> hash_shift_);
  }

  /// Bucket holding `id`, or the empty bucket that ends its probe chain.
  /// The table must be non-empty.
  std::size_t probe(TensorId id) const {
    const std::size_t mask = buckets_.size() - 1;
    std::size_t b = home_bucket(id);
    while (buckets_[b].slot != kNoSlot && buckets_[b].id != id) {
      b = (b + 1) & mask;
    }
    return b;
  }

  std::uint32_t slot_of(TensorId id) const {
    return buckets_.empty() ? kNoSlot : buckets_[probe(id)].slot;
  }

  const Node& node(TensorId id) const {
    const std::uint32_t slot = slot_of(id);
    MICCO_EXPECTS_MSG(slot != kNoSlot, "access to a non-resident tensor");
    return slots_[slot];
  }
  Node& node(TensorId id) {
    return const_cast<Node&>(std::as_const(*this).node(id));
  }

  /// Bucket of a resident tensor; aborts with `violation` otherwise.
  std::size_t occupied_bucket(TensorId id, const char* violation) const;

  /// Removes the tensor in bucket `b` (must be occupied) from the table,
  /// the recency list and the usage count; returns what was removed.
  Eviction remove_at(std::size_t b);

  void grow_table();
  void erase_bucket(std::size_t hole);
  void link_back(std::uint32_t slot);
  void unlink(std::uint32_t slot);

  std::uint64_t capacity_ = 0;
  std::uint64_t used_ = 0;
  std::size_t count_ = 0;
  std::vector<Node> slots_;
  std::uint32_t free_head_ = kNoSlot;  ///< first recyclable slot
  std::uint32_t head_ = kNoSlot;       ///< least recently used resident
  std::uint32_t tail_ = kNoSlot;       ///< most recently used resident
  std::vector<Bucket> buckets_;        ///< power-of-two sized, or empty
  int hash_shift_ = 64;                ///< 64 - log2(buckets_.size())
};

}  // namespace micco
