// Incremental residency index (DESIGN.md §9).
//
// The scheduler hot path used to re-derive residency from the simulator's
// hash maps for every tensor pair. ClusterIndex keeps it as O(1)-updated
// flat structures maintained *as deltas* by the cluster's own mutation
// points (place on fetch/alloc, remove on evict/failure):
//
//   * Per-tensor residency: the holder list in insertion order (candidate
//     enumeration order is part of the decision-log byte-identity contract;
//     up to four holders inline, so placing a tensor allocates nothing)
//     plus a device bitmask for O(1) membership tests. Each holder keeps the
//     DeviceMemory slot of its replica beside it: this is the cluster's only
//     record of which tensor lives where, and the simulator reaches a
//     replica's node through it.
//   * Per-tensor host-copy bits: whether a kernel produced the tensor and
//     whether an eviction wrote it back, which together say whether a host
//     copy exists (the fetch invariant and lost-tensor accounting).
//
// Per-device facts (busy time, memory, liveness) are not here: schedulers
// read them from the simulator's devices, their only record.
//
// The index stores ids densely (TensorIds are assigned sequentially from 0
// by every generator) with a hash-map spill for pathological ids, and is
// plain-copyable: the oracle clones whole simulators per candidate.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/assert.hpp"
#include "gpusim/memory.hpp"
#include "workload/task.hpp"

namespace micco {

using DeviceId = int;
constexpr DeviceId kNoDevice = -1;

class ClusterIndex {
 public:
  /// Ids below this are stored in the dense table (generators assign ids
  /// sequentially from 0, so in practice everything lands here).
  static constexpr std::uint64_t kDenseLimit = 1ULL << 20;

  /// Holder devices of one tensor in insertion (placement) order, each with
  /// the DeviceMemory slot of its replica. Up to kInline holders live
  /// inline; placing a fifth replica moves the whole list to one heap block
  /// (the devices, then their slots), and removals back down to kInline move
  /// it inline again and free the block. The devices are always contiguous,
  /// so span() views them in order either way. Copies are deep (defaulted
  /// members).
  class HolderList {
   public:
    static constexpr std::size_t kInline = 4;
    using Slot = DeviceMemory::Slot;

    std::span<const DeviceId> span() const { return {devices(), size_}; }
    const DeviceId* begin() const { return devices(); }
    const DeviceId* end() const { return devices() + size_; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    /// True while the list lives on the heap (more than kInline holders).
    bool spilled() const { return size_ > kInline; }

    /// Slot of the replica on `dev` (must be a holder).
    Slot slot_on(DeviceId dev) const { return slot(position(dev)); }

    void push_back(DeviceId dev, Slot slot);
    /// Removes `dev` (must be present), keeping the others' order; returns
    /// the slot its replica had.
    Slot erase(DeviceId dev);

   private:
    const DeviceId* devices() const {
      return spilled() ? spill_.data() : inline_.data();
    }
    std::size_t position(DeviceId dev) const;
    /// Slot of the replica on the i-th holder, span()[i].
    Slot slot(std::size_t i) const;

    std::array<DeviceId, kInline> inline_{};
    std::array<Slot, kInline> inline_slots_{};
    std::size_t size_ = 0;
    /// While spilled(): the size() devices, then their slots (each stored
    /// as a DeviceId bit pattern). Empty, with no capacity, otherwise.
    std::vector<DeviceId> spill_;
  };

  /// Residency record of one tensor. Entries persist after the last replica
  /// is removed (empty holders), keeping the host-copy bits below.
  struct Residency {
    /// Holder devices in insertion (placement) order, with their replicas'
    /// slots; schedulers enumerate candidates in exactly this order.
    HolderList holders;
    /// Membership bitmask over devices 0-63 (the common numGPU <= 64 case).
    /// Devices past 63 are looked up in the holder list instead, so no
    /// record needs a heap-allocated mask.
    std::uint64_t mask0 = 0;
    /// A kernel produced this tensor (otherwise it is a host-staged
    /// original), and an eviction has since written a copy back to the
    /// host. Both stay set for the rest of the run.
    bool produced = false;
    bool host_copy = false;

    bool holds(DeviceId dev) const {
      const auto bit = static_cast<std::size_t>(dev);
      if (bit < 64) return ((mask0 >> bit) & 1ULL) != 0;
      for (const DeviceId holder : holders) {
        if (holder == dev) return true;
      }
      return false;
    }
  };

  explicit ClusterIndex(int num_devices);

  int num_devices() const { return num_devices_; }

  // -- Residency deltas --------------------------------------------------
  /// Records a new replica of `id` on `dev` (must not already hold it),
  /// living in `slot` of the device's memory.
  void place(TensorId id, DeviceId dev, DeviceMemory::Slot slot);

  /// Drops the replica of `id` on `dev` (must hold it) and returns its
  /// slot. The entry survives with an empty holder list.
  DeviceMemory::Slot remove(TensorId id, DeviceId dev);

  /// The tensor's residency record, or nullptr when it was never placed.
  const Residency* find(TensorId id) const;

  /// Holder list in placement order (empty when never placed / not
  /// resident). The span aliases the record: valid until the next mutation
  /// of this index.
  std::span<const DeviceId> holders(TensorId id) const;

  bool holds(DeviceId dev, TensorId id) const {
    MICCO_EXPECTS(dev >= 0 && dev < num_devices_);
    const Residency* res = find(id);
    return res != nullptr && res->holds(dev);
  }

  bool resident_anywhere(TensorId id) const {
    const Residency* res = find(id);
    return res != nullptr && !res->holders.empty();
  }

  // -- Host copies (read by the simulator's fetch and failure paths) -----
  /// Records that a kernel produced `id`.
  void mark_produced(TensorId id) { entry(id).produced = true; }

  /// Records an eviction write-back of `id`: a produced tensor gains a host
  /// copy (originals always had one).
  void note_writeback(TensorId id) {
    Residency& res = entry(id);
    res.host_copy = res.host_copy || res.produced;
  }

  /// True when a host copy of `id` exists: originals always, produced
  /// tensors only after a write-back.
  bool host_resident(TensorId id) const {
    const Residency* res = find(id);
    return res == nullptr || !res->produced || res->host_copy;
  }

 private:
  std::size_t checked(DeviceId dev) const {
    MICCO_EXPECTS(dev >= 0 && dev < num_devices_);
    return static_cast<std::size_t>(dev);
  }

  Residency& entry(TensorId id);

  int num_devices_ = 0;
  std::vector<Residency> dense_;                    ///< ids < kDenseLimit
  std::unordered_map<TensorId, Residency> sparse_;  ///< spill for huge ids
};

}  // namespace micco
