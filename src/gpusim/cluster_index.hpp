// Incremental cluster-state index (DESIGN.md §9).
//
// The scheduler hot path used to re-derive residency, load and headroom from
// the simulator's hash maps for every tensor pair. ClusterIndex keeps that
// state as O(1)-updated flat structures maintained *as deltas* by the
// cluster's own mutation points (place on fetch/alloc, remove on
// evict/failure/discard, device mirrors re-synced after every execute,
// barrier, failure and discard):
//
//   * Per-tensor residency: the holder list in insertion order (candidate
//     enumeration order is part of the decision-log byte-identity contract;
//     up to four holders inline, so placing a tensor allocates nothing)
//     plus a device bitmask for O(1) membership tests.
//   * Per-device SoA mirrors: busy time, memory used/capacity and an alive
//     bitmask in parallel flat arrays, so candidate selection runs
//     branch-light over contiguous doubles instead of virtual calls.
//   * Per-tensor host-copy bits: whether a kernel produced the tensor and
//     whether an eviction wrote it back, which together say whether a host
//     copy exists (the fetch invariant and lost-tensor accounting).
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
#include "workload/task.hpp"

namespace micco {

using DeviceId = int;
constexpr DeviceId kNoDevice = -1;

class ClusterIndex {
 public:
  /// Ids below this are stored in the dense table (generators assign ids
  /// sequentially from 0, so in practice everything lands here).
  static constexpr std::uint64_t kDenseLimit = 1ULL << 20;

  /// Holder devices of one tensor in insertion (placement) order. Up to
  /// kInline ids live inline; placing a fifth replica moves the whole list
  /// to the heap, and removals back down to kInline move it inline again
  /// and free the block. The ids are always contiguous, so span() views
  /// them in order either way. Copies are deep (defaulted members).
  class HolderList {
   public:
    static constexpr std::size_t kInline = 4;

    std::span<const DeviceId> span() const { return {data(), size_}; }
    const DeviceId* begin() const { return data(); }
    const DeviceId* end() const { return data() + size_; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    /// True while the ids live on the heap (more than kInline holders).
    bool spilled() const { return size_ > kInline; }

    void push_back(DeviceId dev);
    /// Removes `dev` (must be present), keeping the others' order.
    void erase(DeviceId dev);

   private:
    const DeviceId* data() const {
      return spilled() ? spill_.data() : inline_.data();
    }

    std::array<DeviceId, kInline> inline_{};
    std::size_t size_ = 0;
    /// Every id while spilled(); empty, with no capacity, otherwise.
    std::vector<DeviceId> spill_;
  };

  /// Residency record of one tensor. Entries persist after the last replica
  /// is removed (empty holders), keeping the host-copy bits below.
  struct Residency {
    /// Holder devices in insertion (placement) order; schedulers enumerate
    /// candidates in exactly this order.
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
  /// Records a new replica of `id` on `dev` (must not already hold it).
  void place(TensorId id, DeviceId dev);

  /// Drops the replica of `id` on `dev` (must hold it). The entry survives
  /// with an empty holder list.
  void remove(TensorId id, DeviceId dev);

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

  // -- Per-device mirrors (synced by the owning cluster) ------------------
  void set_busy(DeviceId dev, double busy_s) {
    busy_[checked(dev)] = busy_s;
  }
  void set_memory(DeviceId dev, std::uint64_t used, std::uint64_t capacity) {
    mem_used_[checked(dev)] = used;
    mem_capacity_[checked(dev)] = capacity;
  }
  void set_alive(DeviceId dev, bool alive);

  double busy(DeviceId dev) const { return busy_[checked(dev)]; }
  std::uint64_t memory_used(DeviceId dev) const {
    return mem_used_[checked(dev)];
  }
  std::uint64_t memory_capacity(DeviceId dev) const {
    return mem_capacity_[checked(dev)];
  }
  bool alive(DeviceId dev) const {
    const auto bit = static_cast<std::size_t>(checked(dev));
    return ((alive_mask_[bit / 64] >> (bit % 64)) & 1ULL) != 0;
  }
  int num_alive() const { return num_alive_; }

  /// Raw flat arrays for the scheduler's SoA selection scan.
  const double* busy_data() const { return busy_.data(); }
  const std::uint64_t* memory_used_data() const { return mem_used_.data(); }
  const std::uint64_t* memory_capacity_data() const {
    return mem_capacity_.data();
  }
  /// Alive devices as bitmask words (bit d%64 of word d/64); iterating set
  /// bits yields devices in ascending id order.
  const std::vector<std::uint64_t>& alive_mask() const { return alive_mask_; }

 private:
  std::size_t checked(DeviceId dev) const {
    MICCO_EXPECTS(dev >= 0 && dev < num_devices_);
    return static_cast<std::size_t>(dev);
  }

  Residency& entry(TensorId id);

  int num_devices_ = 0;
  std::vector<Residency> dense_;                    ///< ids < kDenseLimit
  std::unordered_map<TensorId, Residency> sparse_;  ///< spill for huge ids
  std::vector<double> busy_;
  std::vector<std::uint64_t> mem_used_;
  std::vector<std::uint64_t> mem_capacity_;
  std::vector<std::uint64_t> alive_mask_;
  int num_alive_ = 0;
};

}  // namespace micco
