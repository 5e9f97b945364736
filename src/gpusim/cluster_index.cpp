#include "gpusim/cluster_index.hpp"

#include <algorithm>

namespace micco {

ClusterIndex::ClusterIndex(int num_devices) : num_devices_(num_devices) {
  MICCO_EXPECTS(num_devices >= 1);
}

ClusterIndex::Residency& ClusterIndex::entry(TensorId id) {
  if (id < kDenseLimit) {
    if (id >= dense_.size()) dense_.resize(static_cast<std::size_t>(id) + 1);
    return dense_[static_cast<std::size_t>(id)];
  }
  return sparse_[id];
}

const ClusterIndex::Residency* ClusterIndex::find(TensorId id) const {
  if (id < kDenseLimit) {
    return id < dense_.size() ? &dense_[static_cast<std::size_t>(id)]
                              : nullptr;
  }
  const auto it = sparse_.find(id);
  return it == sparse_.end() ? nullptr : &it->second;
}

std::span<const DeviceId> ClusterIndex::holders(TensorId id) const {
  const Residency* res = find(id);
  return res == nullptr ? std::span<const DeviceId>{} : res->holders.span();
}

namespace {

// A spilled list keeps its slots in the same block as its devices.
DeviceId stored(DeviceMemory::Slot slot) { return static_cast<DeviceId>(slot); }
DeviceMemory::Slot loaded(DeviceId word) {
  return static_cast<DeviceMemory::Slot>(word);
}

std::ptrdiff_t offset(std::size_t i) { return static_cast<std::ptrdiff_t>(i); }

}  // namespace

std::size_t ClusterIndex::HolderList::position(DeviceId dev) const {
  const DeviceId* const pos = std::find(begin(), end(), dev);
  MICCO_ASSERT(pos != end());
  return static_cast<std::size_t>(pos - begin());
}

DeviceMemory::Slot ClusterIndex::HolderList::slot(std::size_t i) const {
  MICCO_ASSERT(i < size_);
  return spilled() ? loaded(spill_[size_ + i]) : inline_slots_[i];
}

void ClusterIndex::HolderList::push_back(DeviceId dev, Slot slot) {
  if (size_ < kInline) {
    inline_[size_] = dev;
    inline_slots_[size_] = slot;
  } else {
    if (size_ == kInline) {
      spill_.reserve(2 * (kInline + 1));
      spill_.assign(inline_.begin(), inline_.end());
      for (const Slot held : inline_slots_) spill_.push_back(stored(held));
    }
    // The new device goes after the others and before the slots.
    spill_.insert(spill_.begin() + offset(size_), dev);
    spill_.push_back(stored(slot));
  }
  ++size_;
}

DeviceMemory::Slot ClusterIndex::HolderList::erase(DeviceId dev) {
  const std::size_t i = position(dev);
  const Slot removed = slot(i);
  if (!spilled()) {
    std::copy(inline_.begin() + offset(i + 1), inline_.begin() + offset(size_),
              inline_.begin() + offset(i));
    std::copy(inline_slots_.begin() + offset(i + 1),
              inline_slots_.begin() + offset(size_),
              inline_slots_.begin() + offset(i));
    --size_;
    return removed;
  }
  spill_.erase(spill_.begin() + offset(size_ + i));  // its slot, then itself
  spill_.erase(spill_.begin() + offset(i));
  --size_;
  if (size_ == kInline) {
    std::copy(spill_.begin(), spill_.begin() + offset(kInline),
              inline_.begin());
    for (std::size_t k = 0; k < kInline; ++k) {
      inline_slots_[k] = loaded(spill_[kInline + k]);
    }
    spill_ = std::vector<DeviceId>();  // back inline: free the heap block
  }
  return removed;
}

void ClusterIndex::place(TensorId id, DeviceId dev, DeviceMemory::Slot slot) {
  const auto bit = static_cast<std::size_t>(checked(dev));
  Residency& res = entry(id);
  MICCO_EXPECTS_MSG(!res.holds(dev),
                    "double allocation of a tensor on one device");
  res.holders.push_back(dev, slot);
  if (bit < 64) res.mask0 |= 1ULL << bit;
}

DeviceMemory::Slot ClusterIndex::remove(TensorId id, DeviceId dev) {
  const auto bit = static_cast<std::size_t>(checked(dev));
  Residency& res = entry(id);
  MICCO_ASSERT(res.holds(dev));
  if (bit < 64) res.mask0 &= ~(1ULL << bit);
  return res.holders.erase(dev);
}

}  // namespace micco
