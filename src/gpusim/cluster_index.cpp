#include "gpusim/cluster_index.hpp"

#include <algorithm>

namespace micco {

ClusterIndex::ClusterIndex(int num_devices) : num_devices_(num_devices) {
  MICCO_EXPECTS(num_devices >= 1);
  const auto n = static_cast<std::size_t>(num_devices);
  busy_.assign(n, 0.0);
  mem_used_.assign(n, 0);
  mem_capacity_.assign(n, 0);
  alive_mask_.assign((n + 63) / 64, 0);
  for (std::size_t dev = 0; dev < n; ++dev) {
    alive_mask_[dev / 64] |= 1ULL << (dev % 64);
  }
  num_alive_ = num_devices;
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

void ClusterIndex::HolderList::push_back(DeviceId dev) {
  if (size_ < kInline) {
    inline_[size_] = dev;
  } else {
    if (size_ == kInline) spill_.assign(inline_.begin(), inline_.end());
    spill_.push_back(dev);
  }
  ++size_;
}

void ClusterIndex::HolderList::erase(DeviceId dev) {
  if (!spilled()) {
    DeviceId* const first = inline_.data();
    DeviceId* const last = first + size_;
    DeviceId* const pos = std::find(first, last, dev);
    MICCO_ASSERT(pos != last);
    std::copy(pos + 1, last, pos);
    --size_;
    return;
  }
  const auto pos = std::find(spill_.begin(), spill_.end(), dev);
  MICCO_ASSERT(pos != spill_.end());
  spill_.erase(pos);
  --size_;
  if (size_ == kInline) {
    std::copy(spill_.begin(), spill_.end(), inline_.begin());
    spill_ = std::vector<DeviceId>();  // back inline: free the heap block
  }
}

void ClusterIndex::place(TensorId id, DeviceId dev) {
  const auto bit = static_cast<std::size_t>(checked(dev));
  Residency& res = entry(id);
  MICCO_ASSERT(!res.holds(dev));
  res.holders.push_back(dev);
  if (bit < 64) res.mask0 |= 1ULL << bit;
  ++global_epoch_;
}

void ClusterIndex::remove(TensorId id, DeviceId dev) {
  const auto bit = static_cast<std::size_t>(checked(dev));
  Residency& res = entry(id);
  MICCO_ASSERT(res.holds(dev));
  res.holders.erase(dev);
  if (bit < 64) res.mask0 &= ~(1ULL << bit);
  ++global_epoch_;
}

void ClusterIndex::set_alive(DeviceId dev, bool alive) {
  const auto bit = static_cast<std::size_t>(checked(dev));
  const std::uint64_t mask = 1ULL << (bit % 64);
  std::uint64_t& word = alive_mask_[bit / 64];
  const bool was_alive = (word & mask) != 0;
  if (was_alive == alive) return;
  if (alive) {
    word |= mask;
    ++num_alive_;
  } else {
    word &= ~mask;
    --num_alive_;
  }
}

}  // namespace micco
