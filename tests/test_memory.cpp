#include "gpusim/memory.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <list>
#include <map>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "mem/policy.hpp"

namespace micco {
namespace {

using Slot = DeviceMemory::Slot;

/// One eviction as the simulator makes it: LruPolicy picks the victim's
/// slot, evict(slot) removes it; nullopt when every resident is pinned.
std::optional<Eviction> evict_lru(DeviceMemory& memory) {
  const std::optional<mem::VictimChoice> victim =
      mem::LruPolicy{}.pick_victim(memory);
  if (!victim.has_value()) return std::nullopt;
  return memory.evict(victim->slot);
}

/// Resident ids in recency order, least recently used first.
std::vector<TensorId> lru_vector(const DeviceMemory& mem) {
  std::vector<TensorId> ids;
  for (const Slot slot : mem.lru_order()) ids.push_back(mem.at(slot).id);
  return ids;
}

/// Resident ids in ascending order.
std::vector<TensorId> resident_ids(const DeviceMemory& mem) {
  std::vector<TensorId> ids = lru_vector(mem);
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(DeviceMemory, AllocateTracksUsage) {
  DeviceMemory mem(1000);
  EXPECT_EQ(mem.used(), 0u);
  EXPECT_EQ(mem.free_bytes(), 1000u);
  const Slot slot = mem.allocate(1, 300, false, 0.5);
  EXPECT_EQ(mem.used(), 300u);
  EXPECT_EQ(mem.free_bytes(), 700u);
  EXPECT_EQ(mem.resident_count(), 1u);
  const DeviceMemory::Resident& resident = mem.at(slot);
  EXPECT_EQ(resident.id, 1u);
  EXPECT_EQ(resident.bytes, 300u);
  EXPECT_FALSE(resident.dirty);
  EXPECT_FALSE(resident.pinned);
  EXPECT_EQ(resident.alloc_time_s, 0.5);
}

TEST(DeviceMemory, FitsChecksCapacity) {
  DeviceMemory mem(1000);
  mem.allocate(1, 600, false);
  EXPECT_TRUE(mem.fits(400));
  EXPECT_FALSE(mem.fits(401));
}

TEST(DeviceMemory, ReleaseReturnsBytes) {
  DeviceMemory mem(1000);
  const Slot slot = mem.allocate(1, 300, false);
  mem.release(slot);
  EXPECT_EQ(mem.used(), 0u);
  EXPECT_EQ(mem.resident_count(), 0u);
  EXPECT_DEATH((void)mem.at(slot), "non-resident slot");
  // The freed slot is recycled by the next allocation.
  EXPECT_EQ(mem.allocate(2, 100, false), slot);
}

TEST(DeviceMemory, EvictLruPicksOldestUntouched) {
  DeviceMemory mem(1000);
  mem.allocate(1, 100, false);
  mem.allocate(2, 100, false);
  mem.allocate(3, 100, false);
  const auto ev = evict_lru(mem);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->id, 1u);
  EXPECT_EQ(ev->bytes, 100u);
  EXPECT_FALSE(ev->dirty);
}

TEST(DeviceMemory, TouchPromotesToMostRecent) {
  DeviceMemory mem(1000);
  const Slot first = mem.allocate(1, 100, false);
  mem.allocate(2, 100, false);
  mem.touch(first);
  const auto ev = evict_lru(mem);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->id, 2u);
}

TEST(DeviceMemory, PinnedTensorsSurviveEviction) {
  DeviceMemory mem(1000);
  const Slot older = mem.allocate(1, 100, false);
  mem.allocate(2, 100, false);
  mem.pin(older);
  const auto ev = evict_lru(mem);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->id, 2u);  // tensor 1 is older but pinned
}

TEST(DeviceMemory, AllPinnedMeansNoVictim) {
  DeviceMemory mem(1000);
  mem.pin(mem.allocate(1, 100, false));
  EXPECT_FALSE(evict_lru(mem).has_value());
}

TEST(DeviceMemory, UnpinRestoresEvictability) {
  DeviceMemory mem(1000);
  const Slot slot = mem.allocate(1, 100, false);
  mem.pin(slot);
  mem.unpin(slot);
  EXPECT_TRUE(evict_lru(mem).has_value());
}

TEST(DeviceMemory, DirtyFlagTravelsWithEviction) {
  DeviceMemory mem(1000);
  mem.allocate(1, 100, true);
  const auto ev = evict_lru(mem);
  ASSERT_TRUE(ev.has_value());
  EXPECT_TRUE(ev->dirty);
}

TEST(DeviceMemory, ResidentIdsListsAll) {
  DeviceMemory mem(1000);
  mem.allocate(9, 100, false);
  mem.allocate(5, 100, false);
  EXPECT_EQ(lru_vector(mem), (std::vector<TensorId>{9, 5}));
  EXPECT_EQ(resident_ids(mem), (std::vector<TensorId>{5, 9}));
}

TEST(DeviceMemory, OverCapacityAllocationAborts) {
  DeviceMemory mem(100);
  EXPECT_DEATH(mem.allocate(1, 200, false), "eviction");
}

TEST(DeviceMemory, ReleaseUnknownAborts) {
  DeviceMemory mem(100);
  EXPECT_DEATH(mem.release(42), "non-resident");
  const Slot slot = mem.allocate(1, 10, false);
  mem.release(slot);
  EXPECT_DEATH(mem.release(slot), "non-resident");  // freed already
}

TEST(DeviceMemory, EvictByIdReleasesAndReports) {
  // Evicting a slot reports the tensor that lived there.
  DeviceMemory mem(1000);
  mem.allocate(1, 100, false);
  const Slot slot = mem.allocate(2, 200, true, 1.25);
  const auto ev = mem.evict(slot);
  EXPECT_EQ(ev.id, 2u);
  EXPECT_EQ(ev.bytes, 200u);
  EXPECT_TRUE(ev.dirty);
  EXPECT_EQ(ev.alloc_time_s, 1.25);
  EXPECT_EQ(lru_vector(mem), std::vector<TensorId>{1});
  EXPECT_EQ(mem.used(), 100u);
}

TEST(DeviceMemory, EvictPinnedOrAbsentAborts) {
  DeviceMemory mem(1000);
  const Slot slot = mem.allocate(1, 100, false);
  mem.pin(slot);
  EXPECT_DEATH(mem.evict(slot), "pinned");
  EXPECT_DEATH(mem.evict(42), "non-resident");
}

TEST(DeviceMemory, GrowAfterShrinkWithLiveResidents) {
  // A capacity fault shrinks the device; when the fault heals, capacity is
  // restored *above* current usage while the shrunken era's residents are
  // still live. That growth must not assert, and the extra bytes must be
  // allocatable immediately.
  DeviceMemory mem(1000);
  mem.allocate(1, 300, false);
  mem.allocate(2, 300, true);
  mem.set_capacity(700);  // shrink; both residents still fit
  EXPECT_FALSE(mem.fits(200));
  mem.set_capacity(2000);  // the fault heals: grow past the original size
  EXPECT_EQ(mem.used(), 600u);
  EXPECT_EQ(resident_ids(mem), (std::vector<TensorId>{1, 2}));
  EXPECT_TRUE(mem.fits(1400));
  mem.allocate(3, 1400, false);
  EXPECT_EQ(mem.used(), 2000u);
  // LRU order survived the resize cycle untouched.
  const auto ev = evict_lru(mem);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->id, 1u);
}

TEST(DeviceMemory, EvictionSequenceFollowsLruOrder) {
  DeviceMemory mem(1000);
  std::vector<Slot> slots;
  for (TensorId id = 0; id < 5; ++id) {
    slots.push_back(mem.allocate(id, 100, false));
  }
  mem.touch(slots[0]);  // order now: 1,2,3,4,0
  for (const TensorId expected : {1u, 2u, 3u, 4u, 0u}) {
    const auto ev = evict_lru(mem);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->id, expected);
  }
  EXPECT_EQ(mem.resident_count(), 0u);
}

static_assert(
    std::forward_iterator<DeviceMemory::LruRange::iterator>,
    "lru_order() must stay a forward range for the eviction policies");

// Reference model: a std::list recency order (LRU at the front) beside a
// std::map of entries, the obvious node-based implementation.
struct ReferenceMemory {
  struct Entry {
    std::uint64_t bytes = 0;
    bool dirty = false;
    bool pinned = false;
  };
  std::uint64_t used = 0;
  std::list<TensorId> lru;  // least recently used at the front
  std::map<TensorId, Entry> entries;

  void allocate(TensorId id, std::uint64_t bytes, bool dirty) {
    lru.push_back(id);
    entries[id] = Entry{bytes, dirty, false};
    used += bytes;
  }
  Eviction remove(TensorId id) {
    const Entry entry = entries.at(id);
    entries.erase(id);
    lru.remove(id);
    used -= entry.bytes;
    return Eviction{id, entry.bytes, entry.dirty};
  }
  void touch(TensorId id) {
    lru.remove(id);
    lru.push_back(id);
  }
  std::optional<Eviction> evict_lru() {
    for (const TensorId id : lru) {
      if (!entries.at(id).pinned) return remove(id);
    }
    return std::nullopt;
  }
  std::vector<TensorId> resident_ids() const {
    std::vector<TensorId> ids;
    for (const auto& [id, entry] : entries) ids.push_back(id);
    return ids;
  }
};

void expect_same_victim(const std::optional<Eviction>& got,
                        const std::optional<Eviction>& want) {
  ASSERT_EQ(got.has_value(), want.has_value());
  if (!want.has_value()) return;
  EXPECT_EQ(got->id, want->id);
  EXPECT_EQ(got->bytes, want->bytes);
  EXPECT_EQ(got->dirty, want->dirty);
}

TEST(DeviceMemory, MatchesListAndMapReferenceUnderChurn) {
  // Ids churn through allocate/release, so freed slots are recycled
  // constantly. The test keeps the id -> slot map a ClusterIndex keeps for
  // the simulator, and every victim must leave from the slot it was given.
  std::vector<TensorId> pool;
  for (TensorId id = 0; id < 72; ++id) pool.push_back(id);

  constexpr std::uint64_t kCapacity = 4000;
  DeviceMemory mem(kCapacity);
  std::map<TensorId, Slot> slot_of;
  ReferenceMemory ref;
  Pcg32 rng(20240613);
  std::size_t victims = 0;
  std::size_t max_resident = 0;
  // Evicts through the policy and retires the victim's slot from slot_of.
  const auto evict_tracked = [&]() -> std::optional<Eviction> {
    const std::optional<mem::VictimChoice> victim =
        mem::LruPolicy{}.pick_victim(mem);
    if (!victim.has_value()) return std::nullopt;
    const Eviction ev = mem.evict(victim->slot);
    EXPECT_EQ(slot_of.at(ev.id), victim->slot);
    slot_of.erase(ev.id);
    return ev;
  };

  for (int step = 0; step < 20000; ++step) {
    const TensorId id = pool[rng.uniform_below(
        static_cast<std::uint32_t>(pool.size()))];
    const bool resident = ref.entries.contains(id);
    ASSERT_EQ(slot_of.contains(id), resident) << "step " << step;
    switch (rng.uniform_below(8)) {
      case 0:
      case 1: {  // allocate, evicting LRU victims until it fits
        if (resident) break;
        const std::uint64_t bytes = 1 + rng.uniform_below(300);
        const bool dirty = rng.uniform_below(2) == 1;
        bool fits = true;
        while (!mem.fits(bytes)) {
          const std::optional<Eviction> want = ref.evict_lru();
          expect_same_victim(evict_tracked(), want);
          if (!want.has_value()) {
            fits = false;
            break;
          }
          ++victims;
        }
        if (!fits) break;
        slot_of[id] = mem.allocate(id, bytes, dirty);
        ref.allocate(id, bytes, dirty);
        break;
      }
      case 2:
        if (!resident) break;
        mem.touch(slot_of.at(id));
        ref.touch(id);
        break;
      case 3:
        if (!resident) break;
        mem.pin(slot_of.at(id));
        ref.entries.at(id).pinned = true;
        break;
      case 4:
        if (!resident) break;
        mem.unpin(slot_of.at(id));
        ref.entries.at(id).pinned = false;
        break;
      case 5: {
        const std::optional<Eviction> want = ref.evict_lru();
        expect_same_victim(evict_tracked(), want);
        if (want.has_value()) ++victims;
        break;
      }
      case 6: {
        if (!resident || ref.entries.at(id).pinned) break;
        const Eviction got = mem.evict(slot_of.at(id));
        slot_of.erase(id);
        expect_same_victim(got, ref.remove(id));
        ++victims;
        break;
      }
      case 7:
        if (!resident) break;
        mem.release(slot_of.at(id));
        slot_of.erase(id);
        (void)ref.remove(id);
        break;
    }
    ASSERT_EQ(lru_vector(mem),
              std::vector<TensorId>(ref.lru.begin(), ref.lru.end()))
        << "step " << step;
    ASSERT_EQ(resident_ids(mem), ref.resident_ids()) << "step " << step;
    ASSERT_EQ(mem.used(), ref.used) << "step " << step;
    ASSERT_EQ(mem.resident_count(), ref.entries.size());
    for (const auto& [rid, entry] : ref.entries) {
      const DeviceMemory::Resident& got = mem.at(slot_of.at(rid));
      ASSERT_EQ(got.id, rid);
      ASSERT_EQ(got.pinned, entry.pinned);
      ASSERT_EQ(got.bytes, entry.bytes);
      ASSERT_EQ(got.dirty, entry.dirty);
    }
    max_resident = std::max(max_resident, ref.entries.size());
  }
  // The churn really exercised eviction and filled the device.
  EXPECT_GT(victims, 1000u);
  EXPECT_GT(max_resident, 20u);
}

TEST(DeviceMemory, CopyEvolvesIndependently) {
  DeviceMemory source(1000);
  std::vector<Slot> slots;
  for (TensorId id = 0; id < 5; ++id) {
    slots.push_back(source.allocate(id, 100, id % 2 == 0));
  }
  source.pin(slots[3]);

  // A copy addresses its residents by the source's slots.
  DeviceMemory copy(source);
  copy.touch(slots[0]);
  copy.release(slots[1]);
  copy.unpin(slots[3]);
  const Slot seven = copy.allocate(7, 300, true);
  EXPECT_EQ(seven, slots[1]);  // the copy recycles its own freed slot

  // The source is untouched by the copy's mutations...
  EXPECT_EQ(lru_vector(source), (std::vector<TensorId>{0, 1, 2, 3, 4}));
  EXPECT_EQ(source.used(), 500u);
  EXPECT_TRUE(source.at(slots[3]).pinned);
  EXPECT_EQ(source.at(slots[1]).id, 1u);
  // ...and the copy has its own recency order, slots and pins.
  EXPECT_EQ(lru_vector(copy), (std::vector<TensorId>{2, 3, 4, 0, 7}));
  EXPECT_EQ(copy.used(), 700u);
  EXPECT_FALSE(copy.at(slots[3]).pinned);

  // Mutating the source afterwards leaves the copy alone too.
  const std::optional<Eviction> ev = evict_lru(source);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->id, 0u);
  EXPECT_EQ(copy.at(slots[0]).id, 0u);

  // Copy assignment replaces the whole state.
  copy = source;
  EXPECT_EQ(lru_vector(copy), (std::vector<TensorId>{1, 2, 3, 4}));
  EXPECT_EQ(copy.used(), 400u);
  EXPECT_EQ(copy.allocate(0, 100, false), slots[0]);
  EXPECT_EQ(lru_vector(source), (std::vector<TensorId>{1, 2, 3, 4}));
}

}  // namespace
}  // namespace micco
