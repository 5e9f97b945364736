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

/// One eviction as the simulator makes it: LruPolicy picks the victim,
/// evict(id) removes it; nullopt when every resident is pinned.
std::optional<Eviction> evict_lru(DeviceMemory& memory) {
  const std::optional<mem::VictimChoice> victim =
      mem::LruPolicy{}.pick_victim(memory);
  if (!victim.has_value()) return std::nullopt;
  return memory.evict(victim->id);
}

TEST(DeviceMemory, AllocateTracksUsage) {
  DeviceMemory mem(1000);
  EXPECT_EQ(mem.used(), 0u);
  EXPECT_EQ(mem.free_bytes(), 1000u);
  mem.allocate(1, 300, false);
  EXPECT_EQ(mem.used(), 300u);
  EXPECT_EQ(mem.free_bytes(), 700u);
  EXPECT_TRUE(mem.resident(1));
  EXPECT_EQ(mem.resident_count(), 1u);
}

TEST(DeviceMemory, FitsChecksCapacity) {
  DeviceMemory mem(1000);
  mem.allocate(1, 600, false);
  EXPECT_TRUE(mem.fits(400));
  EXPECT_FALSE(mem.fits(401));
}

TEST(DeviceMemory, ReleaseReturnsBytes) {
  DeviceMemory mem(1000);
  mem.allocate(1, 300, false);
  mem.release(1);
  EXPECT_EQ(mem.used(), 0u);
  EXPECT_FALSE(mem.resident(1));
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
  mem.allocate(1, 100, false);
  mem.allocate(2, 100, false);
  mem.touch(1);
  const auto ev = evict_lru(mem);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->id, 2u);
}

TEST(DeviceMemory, PinnedTensorsSurviveEviction) {
  DeviceMemory mem(1000);
  mem.allocate(1, 100, false);
  mem.allocate(2, 100, false);
  mem.pin(1);
  const auto ev = evict_lru(mem);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->id, 2u);  // LRU but pinned tensor 1 is skipped? order: 1 older
}

TEST(DeviceMemory, AllPinnedMeansNoVictim) {
  DeviceMemory mem(1000);
  mem.allocate(1, 100, false);
  mem.pin(1);
  EXPECT_FALSE(evict_lru(mem).has_value());
}

TEST(DeviceMemory, UnpinRestoresEvictability) {
  DeviceMemory mem(1000);
  mem.allocate(1, 100, false);
  mem.pin(1);
  mem.unpin(1);
  EXPECT_TRUE(evict_lru(mem).has_value());
}

TEST(DeviceMemory, DirtyFlagTravelsWithEviction) {
  DeviceMemory mem(1000);
  mem.allocate(1, 100, true);
  const auto ev = evict_lru(mem);
  ASSERT_TRUE(ev.has_value());
  EXPECT_TRUE(ev->dirty);
}

TEST(DeviceMemory, SetDirtyRoundTrip) {
  DeviceMemory mem(1000);
  mem.allocate(1, 100, false);
  EXPECT_FALSE(mem.is_dirty(1));
  mem.set_dirty(1, true);
  EXPECT_TRUE(mem.is_dirty(1));
  mem.set_dirty(1, false);
  EXPECT_FALSE(mem.is_dirty(1));
}

TEST(DeviceMemory, ResidentIdsListsAll) {
  DeviceMemory mem(1000);
  mem.allocate(5, 100, false);
  mem.allocate(9, 100, false);
  auto ids = mem.resident_ids();
  std::sort(ids.begin(), ids.end());
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], 5u);
  EXPECT_EQ(ids[1], 9u);
}

TEST(DeviceMemory, DoubleAllocationAborts) {
  DeviceMemory mem(1000);
  mem.allocate(1, 100, false);
  EXPECT_DEATH(mem.allocate(1, 100, false), "double allocation");
}

TEST(DeviceMemory, OverCapacityAllocationAborts) {
  DeviceMemory mem(100);
  EXPECT_DEATH(mem.allocate(1, 200, false), "eviction");
}

TEST(DeviceMemory, ReleaseUnknownAborts) {
  DeviceMemory mem(100);
  EXPECT_DEATH(mem.release(42), "non-resident");
}

TEST(DeviceMemory, EvictByIdReleasesAndReports) {
  DeviceMemory mem(1000);
  mem.allocate(1, 100, false);
  mem.allocate(2, 200, true, 1.25);
  const auto ev = mem.evict(2);
  EXPECT_EQ(ev.id, 2u);
  EXPECT_EQ(ev.bytes, 200u);
  EXPECT_TRUE(ev.dirty);
  EXPECT_EQ(ev.alloc_time_s, 1.25);
  EXPECT_FALSE(mem.resident(2));
  EXPECT_EQ(mem.used(), 100u);
}

TEST(DeviceMemory, EvictPinnedOrAbsentAborts) {
  DeviceMemory mem(1000);
  mem.allocate(1, 100, false);
  mem.pin(1);
  EXPECT_DEATH(mem.evict(1), "pinned");
  EXPECT_DEATH(mem.evict(42), "");
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
  EXPECT_TRUE(mem.resident(1));
  EXPECT_TRUE(mem.resident(2));
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
  for (TensorId id = 0; id < 5; ++id) mem.allocate(id, 100, false);
  mem.touch(0);  // order now: 1,2,3,4,0
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

std::vector<TensorId> lru_vector(const DeviceMemory& mem) {
  std::vector<TensorId> ids;
  for (const TensorId id : mem.lru_order()) ids.push_back(id);
  return ids;
}

/// `count` ids whose hashes share their top 16 bits: they collide in every
/// id table of up to 2^16 buckets, so they form one long probe chain.
std::vector<TensorId> colliding_ids(std::size_t count) {
  std::vector<TensorId> ids;
  const std::uint64_t target = DeviceMemory::hash(1000) >> 48;
  for (TensorId id = 1000; ids.size() < count; ++id) {
    if (DeviceMemory::hash(id) >> 48 == target) ids.push_back(id);
  }
  return ids;
}

TEST(DeviceMemory, ProbeChainSurvivesMiddleRemovals) {
  const std::vector<TensorId> chain = colliding_ids(12);
  DeviceMemory mem(1 << 20);
  for (const TensorId id : chain) mem.allocate(id, 10, false);
  // Remove every third member; the rest must stay reachable past the holes.
  for (std::size_t i = 0; i < chain.size(); i += 3) mem.release(chain[i]);
  for (std::size_t i = 0; i < chain.size(); ++i) {
    EXPECT_EQ(mem.resident(chain[i]), i % 3 != 0) << "chain member " << i;
  }
  // Re-inserting the removed ids recycles their freed slots.
  for (std::size_t i = 0; i < chain.size(); i += 3) {
    mem.allocate(chain[i], 10, true);
  }
  EXPECT_EQ(mem.resident_count(), chain.size());
  EXPECT_EQ(mem.used(), 10 * chain.size());
}

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
  // Small sequential ids churn through allocate/release, so freed slots are
  // recycled constantly; the colliding ids keep one probe chain long while
  // members leave from its middle (backward-shift deletion).
  std::vector<TensorId> pool;
  for (TensorId id = 0; id < 48; ++id) pool.push_back(id);
  for (const TensorId id : colliding_ids(24)) pool.push_back(id);

  constexpr std::uint64_t kCapacity = 4000;
  DeviceMemory mem(kCapacity);
  ReferenceMemory ref;
  Pcg32 rng(20240613);
  std::size_t victims = 0;
  std::size_t max_resident = 0;

  for (int step = 0; step < 20000; ++step) {
    const TensorId id = pool[rng.uniform_below(
        static_cast<std::uint32_t>(pool.size()))];
    const bool resident = ref.entries.contains(id);
    ASSERT_EQ(mem.resident(id), resident) << "step " << step;
    switch (rng.uniform_below(8)) {
      case 0:
      case 1: {  // allocate, evicting LRU victims until it fits
        if (resident) break;
        const std::uint64_t bytes = 1 + rng.uniform_below(300);
        const bool dirty = rng.uniform_below(2) == 1;
        bool fits = true;
        while (!mem.fits(bytes)) {
          const std::optional<Eviction> want = ref.evict_lru();
          expect_same_victim(evict_lru(mem), want);
          if (!want.has_value()) {
            fits = false;
            break;
          }
          ++victims;
        }
        if (!fits) break;
        mem.allocate(id, bytes, dirty);
        ref.allocate(id, bytes, dirty);
        break;
      }
      case 2:
        if (!resident) break;
        mem.touch(id);
        ref.touch(id);
        break;
      case 3:
        if (!resident) break;
        mem.pin(id);
        ref.entries.at(id).pinned = true;
        break;
      case 4:
        if (!resident) break;
        mem.unpin(id);
        ref.entries.at(id).pinned = false;
        break;
      case 5: {
        const std::optional<Eviction> want = ref.evict_lru();
        expect_same_victim(evict_lru(mem), want);
        if (want.has_value()) ++victims;
        break;
      }
      case 6: {
        if (!resident || ref.entries.at(id).pinned) break;
        const Eviction got = mem.evict(id);
        expect_same_victim(got, ref.remove(id));
        ++victims;
        break;
      }
      case 7:
        if (!resident) break;
        mem.release(id);
        (void)ref.remove(id);
        break;
    }
    ASSERT_EQ(lru_vector(mem),
              std::vector<TensorId>(ref.lru.begin(), ref.lru.end()))
        << "step " << step;
    ASSERT_EQ(mem.resident_ids(), ref.resident_ids()) << "step " << step;
    ASSERT_EQ(mem.used(), ref.used) << "step " << step;
    ASSERT_EQ(mem.resident_count(), ref.entries.size());
    for (const auto& [rid, entry] : ref.entries) {
      ASSERT_EQ(mem.pinned(rid), entry.pinned);
      ASSERT_EQ(mem.bytes_of(rid), entry.bytes);
      ASSERT_EQ(mem.is_dirty(rid), entry.dirty);
    }
    max_resident = std::max(max_resident, ref.entries.size());
  }
  // The churn really exercised eviction and filled the device.
  EXPECT_GT(victims, 1000u);
  EXPECT_GT(max_resident, 20u);
}

TEST(DeviceMemory, CopyEvolvesIndependently) {
  DeviceMemory source(1000);
  for (TensorId id = 0; id < 5; ++id) source.allocate(id, 100, id % 2 == 0);
  source.pin(3);

  DeviceMemory copy(source);
  copy.touch(0);
  copy.release(1);
  copy.unpin(3);
  copy.allocate(7, 300, true);

  // The source is untouched by the copy's mutations...
  EXPECT_EQ(lru_vector(source), (std::vector<TensorId>{0, 1, 2, 3, 4}));
  EXPECT_EQ(source.used(), 500u);
  EXPECT_TRUE(source.pinned(3));
  EXPECT_FALSE(source.resident(7));
  // ...and the copy has its own recency order, slots and table.
  EXPECT_EQ(lru_vector(copy), (std::vector<TensorId>{2, 3, 4, 0, 7}));
  EXPECT_EQ(copy.used(), 700u);
  EXPECT_FALSE(copy.pinned(3));

  // Mutating the source afterwards leaves the copy alone too.
  const std::optional<Eviction> ev = evict_lru(source);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->id, 0u);
  EXPECT_TRUE(copy.resident(0));

  // Copy assignment replaces the whole state.
  copy = source;
  EXPECT_EQ(lru_vector(copy), (std::vector<TensorId>{1, 2, 3, 4}));
  EXPECT_EQ(copy.resident_ids(), source.resident_ids());
  EXPECT_EQ(copy.used(), 400u);
  copy.allocate(0, 100, false);
  EXPECT_FALSE(source.resident(0));
}

}  // namespace
}  // namespace micco
