// ClusterIndex unit tests: residency deltas (holder order, bitmask), the
// inline holder list and its heap spill, wide clusters past the 64-bit
// inline mask word, the sparse id spill, copies, and — via a live
// ClusterSimulator — holder lists that follow every allocation, eviction
// and failure, and the contract that the per-device mirrors and the
// residency sets always agree with the virtual ClusterView getters at every
// scheduler observation point (after execute, barrier and failure).
#include "gpusim/cluster_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "gpusim/cluster.hpp"
#include "workload/task.hpp"

namespace micco {
namespace {

TensorDesc desc(TensorId id, std::int64_t extent = 16) {
  return TensorDesc{id, 2, extent, 1};
}

ContractionTask task(TensorId a, TensorId b, TensorId out,
                     std::int64_t extent = 16) {
  return ContractionTask{desc(a, extent), desc(b, extent), desc(out, extent)};
}

/// Holder ids as a vector, so assertions compare element-wise and print.
std::vector<DeviceId> ids(std::span<const DeviceId> holders) {
  return {holders.begin(), holders.end()};
}

/// Asserts that each of `tensors` is held by exactly `holders`.
void expect_holders(const ClusterIndex& index,
                    std::initializer_list<TensorId> tensors,
                    const std::vector<DeviceId>& holders) {
  for (const TensorId id : tensors) {
    EXPECT_EQ(ids(index.holders(id)), holders) << "tensor " << id;
  }
}

// ------------------------------------------------------------ residency core

TEST(ClusterIndex, HoldersKeepInsertionOrder) {
  ClusterIndex index(8);
  index.place(5, 3);
  index.place(5, 0);
  index.place(5, 6);
  EXPECT_EQ(ids(index.holders(5)), (std::vector<DeviceId>{3, 0, 6}));
  EXPECT_TRUE(index.holds(3, 5));
  EXPECT_TRUE(index.holds(0, 5));
  EXPECT_TRUE(index.holds(6, 5));
  EXPECT_FALSE(index.holds(1, 5));

  // Removing the middle holder preserves the relative order of the rest.
  index.remove(5, 0);
  EXPECT_EQ(ids(index.holders(5)), (std::vector<DeviceId>{3, 6}));
  EXPECT_FALSE(index.holds(0, 5));
}

TEST(ClusterIndex, NeverPlacedTensorHasEmptyState) {
  ClusterIndex index(4);
  EXPECT_EQ(index.find(42), nullptr);
  EXPECT_TRUE(index.holders(42).empty());
  EXPECT_FALSE(index.resident_anywhere(42));
  EXPECT_FALSE(index.holds(0, 42));
}

TEST(ClusterIndex, EntrySurvivesLastRemovalAndReplacement) {
  // The entry survives the last removal with an empty holder list, and a
  // re-placement starts a new holder list.
  ClusterIndex index(4);
  index.place(7, 1);
  index.remove(7, 1);
  EXPECT_NE(index.find(7), nullptr);
  EXPECT_FALSE(index.resident_anywhere(7));
  index.place(7, 2);
  EXPECT_EQ(ids(index.holders(7)), (std::vector<DeviceId>{2}));

  // The same through the simulator: on a device that holds three tensors,
  // every task evicts earlier ones and re-fetches evicted operands, and
  // the residency changes (allocations + evictions) only ever grow.
  ClusterConfig config;
  config.num_devices = 1;
  config.device_capacity_bytes = 3 * desc(0).bytes();
  ClusterSimulator sim(config);
  std::uint64_t last = 0;
  for (const ContractionTask& t :
       {task(1, 2, 3), task(4, 5, 6), task(1, 4, 7), task(2, 5, 8)}) {
    ASSERT_TRUE(sim.execute(t, 0).ok());
    expect_holders(sim.cluster_index(), {t.a.id, t.b.id, t.out.id}, {0});
    const std::uint64_t changes =
        sim.metrics().allocations + sim.metrics().evictions;
    EXPECT_GT(changes, last);
    last = changes;
  }
}

TEST(ClusterIndex, EveryResidencyChangeShowsInHoldersAndMetrics) {
  // Two fetches and an output, then three evictions and three
  // placements.
  ClusterConfig config;
  config.num_devices = 4;
  config.device_capacity_bytes = 3 * desc(0).bytes();
  ClusterSimulator sim(config);
  const ClusterIndex& index = sim.cluster_index();
  ASSERT_TRUE(sim.execute(task(1, 2, 3), 0).ok());
  EXPECT_EQ(sim.metrics().allocations, 3u);
  EXPECT_EQ(sim.metrics().evictions, 0u);
  expect_holders(index, {1, 2, 3}, {0});
  ASSERT_TRUE(sim.execute(task(4, 5, 6), 0).ok());
  EXPECT_EQ(sim.metrics().allocations, 6u);
  EXPECT_EQ(sim.metrics().evictions, 3u);
  expect_holders(index, {1, 2, 3}, {});
  expect_holders(index, {4, 5, 6}, {0});
}

TEST(ClusterIndex, SparseSpillHandlesHugeIds) {
  ClusterIndex index(4);
  const TensorId huge = (1ULL << 20) + 17;  // past the dense table
  index.place(huge, 2);
  EXPECT_TRUE(index.holds(2, huge));
  EXPECT_EQ(ids(index.holders(huge)), (std::vector<DeviceId>{2}));
  index.remove(huge, 2);
  EXPECT_FALSE(index.resident_anywhere(huge));
  EXPECT_NE(index.find(huge), nullptr);
}

// ------------------------------------------------------------ holder lists

/// Places `id` on each device in turn.
void place_all(ClusterIndex& index, TensorId id,
               const std::vector<DeviceId>& devs) {
  for (const DeviceId dev : devs) index.place(id, dev);
}

/// The holder list, its membership bits and the record's spill state agree
/// with `want` (in order).
void expect_holders(const ClusterIndex& index, TensorId id,
                    const std::vector<DeviceId>& want) {
  EXPECT_EQ(ids(index.holders(id)), want) << "tensor " << id;
  const ClusterIndex::Residency* res = index.find(id);
  ASSERT_NE(res, nullptr);
  EXPECT_EQ(res->holders.size(), want.size());
  EXPECT_EQ(res->holders.spilled(),
            want.size() > ClusterIndex::HolderList::kInline);
  for (DeviceId dev = 0; dev < index.num_devices(); ++dev) {
    const bool member = std::find(want.begin(), want.end(), dev) != want.end();
    EXPECT_EQ(index.holds(dev, id), member) << "tensor " << id << " dev "
                                            << dev;
  }
}

TEST(ClusterIndexHolders, SpillPastInlineCapacityKeepsOrder) {
  static_assert(ClusterIndex::HolderList::kInline == 4);
  ClusterIndex index(16);
  place_all(index, 3, {9, 2, 14, 0});
  expect_holders(index, 3, {9, 2, 14, 0});  // exactly full, still inline
  index.place(3, 5);
  expect_holders(index, 3, {9, 2, 14, 0, 5});  // fifth replica spills
  place_all(index, 3, {11, 1, 7});
  expect_holders(index, 3, {9, 2, 14, 0, 5, 11, 1, 7});
}

TEST(ClusterIndexHolders, InlineRemovalPreservesOrder) {
  ClusterIndex index(8);
  place_all(index, 1, {6, 1, 4, 3});
  index.remove(1, 4);  // middle
  expect_holders(index, 1, {6, 1, 3});
  index.remove(1, 6);  // front
  expect_holders(index, 1, {1, 3});
  index.remove(1, 3);  // back
  expect_holders(index, 1, {1});
  index.remove(1, 1);
  expect_holders(index, 1, {});
}

TEST(ClusterIndexHolders, SpilledRemovalPreservesOrderAndMovesBackInline) {
  ClusterIndex index(16);
  place_all(index, 2, {10, 3, 12, 5, 0, 8, 15});
  index.remove(2, 5);  // middle
  expect_holders(index, 2, {10, 3, 12, 0, 8, 15});
  index.remove(2, 10);  // front
  expect_holders(index, 2, {3, 12, 0, 8, 15});
  index.remove(2, 15);  // back: down to the inline capacity
  expect_holders(index, 2, {3, 12, 0, 8});
  // Inline again; the list keeps working in both directions.
  index.remove(2, 12);
  expect_holders(index, 2, {3, 0, 8});
  place_all(index, 2, {1, 13});
  expect_holders(index, 2, {3, 0, 8, 1, 13});
}

TEST(ClusterIndexHolders, ReplacementAfterLastHolderRemoved) {
  ClusterIndex index(8);
  place_all(index, 4, {2, 5, 7, 0, 1});  // spilled
  for (const DeviceId dev : {5, 0, 2, 7, 1}) index.remove(4, dev);
  expect_holders(index, 4, {});
  EXPECT_FALSE(index.resident_anywhere(4));

  index.place(4, 6);
  expect_holders(index, 4, {6});
  EXPECT_TRUE(index.resident_anywhere(4));
  place_all(index, 4, {3, 2, 0, 5});
  expect_holders(index, 4, {6, 3, 2, 0, 5});
}

TEST(ClusterIndexHolders, CopyEvolvesIndependentlyOfSource) {
  ClusterIndex source(70);
  place_all(source, 1, {4, 66});                  // inline, one wide device
  place_all(source, 2, {0, 1, 2, 3, 4, 5, 69});  // spilled
  ClusterIndex copy = source;
  expect_holders(copy, 1, {4, 66});
  expect_holders(copy, 2, {0, 1, 2, 3, 4, 5, 69});

  copy.remove(1, 4);
  copy.place(1, 9);
  copy.remove(2, 3);
  copy.place(2, 68);
  source.remove(2, 0);
  source.remove(2, 69);
  source.remove(2, 5);
  source.place(1, 65);

  expect_holders(source, 1, {4, 66, 65});
  expect_holders(source, 2, {1, 2, 3, 4});
  expect_holders(copy, 1, {66, 9});
  expect_holders(copy, 2, {0, 1, 2, 4, 5, 69, 68});
}

// ---------------------------------------------------------- wide clusters

TEST(ClusterIndex, MaskExtendsPast64Devices) {
  ClusterIndex index(70);
  index.place(9, 63);   // last bit of the inline word
  index.place(9, 64);   // first bit of the first spill word
  index.place(9, 69);
  EXPECT_TRUE(index.holds(63, 9));
  EXPECT_TRUE(index.holds(64, 9));
  EXPECT_TRUE(index.holds(69, 9));
  EXPECT_FALSE(index.holds(65, 9));
  EXPECT_EQ(ids(index.holders(9)), (std::vector<DeviceId>{63, 64, 69}));

  index.remove(9, 64);
  EXPECT_FALSE(index.holds(64, 9));
  EXPECT_TRUE(index.holds(63, 9));
  EXPECT_TRUE(index.holds(69, 9));
}

TEST(ClusterIndex, AliveMaskSpansMultipleWordsAscending) {
  ClusterIndex index(130);
  EXPECT_EQ(index.num_alive(), 130);
  ASSERT_EQ(index.alive_mask().size(), 3u);  // ceil(130 / 64)
  for (DeviceId dev = 0; dev < 130; ++dev) EXPECT_TRUE(index.alive(dev));
  // The last word only carries bits for the two devices past 128.
  EXPECT_EQ(index.alive_mask()[2], 0x3ULL);

  index.set_alive(64, false);
  index.set_alive(129, false);
  EXPECT_EQ(index.num_alive(), 128);
  EXPECT_FALSE(index.alive(64));
  EXPECT_FALSE(index.alive(129));
  EXPECT_TRUE(index.alive(63));
  // Killing a dead device twice must not double-decrement.
  index.set_alive(64, false);
  EXPECT_EQ(index.num_alive(), 128);

  // Ascending scan over the mask words enumerates exactly the alive set —
  // this is the enumeration order of the scheduler's tier II' / fallback.
  std::vector<DeviceId> scanned;
  const std::vector<std::uint64_t>& words = index.alive_mask();
  for (std::size_t w = 0; w < words.size(); ++w) {
    for (std::size_t bit = 0; bit < 64; ++bit) {
      if (((words[w] >> bit) & 1ULL) != 0) {
        scanned.push_back(static_cast<DeviceId>(w * 64 + bit));
      }
    }
  }
  EXPECT_EQ(scanned.size(), 128u);
  EXPECT_FALSE(std::binary_search(scanned.begin(), scanned.end(), 64));
  EXPECT_TRUE(std::is_sorted(scanned.begin(), scanned.end()));

  // Revival flips the bit back on and restores the count.
  index.set_alive(64, true);
  EXPECT_EQ(index.num_alive(), 129);
  EXPECT_TRUE(index.alive(64));
}

// ------------------------------------------------ mirrors track the cluster

/// The index the simulator maintains must agree with the virtual getters at
/// every point the scheduler can observe the cluster.
void expect_index_consistent(const ClusterSimulator& sim,
                             const std::vector<TensorId>& tensors) {
  const ClusterIndex& index = sim.cluster_index();
  for (DeviceId dev = 0; dev < sim.num_devices(); ++dev) {
    EXPECT_EQ(index.memory_used(dev), sim.memory_used(dev)) << "dev " << dev;
    EXPECT_EQ(index.memory_capacity(dev), sim.memory_capacity(dev));
    EXPECT_EQ(index.alive(dev), sim.device_alive(dev)) << "dev " << dev;
    EXPECT_EQ(index.busy(dev), sim.busy_time(dev)) << "dev " << dev;
  }
  int alive = 0;
  for (DeviceId dev = 0; dev < sim.num_devices(); ++dev) {
    if (sim.device_alive(dev)) ++alive;
  }
  EXPECT_EQ(index.num_alive(), alive);
  for (const TensorId id : tensors) {
    EXPECT_EQ(ids(index.holders(id)), ids(sim.devices_holding(id)))
        << "tensor " << id;
    for (DeviceId dev = 0; dev < sim.num_devices(); ++dev) {
      EXPECT_EQ(index.holds(dev, id), sim.resident_on(dev, id))
          << "tensor " << id << " dev " << dev;
    }
  }
}

TEST(ClusterIndexMirror, TracksExecuteBarrierAndFailure) {
  ClusterConfig config;
  config.num_devices = 3;
  config.device_capacity_bytes = 1ULL << 20;
  ClusterSimulator sim(config);
  const std::vector<TensorId> ids{1, 2, 3, 4, 5, 6};

  expect_index_consistent(sim, ids);

  ASSERT_TRUE(sim.execute(task(1, 2, 3), 0).ok());
  expect_index_consistent(sim, ids);
  ASSERT_TRUE(sim.execute(task(1, 4, 5), 1).ok());  // replica of 1 on dev 1
  expect_index_consistent(sim, ids);

  sim.barrier();
  expect_index_consistent(sim, ids);

  sim.fail_device(1, 0.0);
  expect_index_consistent(sim, ids);
  EXPECT_FALSE(sim.cluster_index().alive(1));
}

TEST(ClusterIndexMirror, FailureRemovesEveryResidentTensor) {
  ClusterConfig config;
  config.num_devices = 2;
  ClusterSimulator sim(config);
  ASSERT_TRUE(sim.execute(task(10, 11, 12), 0).ok());

  const ClusterIndex& index = sim.cluster_index();
  ASSERT_EQ(sim.metrics().allocations, 3u);  // two operand fetches, output
  expect_holders(index, {10, 11, 12}, {0});

  sim.fail_device(0, 0.0);
  // Every tensor the dead device held lost that holder.
  expect_holders(index, {10, 11, 12}, {});
  EXPECT_FALSE(index.resident_anywhere(10));
  EXPECT_FALSE(index.resident_anywhere(12));
}

}  // namespace
}  // namespace micco
