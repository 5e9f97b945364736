// ClusterIndex unit tests: residency deltas (holder order, bitmask, each
// holder's memory slot), the inline holder list and its heap spill, wide
// clusters past the 64-bit inline mask word, the sparse id spill, copies,
// and — via a live ClusterSimulator — holder lists that follow every
// allocation, eviction and failure, and the simulator's invariants at every
// scheduler observation point (after execute, barrier, capacity loss and
// failure): the holder lists name exactly the replicas in each device's
// memory, slot for slot, no alive device holds more than its capacity, and
// the operand and allocation counts add up to the completed tasks. Liveness
// is counted and listed right on clusters past 64 devices.
#include "gpusim/cluster_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <span>
#include <tuple>
#include <vector>

#include "faults/injector.hpp"
#include "gpusim/cluster.hpp"
#include "obs/events.hpp"
#include "sched/micco_scheduler.hpp"
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

using Slot = DeviceMemory::Slot;

/// Holder ids as a vector, so assertions compare element-wise and print.
std::vector<DeviceId> ids(std::span<const DeviceId> holders) {
  return {holders.begin(), holders.end()};
}

/// The slot the unit tests place replica (`id`, `dev`) in. Past 2^31, so a
/// spilled list's block must carry full 32-bit slots.
Slot slot_for(TensorId id, DeviceId dev) {
  return 0x80000000U + static_cast<Slot>(id * 256 + static_cast<TensorId>(dev));
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
  index.place(5, 3, 7);
  index.place(5, 0, 2);
  index.place(5, 6, 7);
  EXPECT_EQ(ids(index.holders(5)), (std::vector<DeviceId>{3, 0, 6}));
  EXPECT_TRUE(index.holds(3, 5));
  EXPECT_TRUE(index.holds(0, 5));
  EXPECT_TRUE(index.holds(6, 5));
  EXPECT_FALSE(index.holds(1, 5));
  const ClusterIndex::HolderList& holders = index.find(5)->holders;
  EXPECT_EQ(holders.slot_on(3), 7U);
  EXPECT_EQ(holders.slot_on(0), 2U);
  EXPECT_EQ(holders.slot_on(6), 7U);

  // Removing the middle holder returns its slot and preserves the relative
  // order of the rest, slots included.
  EXPECT_EQ(index.remove(5, 0), 2U);
  EXPECT_EQ(ids(index.holders(5)), (std::vector<DeviceId>{3, 6}));
  EXPECT_FALSE(index.holds(0, 5));
  EXPECT_EQ(holders.slot_on(3), 7U);
  EXPECT_EQ(holders.slot_on(6), 7U);
}

TEST(ClusterIndex, DoublePlacementAborts) {
  // A second replica of one tensor on one device is a simulator bug: the
  // index is the record that would hide it, so it refuses, as it refuses
  // to remove a replica it never recorded.
  ClusterIndex index(2);
  index.place(1, 0, 0);
  index.place(1, 1, 0);
  EXPECT_DEATH(index.place(1, 0, 1), "double allocation");
  EXPECT_DEATH(index.remove(2, 0), "");
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
  index.place(7, 1, 0);
  EXPECT_EQ(index.remove(7, 1), 0U);
  EXPECT_NE(index.find(7), nullptr);
  EXPECT_FALSE(index.resident_anywhere(7));
  index.place(7, 2, 3);
  EXPECT_EQ(ids(index.holders(7)), (std::vector<DeviceId>{2}));
  EXPECT_EQ(index.find(7)->holders.slot_on(2), 3U);

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
  index.place(huge, 2, 5);
  EXPECT_TRUE(index.holds(2, huge));
  EXPECT_EQ(ids(index.holders(huge)), (std::vector<DeviceId>{2}));
  EXPECT_EQ(index.remove(huge, 2), 5U);
  EXPECT_FALSE(index.resident_anywhere(huge));
  EXPECT_NE(index.find(huge), nullptr);
}

// ------------------------------------------------------------ holder lists

/// Places `id` on each device in turn, in slot_for(id, dev).
void place_all(ClusterIndex& index, TensorId id,
               const std::vector<DeviceId>& devs) {
  for (const DeviceId dev : devs) index.place(id, dev, slot_for(id, dev));
}

/// Removes the replica of `id` on `dev`, which must be in slot_for(id, dev).
void remove_one(ClusterIndex& index, TensorId id, DeviceId dev) {
  EXPECT_EQ(index.remove(id, dev), slot_for(id, dev))
      << "tensor " << id << " dev " << dev;
}

/// The holder list, its slots, its membership bits and the record's spill
/// state agree with `want` (in order), each replica in slot_for(id, dev).
void expect_holders(const ClusterIndex& index, TensorId id,
                    const std::vector<DeviceId>& want) {
  EXPECT_EQ(ids(index.holders(id)), want) << "tensor " << id;
  const ClusterIndex::Residency* res = index.find(id);
  ASSERT_NE(res, nullptr);
  EXPECT_EQ(res->holders.size(), want.size());
  EXPECT_EQ(res->holders.spilled(),
            want.size() > ClusterIndex::HolderList::kInline);
  for (const DeviceId dev : want) {
    EXPECT_EQ(res->holders.slot_on(dev), slot_for(id, dev))
        << "tensor " << id << " dev " << dev;
  }
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
  place_all(index, 3, {5});
  expect_holders(index, 3, {9, 2, 14, 0, 5});  // fifth replica spills
  place_all(index, 3, {11, 1, 7});
  expect_holders(index, 3, {9, 2, 14, 0, 5, 11, 1, 7});
}

TEST(ClusterIndexHolders, InlineRemovalPreservesOrder) {
  ClusterIndex index(8);
  place_all(index, 1, {6, 1, 4, 3});
  remove_one(index, 1, 4);  // middle
  expect_holders(index, 1, {6, 1, 3});
  remove_one(index, 1, 6);  // front
  expect_holders(index, 1, {1, 3});
  remove_one(index, 1, 3);  // back
  expect_holders(index, 1, {1});
  remove_one(index, 1, 1);
  expect_holders(index, 1, {});
}

TEST(ClusterIndexHolders, SpilledRemovalPreservesOrderAndMovesBackInline) {
  ClusterIndex index(16);
  place_all(index, 2, {10, 3, 12, 5, 0, 8, 15});
  remove_one(index, 2, 5);  // middle
  expect_holders(index, 2, {10, 3, 12, 0, 8, 15});
  remove_one(index, 2, 10);  // front
  expect_holders(index, 2, {3, 12, 0, 8, 15});
  remove_one(index, 2, 15);  // back: down to the inline capacity
  expect_holders(index, 2, {3, 12, 0, 8});
  // Inline again; the list keeps working in both directions.
  remove_one(index, 2, 12);
  expect_holders(index, 2, {3, 0, 8});
  place_all(index, 2, {1, 13});
  expect_holders(index, 2, {3, 0, 8, 1, 13});
}

TEST(ClusterIndexHolders, ReplacementAfterLastHolderRemoved) {
  ClusterIndex index(8);
  place_all(index, 4, {2, 5, 7, 0, 1});  // spilled
  for (const DeviceId dev : {5, 0, 2, 7, 1}) remove_one(index, 4, dev);
  expect_holders(index, 4, {});
  EXPECT_FALSE(index.resident_anywhere(4));

  place_all(index, 4, {6});
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

  remove_one(copy, 1, 4);
  place_all(copy, 1, {9});
  remove_one(copy, 2, 3);
  place_all(copy, 2, {68});
  remove_one(source, 2, 0);
  remove_one(source, 2, 69);
  remove_one(source, 2, 5);
  place_all(source, 1, {65});

  expect_holders(source, 1, {4, 66, 65});
  expect_holders(source, 2, {1, 2, 3, 4});
  expect_holders(copy, 1, {66, 9});
  expect_holders(copy, 2, {0, 1, 2, 4, 5, 69, 68});
}

// ---------------------------------------------------------- wide clusters

TEST(ClusterIndex, MaskExtendsPast64Devices) {
  ClusterIndex index(70);
  index.place(9, 63, 0);  // last bit of the inline word
  index.place(9, 64, 1);  // first bit of the first spill word
  index.place(9, 69, 2);
  EXPECT_TRUE(index.holds(63, 9));
  EXPECT_TRUE(index.holds(64, 9));
  EXPECT_TRUE(index.holds(69, 9));
  EXPECT_FALSE(index.holds(65, 9));
  EXPECT_EQ(ids(index.holders(9)), (std::vector<DeviceId>{63, 64, 69}));

  EXPECT_EQ(index.remove(9, 64), 1U);
  EXPECT_FALSE(index.holds(64, 9));
  EXPECT_TRUE(index.holds(63, 9));
  EXPECT_TRUE(index.holds(69, 9));
}

// ------------------------------------ the simulator's invariants hold

/// One replica: tensor, device and the slot of its DeviceMemory node.
using Replica = std::tuple<TensorId, DeviceId, Slot>;

/// The tasks a run has completed, and their operand slots (a self-pair's
/// one operand counts once).
struct Completed {
  std::uint64_t tasks = 0;
  std::uint64_t operand_slots = 0;

  void add(const ContractionTask& t) {
    ++tasks;
    operand_slots += t.a.id == t.b.id ? 1 : 2;
  }
};

/// The simulator's invariants at a point the scheduler can observe the
/// cluster. The holder lists of `tensors` (every tensor the run touched)
/// name exactly the replicas the memories' recency lists hold, slot for
/// slot, and each memory's usage is the sum of its residents' bytes. No
/// alive device holds more than its capacity. Every operand slot of the
/// `done` tasks was either fetched or reused, and every allocation was a
/// fetch or a completed task's output.
void expect_invariants(const ClusterSimulator& sim,
                       const std::vector<TensorId>& tensors,
                       const Completed& done) {
  const ClusterIndex& index = sim.cluster_index();
  std::set<Replica> in_memory;
  int alive = 0;
  for (DeviceId dev = 0; dev < sim.num_devices(); ++dev) {
    const DeviceMemory& memory = sim.device_memory(dev);
    std::uint64_t bytes = 0;
    for (const Slot slot : memory.lru_order()) {
      in_memory.emplace(memory.at(slot).id, dev, slot);
      bytes += memory.at(slot).bytes;
    }
    EXPECT_EQ(memory.used(), bytes) << "dev " << dev;
    if (sim.device_alive(dev)) {
      EXPECT_LE(sim.memory_used(dev), sim.memory_capacity(dev))
          << "dev " << dev;
      ++alive;
    }
  }
  EXPECT_EQ(sim.num_alive_devices(), alive);

  const ExecutionMetrics& metrics = sim.metrics();
  EXPECT_EQ(metrics.fetched_operands + metrics.reused_operands,
            done.operand_slots);
  EXPECT_EQ(metrics.allocations, metrics.fetched_operands + done.tasks);

  std::set<Replica> in_index;
  for (const TensorId id : tensors) {
    const ClusterIndex::Residency* res = index.find(id);
    if (res == nullptr) continue;
    for (const DeviceId dev : res->holders) {
      in_index.emplace(id, dev, res->holders.slot_on(dev));
    }
    for (DeviceId dev = 0; dev < sim.num_devices(); ++dev) {
      const auto on_dev = in_memory.lower_bound(Replica{id, dev, 0});
      const bool held = on_dev != in_memory.end() &&
                        std::get<0>(*on_dev) == id &&
                        std::get<1>(*on_dev) == dev;
      EXPECT_EQ(index.holds(dev, id), held)
          << "tensor " << id << " dev " << dev;
    }
  }
  EXPECT_EQ(in_index, in_memory);
}

TEST(ClusterInvariants, TracksExecuteBarrierAndFailure) {
  // Devices of five tensors each, so later tasks evict; a capacity-loss
  // fault takes one tensor's worth from device 2 once it is full, and
  // device 1 fails after the barrier. The last task is a self-pair.
  const std::uint64_t unit = desc(0).bytes();
  ClusterConfig config;
  config.num_devices = 3;
  config.device_capacity_bytes = 5 * unit;
  ClusterSimulator sim(config);
  FaultPlan plan;
  plan.capacity_losses.push_back(CapacityLoss{2, unit, 1e-9});
  FaultInjector injector(plan);
  sim.set_fault_injector(&injector);
  std::vector<TensorId> ids;
  for (TensorId id = 1; id <= 15; ++id) ids.push_back(id);
  Completed done;

  expect_invariants(sim, ids, done);
  for (const auto& [t, dev] : {std::pair{task(1, 2, 3), 0},
                               {task(1, 4, 5), 1},  // replica of 1 on dev 1
                               {task(3, 4, 6), 0},  // dev 0 full
                               {task(6, 5, 7), 0},  // evicts on dev 0
                               {task(1, 2, 8), 2},
                               {task(8, 4, 9), 2},  // dev 2 full
                               {task(9, 3, 10), 2},  // capacity loss
                               {task(5, 7, 11), 1},
                               {task(10, 11, 12), 1}}) {
    ASSERT_TRUE(sim.execute(t, dev).ok());
    done.add(t);
    expect_invariants(sim, ids, done);
  }
  sim.barrier();
  expect_invariants(sim, ids, done);

  sim.fail_device(1, sim.busy_time(1));
  expect_invariants(sim, ids, done);
  EXPECT_FALSE(sim.device_alive(1));
  EXPECT_EQ(sim.num_alive_devices(), 2);
  for (const ContractionTask& t : {task(2, 13, 14), task(14, 14, 15)}) {
    ASSERT_TRUE(sim.execute(t, 0).ok());
    done.add(t);
    expect_invariants(sim, ids, done);
  }

  EXPECT_GT(sim.metrics().evictions, 0U);
  EXPECT_EQ(sim.metrics().capacity_faults, 1U);
  EXPECT_EQ(sim.memory_capacity(2), 4 * unit);
  EXPECT_EQ(sim.metrics().devices_lost, 1U);
}

TEST(ClusterInvariants, FailureRemovesEveryResidentTensor) {
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

TEST(ClusterInvariants, FailuresPast64DevicesLeaveSurvivorsAscending) {
  // 130 devices: the casualties are the first device past 63 and the last
  // one, and device 64 held a produced tensor when it failed.
  ClusterConfig config;
  config.num_devices = 130;
  ClusterSimulator sim(config);
  EXPECT_EQ(sim.num_alive_devices(), 130);
  ASSERT_TRUE(sim.execute(task(1, 2, 3), 64).ok());
  EXPECT_EQ(sim.fail_device(64, sim.busy_time(64)),
            std::vector<TensorId>{3});
  EXPECT_TRUE(sim.fail_device(129, 0.0).empty());
  EXPECT_EQ(sim.num_alive_devices(), 128);
  // A second failure of a dead device loses nothing and counts nothing.
  EXPECT_TRUE(sim.fail_device(64, sim.busy_time(64)).empty());
  EXPECT_EQ(sim.num_alive_devices(), 128);
  EXPECT_EQ(sim.metrics().devices_lost, 2U);

  // A TwoNew pair: every survivor passes the TwoNew tier, so MICCO's
  // decision logs the 128 survivors as its candidates, ascending.
  obs::MemoryEventSink sink;
  obs::Telemetry telemetry;
  telemetry.sink = &sink;
  MiccoScheduler sched;
  sched.set_telemetry(&telemetry);
  const ContractionTask pair = task(4, 5, 6);
  sched.begin_vector(VectorWorkload{{pair}}, sim);
  (void)sched.assign(pair, sim);
  std::vector<DeviceId> survivors;
  for (DeviceId dev = 0; dev < 130; ++dev) {
    if (dev != 64 && dev != 129) survivors.push_back(dev);
  }
  ASSERT_EQ(sink.decisions().size(), 1U);
  EXPECT_EQ(sink.decisions()[0].candidates, survivors);
}

}  // namespace
}  // namespace micco
