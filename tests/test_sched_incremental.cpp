// The incremental-scheduler equivalence contract (DESIGN.md §9): the
// delta-maintained hot path (--sched-incremental=on, the default) and the
// recompute-from-view reference path must produce byte-identical decision
// logs, cluster-event logs and run reports — the only permitted report
// difference is the pattern-cache counter pair, which is registered only on
// the incremental path. Exercised across the three Table VI meson
// workloads (also at 200 % memory oversubscription, where Alg. 2's
// eviction-sensitive ordering decides), a fault-recovery sweep, the
// reuse-tier visit ordering and clusters past the 64-bit mask word. Plus
// the PatternCache unit suite: epoch-keyed hits, invalidation on eviction,
// discard and device failure, and counter export.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "faults/fault_plan.hpp"
#include "gpusim/cluster.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/telemetry.hpp"
#include "redstar/correlator.hpp"
#include "sched/micco_scheduler.hpp"
#include "sched/reuse_pattern.hpp"
#include "sched/scheduler.hpp"
#include "workload/synthetic.hpp"

namespace micco {
namespace {

/// Restores the default (incremental on) on scope exit so one test's mode
/// never leaks into another.
class ScopedMode {
 public:
  explicit ScopedMode(bool on) { set_sched_incremental(on); }
  ~ScopedMode() { set_sched_incremental(true); }
};

std::string decisions_dump(const obs::MemoryEventSink& sink) {
  std::string out;
  for (const obs::DecisionEvent& e : sink.decisions()) {
    out += e.to_json().dump();
    out += '\n';
  }
  return out;
}

std::string cluster_events_dump(const obs::MemoryEventSink& sink) {
  std::string out;
  for (const obs::ClusterEvent& e : sink.cluster_events()) {
    out += e.to_json().dump();
    out += '\n';
  }
  return out;
}

/// Deep copy with the two pattern-cache counter keys removed — the single
/// intentional report difference between the modes.
obs::JsonValue strip_cache_counters(const obs::JsonValue& v) {
  using obs::JsonValue;
  switch (v.kind()) {
    case JsonValue::Kind::kObject: {
      JsonValue out = JsonValue::object();
      for (const auto& [key, value] : v.members()) {
        if (key == obs::names::kSchedPatternCacheHits ||
            key == obs::names::kSchedPatternCacheMisses) {
          continue;
        }
        out.set(key, strip_cache_counters(value));
      }
      return out;
    }
    case JsonValue::Kind::kArray: {
      JsonValue out = JsonValue::array();
      for (const JsonValue& item : v.items()) {
        out.push_back(strip_cache_counters(item));
      }
      return out;
    }
    default:
      return v;
  }
}

bool report_mentions_cache(const obs::JsonValue& report) {
  return report.dump().find(obs::names::kSchedPatternCacheHits) !=
         std::string::npos;
}

struct ModeRun {
  std::string decisions;
  std::string cluster_events;
  std::string stripped_report;
  bool cache_counters_present = false;
  /// Decisions taken under the memory-eviction-sensitive policy, and the
  /// evictions the run paid (both from the report).
  std::int64_t evict_risk_decisions = 0;
  std::int64_t evictions = 0;
};

ModeRun run_mode(bool incremental, const WorkloadStream& stream, int gpus,
                 const FaultPlan* plan = nullptr,
                 PairOrdering ordering = PairOrdering::kAsGiven,
                 std::uint64_t capacity = 256ull << 20) {
  const ScopedMode mode(incremental);
  obs::MemoryEventSink sink;
  obs::Telemetry telemetry;
  telemetry.sink = &sink;

  MiccoSchedulerOptions options;
  options.bounds = ReuseBounds{1, 1, 1};  // tiers admit *and* overflow
  MiccoScheduler scheduler(options);

  ClusterConfig cluster;
  cluster.num_devices = gpus;
  cluster.device_capacity_bytes = capacity;

  RunOptions run_options;
  run_options.telemetry = &telemetry;
  run_options.faults = plan;
  run_options.ordering = ordering;
  RunResult result = run_stream(stream, scheduler, cluster, run_options);
  EXPECT_TRUE(result.completed) << result.error;
  result.scheduling_overhead_ms = 0.0;  // the one wall-clock report field

  ModeRun out;
  out.decisions = decisions_dump(sink);
  out.cluster_events = cluster_events_dump(sink);
  const obs::JsonValue report = make_run_report(result, telemetry);
  out.cache_counters_present = report_mentions_cache(report);
  out.stripped_report = strip_cache_counters(report).dump();
  out.evict_risk_decisions = report.at("registry")
                                 .at("counters")
                                 .at(obs::names::kSchedEvictRisk)
                                 .as_int();
  out.evictions = report.at("metrics").at("evictions").as_int();
  return out;
}

/// Runs both modes and compares them; returns the incremental run.
ModeRun expect_modes_identical(const WorkloadStream& stream, int gpus,
                               const FaultPlan* plan = nullptr,
                               PairOrdering ordering = PairOrdering::kAsGiven,
                               std::uint64_t capacity = 256ull << 20) {
  const ModeRun on = run_mode(true, stream, gpus, plan, ordering, capacity);
  const ModeRun off = run_mode(false, stream, gpus, plan, ordering, capacity);
  EXPECT_FALSE(on.decisions.empty());
  EXPECT_EQ(on.decisions, off.decisions);
  EXPECT_EQ(on.cluster_events, off.cluster_events);
  EXPECT_EQ(on.stripped_report, off.stripped_report);
  // The cache pair is the single intentional report difference.
  EXPECT_TRUE(on.cache_counters_present);
  EXPECT_FALSE(off.cache_counters_present);
  return on;
}

// ------------------------------------------------------- end-to-end identity

/// Table VI shapes shrunk the same way test_integration.cpp does (fewer
/// time slices, smaller extent/batch): the diagram structure — and with it
/// the residency/reuse behaviour the two paths must agree on — is
/// unchanged, only the simulated tensor volume shrinks.
redstar::CorrelatorSpec shrunk(redstar::CorrelatorSpec spec) {
  spec.time_slices = 3;
  spec.extent = 32;
  spec.batch = 2;
  return spec;
}

TEST(SchedIncremental, A1RhopiByteIdenticalAcrossModes) {
  const redstar::CorrelatorWorkload w =
      redstar::build_workload(shrunk(redstar::make_a1_rhopi()));
  expect_modes_identical(w.stream, 8);
}

TEST(SchedIncremental, F0d2ByteIdenticalAcrossModes) {
  const redstar::CorrelatorWorkload w =
      redstar::build_workload(shrunk(redstar::make_f0d2()));
  expect_modes_identical(w.stream, 8);
}

TEST(SchedIncremental, F0d4ByteIdenticalAcrossModes) {
  const redstar::CorrelatorWorkload w =
      redstar::build_workload(shrunk(redstar::make_f0d4()));
  expect_modes_identical(w.stream, 8);
}

/// The correlator at Fig. 11's 200 % oversubscription on 8 GPUs: capacity
/// from capacity_for_oversubscription, floored at eight operands so one
/// task's working set always fits. Every candidate device is then short of
/// memory for most pairs, so Alg. 2 orders by free memory first — the
/// branch the 256 MiB runs above never reach.
void expect_oversubscribed_modes_identical(redstar::CorrelatorSpec spec) {
  const redstar::CorrelatorWorkload w = redstar::build_workload(shrunk(spec));
  const std::uint64_t capacity = capacity_for_oversubscription(
      w.stream, 8, 2.0, 8 * w.stream.vectors[0].tasks[0].a.bytes());
  const ModeRun on = expect_modes_identical(w.stream, 8, nullptr,
                                            PairOrdering::kAsGiven, capacity);
  EXPECT_GT(on.evict_risk_decisions, 0);
  EXPECT_GT(on.evictions, 0);
}

TEST(SchedIncremental, OversubscribedF0d4ByteIdenticalAcrossModes) {
  expect_oversubscribed_modes_identical(redstar::make_f0d4());
}

TEST(SchedIncremental, OversubscribedF0d2ByteIdenticalAcrossModes) {
  expect_oversubscribed_modes_identical(redstar::make_f0d2());
}

TEST(SchedIncremental, OversubscribedNnSystemByteIdenticalAcrossModes) {
  // The meson correlators' tensors are all one size, so full candidates
  // tie on free memory and the busy-time tie-break decides either way. The
  // two-nucleon system mixes rank-3 and rank-2 tensors: free memory differs
  // between candidates and the free-memory-first ordering itself decides
  // (swapping the key order changes this run's schedule, not the others').
  expect_oversubscribed_modes_identical(redstar::make_nn_system());
}

SyntheticConfig synth(int vectors, int vector_size, std::uint64_t seed) {
  SyntheticConfig c;
  c.num_vectors = vectors;
  c.vector_size = vector_size;
  c.tensor_extent = 64;
  c.batch = 2;
  c.repeated_rate = 0.5;
  c.seed = seed;
  return c;
}

TEST(SchedIncremental, ReuseTierOrderingByteIdenticalAcrossModes) {
  // kReuseTierFirst classifies every pair up front (through the epoch-keyed
  // cache on the incremental path) to sort the visit order — the ordering
  // itself must come out identical.
  const WorkloadStream stream = generate_synthetic(synth(5, 24, 11));
  expect_modes_identical(stream, 4, nullptr, PairOrdering::kReuseTierFirst);
}

TEST(SchedIncremental, FaultSweepByteIdenticalAcrossModes) {
  const WorkloadStream stream = generate_synthetic(synth(6, 24, 7));
  FaultPlan plan;
  plan.device_failures.push_back(DeviceFailure{2, 0.001});
  plan.transfer.probability = 0.05;
  plan.transfer.seed = 99;
  expect_modes_identical(stream, 4, &plan);
}

TEST(SchedIncremental, WideClustersByteIdenticalAcrossModes) {
  // 64 exactly fills the inline mask word; 70 exercises the spill words in
  // both the residency masks and the alive-mask fallback scan.
  const WorkloadStream stream = generate_synthetic(synth(6, 96, 21));
  expect_modes_identical(stream, 64);
  expect_modes_identical(stream, 70);
}

TEST(SchedIncremental, WideClusterFailuresByteIdenticalAcrossModes) {
  // Failing device 65 flips a bit in the second alive-mask word mid-run;
  // the recovery path must keep the two modes in lockstep.
  const WorkloadStream stream = generate_synthetic(synth(6, 96, 22));
  FaultPlan plan;
  plan.device_failures.push_back(DeviceFailure{65, 0.001});
  plan.device_failures.push_back(DeviceFailure{3, 0.002});
  expect_modes_identical(stream, 70, &plan);
}

// ------------------------------------------------------ recorded intervals

/// What a run decided, decision by decision, and what it cost: everything a
/// triple inside a recorded bound interval must repeat. Candidate lists and
/// the logged bound value may differ; these may not.
struct DecisionTrace {
  std::vector<std::array<int, 4>> decisions;  ///< chosen, tier, fallback, risk
  std::vector<std::uint64_t> metric_bits;     ///< ExecutionMetrics, bitwise
  BoundInterval box;
  std::int64_t evict_risk_decisions = 0;

  bool operator==(const DecisionTrace& other) const {
    return decisions == other.decisions && metric_bits == other.metric_bits;
  }
};

std::vector<std::uint64_t> metric_bits(const ExecutionMetrics& m) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  return {bits(m.makespan_s),      m.total_flops,
          m.h2d_transfers,         m.h2d_bytes,
          m.p2p_transfers,         m.p2p_bytes,
          m.internode_transfers,   m.internode_bytes,
          m.writeback_bytes,       m.allocations,
          m.evictions,             m.dirty_evictions,
          m.eviction_refetch_bytes, m.reused_operands,
          m.fetched_operands,      bits(m.barrier_idle_s),
          bits(m.kernel_time_s),   bits(m.transfer_time_s),
          bits(m.gflops())};
}

DecisionTrace traced_run(const WorkloadStream& stream, ReuseBounds bounds,
                         const ClusterConfig& cluster, bool sensitive,
                         BoundsProvider* provider = nullptr) {
  obs::MemoryEventSink sink;
  obs::Telemetry telemetry;
  telemetry.sink = &sink;
  MiccoSchedulerOptions options;
  options.bounds = bounds;
  options.eviction_sensitive = sensitive;
  options.record_bound_interval = true;
  MiccoScheduler scheduler(options);
  RunOptions run_options;
  run_options.telemetry = &telemetry;
  run_options.bounds = provider;
  const RunResult result = run_stream(stream, scheduler, cluster, run_options);
  EXPECT_TRUE(result.completed) << result.error;

  DecisionTrace trace;
  for (const obs::DecisionEvent& e : sink.decisions()) {
    trace.decisions.push_back(
        {e.chosen, e.bound_tier, e.fallback ? 1 : 0, e.evict_risk ? 1 : 0});
    trace.evict_risk_decisions += e.evict_risk ? 1 : 0;
  }
  trace.metric_bits = metric_bits(result.metrics);
  trace.box = scheduler.bound_interval();
  return trace;
}

TEST(BoundInterval, EveryGridTripleInsideABoxRepeatsTheRun) {
  // Brute force over small seeded streams on 2-8 GPUs, roomy and at 200 %
  // oversubscription (so Alg. 2's risk flag fires), with the eviction-
  // sensitive policy on and off: every grid triple inside another triple's
  // recorded box must make the same decisions — device, tier, fallback and
  // risk flag, one by one — and bit-identical ExecutionMetrics.
  const std::vector<ReuseBounds> grid = bound_grid(2);
  std::size_t pairs_checked = 0;
  std::int64_t risky_decisions = 0;
  for (const int gpus : {2, 4, 8}) {
    for (const DataDistribution dist :
         {DataDistribution::kUniform, DataDistribution::kGaussian}) {
      SyntheticConfig cfg = synth(6, 16, 40 + static_cast<std::uint64_t>(gpus));
      cfg.repeated_rate = 0.75;
      cfg.distribution = dist;
      const WorkloadStream stream = generate_synthetic(cfg);
      for (const bool oversubscribed : {false, true}) {
        ClusterConfig cluster;
        cluster.num_devices = gpus;
        if (oversubscribed) {
          cluster.device_capacity_bytes = capacity_for_oversubscription(
              stream, gpus, 2.0, 8 * stream.vectors[0].tasks[0].a.bytes());
        }
        for (const bool sensitive : {true, false}) {
          SCOPED_TRACE(testing::Message()
                       << gpus << " GPUs, " << to_string(dist)
                       << (oversubscribed ? ", 200 %" : ", roomy")
                       << (sensitive ? ", sensitive" : ", insensitive"));
          std::vector<DecisionTrace> traces;
          for (const ReuseBounds& bounds : grid) {
            traces.push_back(traced_run(stream, bounds, cluster, sensitive));
            EXPECT_TRUE(traces.back().box.contains(bounds));
            risky_decisions += traces.back().evict_risk_decisions;
          }
          for (std::size_t i = 0; i < grid.size(); ++i) {
            for (std::size_t j = 0; j < grid.size(); ++j) {
              if (i == j || !traces[i].box.contains(grid[j])) continue;
              ++pairs_checked;
              EXPECT_TRUE(traces[i] == traces[j])
                  << grid[j].to_string() << " lies in the box of "
                  << grid[i].to_string();
            }
          }
        }
      }
    }
  }
  EXPECT_GT(pairs_checked, 500u);  // the boxes do cover other triples
  EXPECT_GT(risky_decisions, 0);   // and the risk flag was exercised
}

TEST(BoundInterval, ReferencePathReportsThePoint) {
  const WorkloadStream stream = generate_synthetic(synth(6, 16, 5));
  ClusterConfig cluster;
  cluster.num_devices = 4;
  const ReuseBounds bounds{1, 0, 2};
  const DecisionTrace incremental = traced_run(stream, bounds, cluster, true);
  EXPECT_NE(incremental.box, BoundInterval::point(bounds));

  const ScopedMode mode(false);
  const DecisionTrace reference = traced_run(stream, bounds, cluster, true);
  EXPECT_EQ(reference.box, BoundInterval::point(bounds));
  EXPECT_TRUE(reference == incremental);
}

TEST(BoundInterval, BoundsThatChangeMidRunCollapseToThePoint) {
  // A provider answering with one fixed triple leaves the box as recorded
  // without it; one that changes the triple after the first decision leaves
  // no single triple that reproduces the run.
  class Alternating final : public BoundsProvider {
   public:
    ReuseBounds bounds_for(const DataCharacteristics&) override {
      return (calls_++ % 2 == 0) ? ReuseBounds{0, 0, 0} : ReuseBounds{2, 2, 2};
    }

   private:
    int calls_ = 0;
  };
  const WorkloadStream stream = generate_synthetic(synth(6, 16, 6));
  ClusterConfig cluster;
  cluster.num_devices = 4;
  const ReuseBounds bounds{0, 0, 0};
  const DecisionTrace plain = traced_run(stream, bounds, cluster, true);
  FixedBounds fixed(bounds);
  EXPECT_EQ(traced_run(stream, bounds, cluster, true, &fixed).box, plain.box);
  EXPECT_NE(plain.box, BoundInterval::point(bounds));

  Alternating alternating;
  const DecisionTrace changing =
      traced_run(stream, bounds, cluster, true, &alternating);
  // Six vectors: the last one ran under (2,2,2).
  EXPECT_EQ(changing.box, BoundInterval::point(ReuseBounds{2, 2, 2}));
}

// --------------------------------------------------------- PatternCache unit

TensorDesc desc(TensorId id) { return TensorDesc{id, 2, 16, 1}; }

ContractionTask task_of(TensorId a, TensorId b, TensorId out) {
  return ContractionTask{desc(a), desc(b), desc(out)};
}

ClusterSimulator sim_of(int devices, std::uint64_t capacity = 1ULL << 20) {
  ClusterConfig config;
  config.num_devices = devices;
  config.device_capacity_bytes = capacity;
  return ClusterSimulator(config);
}

TEST(PatternCache, HitsWhileEpochsUnchanged) {
  ClusterSimulator sim = sim_of(2);
  ASSERT_TRUE(sim.execute(task_of(1, 2, 3), 0).ok());
  const ClusterIndex& index = *sim.cluster_index();

  PatternCache cache;
  const LocalReusePattern first = cache.classify(task_of(1, 2, 4), index);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);

  const LocalReusePattern second = cache.classify(task_of(1, 2, 4), index);
  EXPECT_EQ(second, first);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);

  // Distinct pair: its own entry, not a false hit on (1, 2).
  (void)cache.classify(task_of(1, 5, 6), index);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(PatternCache, MatchesReferenceClassification) {
  ClusterSimulator sim = sim_of(3);
  ASSERT_TRUE(sim.execute(task_of(1, 2, 3), 0).ok());
  ASSERT_TRUE(sim.execute(task_of(2, 4, 5), 1).ok());
  const ClusterIndex& index = *sim.cluster_index();

  PatternCache cache;
  const ContractionTask probes[] = {
      task_of(1, 2, 90),  // both resident, dev 0 holds both
      task_of(1, 4, 91),  // both resident, disjoint holders
      task_of(3, 7, 92),  // one resident
      task_of(7, 8, 93),  // neither resident
      task_of(2, 2, 94),  // same operand twice
  };
  for (const ContractionTask& probe : probes) {
    // Twice: the miss path and the hit path must both agree with the
    // recompute-from-view reference.
    EXPECT_EQ(cache.classify(probe, index), classify_pair(probe, sim));
    EXPECT_EQ(cache.classify(probe, index), classify_pair(probe, sim));
  }
}

TEST(PatternCache, DiscardInvalidates) {
  ClusterSimulator sim = sim_of(2);
  ASSERT_TRUE(sim.execute(task_of(1, 2, 3), 0).ok());
  const ClusterIndex& index = *sim.cluster_index();

  PatternCache cache;
  (void)cache.classify(task_of(1, 2, 4), index);
  sim.discard(1);  // residency change -> epoch bump -> stale entry
  (void)cache.classify(task_of(1, 2, 4), index);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(PatternCache, DeviceFailureInvalidates) {
  ClusterSimulator sim = sim_of(2);
  ASSERT_TRUE(sim.execute(task_of(1, 2, 3), 0).ok());
  const ClusterIndex& index = *sim.cluster_index();

  PatternCache cache;
  (void)cache.classify(task_of(1, 2, 4), index);
  sim.fail_device(0, 0.0);  // recovery path must bump epochs too
  const LocalReusePattern after = cache.classify(task_of(1, 2, 4), index);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(after, classify_pair(task_of(1, 2, 4), sim));
}

TEST(PatternCache, EvictionInvalidates) {
  // Capacity fits one task's three tensors (3 * 4 KiB of complex doubles);
  // the second task's working set can only be fetched by evicting the
  // first's.
  ClusterSimulator sim = sim_of(1, 13 * 1024);
  ASSERT_TRUE(sim.execute(task_of(1, 2, 3), 0).ok());
  const ClusterIndex& index = *sim.cluster_index();

  PatternCache cache;
  (void)cache.classify(task_of(1, 2, 4), index);
  ASSERT_TRUE(cache.classify(task_of(1, 2, 4), index) ==
              cache.classify(task_of(1, 2, 4), index));
  const std::uint64_t hits_before = cache.hits();

  ASSERT_TRUE(sim.execute(task_of(10, 11, 12), 0).ok());
  EXPECT_FALSE(sim.resident_on(0, 1));  // 1 was evicted to make room
  (void)cache.classify(task_of(1, 2, 4), index);
  EXPECT_EQ(cache.hits(), hits_before);  // stale entry missed, not hit
}

TEST(PatternCache, CountersFlowIntoRegistry) {
  ClusterSimulator sim = sim_of(2);
  ASSERT_TRUE(sim.execute(task_of(1, 2, 3), 0).ok());
  const ClusterIndex& index = *sim.cluster_index();

  obs::MetricsRegistry registry;
  obs::Counter& hits = registry.counter(obs::names::kSchedPatternCacheHits);
  obs::Counter& misses =
      registry.counter(obs::names::kSchedPatternCacheMisses);

  PatternCache cache;
  cache.set_counters(&hits, &misses);
  (void)cache.classify(task_of(1, 2, 4), index);
  (void)cache.classify(task_of(1, 2, 4), index);
  (void)cache.classify(task_of(5, 6, 7), index);
  EXPECT_EQ(hits.value(), 1);
  EXPECT_EQ(misses.value(), 2);
  EXPECT_EQ(static_cast<std::uint64_t>(hits.value()), cache.hits());
  EXPECT_EQ(static_cast<std::uint64_t>(misses.value()), cache.misses());
}

}  // namespace
}  // namespace micco
