// Golden identity tests (DESIGN.md §9): each case pins one MICCO run's
// decision log, cluster-event log and run report to a file in tests/golden/,
// so any change that moves a decision, a simulated event or a reported
// number fails here. Cases: the three Table VI meson workloads; f0d2, f0d4
// and the two-nucleon system at 200 % memory oversubscription, where Alg.
// 2's eviction-sensitive ordering decides, with f0d4 there also under the
// reuse-distance eviction policy; a fault-recovery sweep; the reuse-tier
// visit ordering; and clusters past the 64-bit mask word. Every other case
// evicts under LRU. Plus the bound-interval checks the tuner sweep relies
// on.
//
// Each golden file holds FNV-1a-64 digests of the three outputs and a
// compact per-decision trace, so a failure names the first decision that
// moved. A missing golden file is written from the current build and the
// case fails once: delete a file and re-run the suite to regenerate it.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cctype>
#include <cstdint>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "faults/fault_plan.hpp"
#include "gpusim/cluster.hpp"
#include "mem/policy.hpp"
#include "obs/events.hpp"
#include "obs/names.hpp"
#include "obs/telemetry.hpp"
#include "redstar/correlator.hpp"
#include "sched/micco_scheduler.hpp"
#include "service/journal.hpp"
#include "workload/synthetic.hpp"

namespace micco {
namespace {

template <typename Event>
std::string jsonl(const std::vector<Event>& events) {
  std::string out;
  for (const Event& e : events) {
    out += e.to_json().dump();
    out += '\n';
  }
  return out;
}

/// One decision as a token: the chosen device, then the admitting tier as
/// a letter (a, b, c for tiers I, II, II'; f for the fallback), upper case
/// when Alg. 2's eviction-risk flag was up. "12b": device 12, tier II.
std::string trace_token(const obs::DecisionEvent& e) {
  EXPECT_TRUE(e.fallback || (e.bound_tier >= 0 && e.bound_tier < 3));
  const char tier = e.fallback ? 'f' : static_cast<char>('a' + e.bound_tier);
  return std::to_string(e.chosen) +
         (e.evict_risk ? static_cast<char>(std::toupper(tier)) : tier);
}

/// What a golden case runs: MICCO with bounds (1, 1, 1), so the tiers both
/// admit and overflow.
struct GoldenInput {
  WorkloadStream stream;
  int gpus = 8;
  std::uint64_t capacity = 256ull << 20;
  std::optional<FaultPlan> plan;
  PairOrdering ordering = PairOrdering::kAsGiven;
  mem::EvictPolicyKind evict_policy = mem::EvictPolicyKind::kLru;
};

/// One run's observable output.
struct Capture {
  std::string decisions;
  std::string cluster_events;
  std::string report;  ///< wall-clock field zeroed
  std::vector<std::string> trace;
  /// Decisions taken under the memory-eviction-sensitive policy, and the
  /// evictions the run paid (both from the report).
  std::int64_t evict_risk_decisions = 0;
  std::int64_t evictions = 0;
};

Capture run_case(const GoldenInput& in) {
  obs::MemoryEventSink sink;
  obs::Telemetry telemetry;
  telemetry.sink = &sink;

  MiccoSchedulerOptions options;
  options.bounds = ReuseBounds{1, 1, 1};
  MiccoScheduler scheduler(options);

  ClusterConfig cluster;
  cluster.num_devices = in.gpus;
  cluster.device_capacity_bytes = in.capacity;

  const std::unique_ptr<mem::EvictionPolicy> policy =
      mem::make_policy(in.evict_policy);

  RunOptions run_options;
  run_options.telemetry = &telemetry;
  run_options.faults = in.plan.has_value() ? &*in.plan : nullptr;
  run_options.ordering = in.ordering;
  run_options.evict_policy = policy.get();
  RunResult result = run_stream(in.stream, scheduler, cluster, run_options);
  EXPECT_TRUE(result.completed) << result.error;
  result.scheduling_overhead_ms = 0.0;  // the one wall-clock report field

  Capture out;
  out.decisions = jsonl(sink.decisions());
  out.cluster_events = jsonl(sink.cluster_events());
  for (const obs::DecisionEvent& e : sink.decisions()) {
    out.trace.push_back(trace_token(e));
  }
  const obs::JsonValue report = make_run_report(result, telemetry);
  out.report = report.dump();
  out.evict_risk_decisions = report.at("registry")
                                 .at("counters")
                                 .at(obs::names::kSchedEvictRisk)
                                 .as_int();
  out.evictions = report.at("metrics").at("evictions").as_int();
  return out;
}

// ------------------------------------------------------------ golden files

constexpr std::size_t kTokensPerLine = 16;

std::string golden_path(const std::string& name) {
  return std::string(MICCO_GOLDEN_DIR) + "/" + name + ".txt";
}

std::string golden_text(const Capture& run) {
  std::ostringstream out;
  out << "decisions " << service::fnv1a64_hex(run.decisions) << '\n'
      << "cluster_events " << service::fnv1a64_hex(run.cluster_events) << '\n'
      << "report " << service::fnv1a64_hex(run.report) << '\n'
      << "trace " << run.trace.size() << '\n';
  for (std::size_t i = 0; i < run.trace.size(); ++i) {
    out << run.trace[i]
        << ((i + 1) % kTokensPerLine == 0 || i + 1 == run.trace.size() ? '\n'
                                                                      : ' ');
  }
  return out.str();
}

struct GoldenFile {
  std::string decisions;
  std::string cluster_events;
  std::string report;
  std::vector<std::string> trace;
};

/// Parses a golden file; nullopt when it is absent or malformed.
std::optional<GoldenFile> read_golden(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) return std::nullopt;
  GoldenFile g;
  std::string key;
  std::size_t count = 0;
  if (!(in >> key >> g.decisions) || key != "decisions" ||
      !(in >> key >> g.cluster_events) || key != "cluster_events" ||
      !(in >> key >> g.report) || key != "report" || !(in >> key >> count) ||
      key != "trace") {
    return std::nullopt;
  }
  for (std::string token; in >> token;) g.trace.push_back(token);
  if (g.trace.size() != count) return std::nullopt;
  return g;
}

/// Compares one run against its golden file, decision by decision first so
/// a failure names the earliest decision that moved. Writes the file (and
/// fails) when it does not exist yet.
void expect_matches_golden(const std::string& name, const Capture& run) {
  ASSERT_FALSE(run.trace.empty());
  const std::string path = golden_path(name);
  if (!std::ifstream(path).good()) {
    std::ofstream(path) << golden_text(run);
    ADD_FAILURE() << "wrote missing golden file " << path
                  << "; review it, commit it and re-run";
    return;
  }
  const std::optional<GoldenFile> golden = read_golden(path);
  ASSERT_TRUE(golden.has_value()) << "malformed golden file " << path;
  const std::size_t common = std::min(golden->trace.size(), run.trace.size());
  for (std::size_t i = 0; i < common; ++i) {
    ASSERT_EQ(golden->trace[i], run.trace[i])
        << name << ": decision " << i << " moved (golden " << golden->trace[i]
        << ", now " << run.trace[i] << ")";
  }
  ASSERT_EQ(golden->trace.size(), run.trace.size())
      << name << ": decision count changed";
  EXPECT_EQ(golden->decisions, service::fnv1a64_hex(run.decisions))
      << name << ": decision log differs";
  EXPECT_EQ(golden->cluster_events, service::fnv1a64_hex(run.cluster_events))
      << name << ": cluster-event log differs";
  EXPECT_EQ(golden->report, service::fnv1a64_hex(run.report))
      << name << ": run report differs";
}

/// Runs the case and holds it to its golden file; returns the run.
Capture expect_golden(const std::string& name, const GoldenInput& in) {
  const Capture run = run_case(in);
  expect_matches_golden(name, run);
  return run;
}

// ------------------------------------------------------- end-to-end identity

/// Table VI shapes shrunk the same way test_integration.cpp does (fewer
/// time slices, smaller extent/batch): the diagram structure — and with it
/// the residency/reuse behaviour the goldens pin — is unchanged, only the
/// simulated tensor volume shrinks.
GoldenInput correlator(redstar::CorrelatorSpec spec) {
  spec.time_slices = 3;
  spec.extent = 32;
  spec.batch = 2;
  GoldenInput in;
  in.stream = redstar::build_workload(spec).stream;
  return in;
}

TEST(Golden, A1rhopi) {
  expect_golden("a1rhopi", correlator(redstar::make_a1_rhopi()));
}

TEST(Golden, F0d2) {
  expect_golden("f0d2", correlator(redstar::make_f0d2()));
}

TEST(Golden, F0d4) {
  expect_golden("f0d4", correlator(redstar::make_f0d4()));
}

/// The correlator at Fig. 11's 200 % oversubscription on 8 GPUs: capacity
/// from capacity_for_oversubscription, floored at eight operands so one
/// task's working set always fits. Every candidate device is then short of
/// memory for most pairs, so Alg. 2 orders by free memory first — the
/// branch the 256 MiB runs above never reach.
GoldenInput oversubscribed(redstar::CorrelatorSpec spec) {
  GoldenInput in = correlator(spec);
  in.capacity = capacity_for_oversubscription(
      in.stream, 8, 2.0, 8 * in.stream.vectors[0].tasks[0].a.bytes());
  return in;
}

void expect_oversubscribed_golden(const std::string& name,
                                  const GoldenInput& in) {
  const Capture run = expect_golden(name, in);
  EXPECT_GT(run.evict_risk_decisions, 0);
  EXPECT_GT(run.evictions, 0);
}

TEST(Golden, OversubscribedF0d4) {
  expect_oversubscribed_golden("f0d4_oversub",
                               oversubscribed(redstar::make_f0d4()));
}

TEST(Golden, OversubscribedF0d4ReuseDistance) {
  // The same run under the other eviction policy: victims come from their
  // next use in the vector, not from recency.
  GoldenInput in = oversubscribed(redstar::make_f0d4());
  in.evict_policy = mem::EvictPolicyKind::kReuseDistance;
  expect_oversubscribed_golden("f0d4_oversub_reuse_distance", in);
}

TEST(Golden, OversubscribedF0d2) {
  expect_oversubscribed_golden("f0d2_oversub",
                               oversubscribed(redstar::make_f0d2()));
}

TEST(Golden, OversubscribedNnSystem) {
  // The meson correlators' tensors are all one size, so full candidates
  // tie on free memory and the busy-time tie-break decides either way. The
  // two-nucleon system mixes rank-3 and rank-2 tensors: free memory differs
  // between candidates and the free-memory-first ordering itself decides
  // (swapping the key order changes this run's schedule, not the others').
  expect_oversubscribed_golden("nn_system_oversub",
                               oversubscribed(redstar::make_nn_system()));
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

GoldenInput synthetic(int vectors, int vector_size, std::uint64_t seed,
                      int gpus) {
  GoldenInput in;
  in.stream = generate_synthetic(synth(vectors, vector_size, seed));
  in.gpus = gpus;
  return in;
}

TEST(Golden, ReuseTierOrdering) {
  // kReuseTierFirst classifies every pair up front to sort the visit
  // order — the ordering itself must come out identical.
  GoldenInput in = synthetic(5, 24, 11, 4);
  in.ordering = PairOrdering::kReuseTierFirst;
  expect_golden("reuse_tier_first", in);
}

TEST(Golden, FaultSweep) {
  GoldenInput in = synthetic(6, 24, 7, 4);
  FaultPlan plan;
  plan.device_failures.push_back(DeviceFailure{2, 0.001});
  plan.transfer.probability = 0.05;
  plan.transfer.seed = 99;
  in.plan = plan;
  expect_golden("fault_sweep", in);
}

TEST(Golden, WideClusters) {
  // 64 exactly fills the inline mask word; 70 exercises the spill words in
  // both the residency masks and the alive-mask fallback scan.
  expect_golden("wide64", synthetic(6, 96, 21, 64));
  expect_golden("wide70", synthetic(6, 96, 21, 70));
}

TEST(Golden, WideClusterFailures) {
  // Failing device 65 flips a bit in the second alive-mask word mid-run;
  // the recovery path must replay the golden schedule exactly.
  GoldenInput in = synthetic(6, 96, 22, 70);
  FaultPlan plan;
  plan.device_failures.push_back(DeviceFailure{65, 0.001});
  plan.device_failures.push_back(DeviceFailure{3, 0.002});
  in.plan = plan;
  expect_golden("wide70_failures", in);
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

}  // namespace
}  // namespace micco
