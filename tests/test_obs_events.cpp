// Decision log + cluster event tests: the JSONL stream must be
// deterministic (byte-identical across identical runs), parseable line by
// line, and consistent with the registry's aggregate counters.
#include "obs/events.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "obs/names.hpp"
#include "obs/telemetry.hpp"
#include "workload/synthetic.hpp"

namespace micco {
namespace {

SyntheticConfig tiny_workload() {
  SyntheticConfig c;
  c.num_vectors = 3;
  c.vector_size = 12;  // 12 tensor slots -> 6 pairs per vector
  c.tensor_extent = 64;
  c.batch = 2;
  c.repeated_rate = 0.5;
  c.seed = 11;
  return c;
}

std::size_t total_pairs(const WorkloadStream& stream) {
  std::size_t pairs = 0;
  for (const VectorWorkload& vec : stream.vectors) pairs += vec.tasks.size();
  return pairs;
}

/// Decisions the registry classified: every decision lands in exactly one
/// of the four sched.pattern.* counters.
std::uint64_t pattern_total(const obs::MetricsRegistry& registry) {
  std::uint64_t total = 0;
  for (const char* name : obs::names::kSchedPattern) {
    if (const obs::Counter* counter = registry.find_counter(name)) {
      total += counter->value();
    }
  }
  return total;
}

ClusterConfig tiny_cluster() {
  ClusterConfig c;
  c.num_devices = 3;
  c.device_capacity_bytes = 1u << 20;  // small: forces some evictions
  return c;
}

std::string run_jsonl(const WorkloadStream& stream) {
  std::ostringstream out;
  obs::JsonlEventSink sink(out);
  obs::Telemetry telemetry;
  telemetry.sink = &sink;
  MiccoScheduler sched;
  RunOptions options;
  options.telemetry = &telemetry;
  run_stream(stream, sched, tiny_cluster(), options);
  return out.str();
}

TEST(ObsEvents, JsonlLogIsByteIdenticalAcrossRuns) {
  const WorkloadStream stream = generate_synthetic(tiny_workload());
  EXPECT_EQ(run_jsonl(stream), run_jsonl(stream));
}

TEST(ObsEvents, EveryLogLineParsesAndCarriesAnEventTag) {
  const WorkloadStream stream = generate_synthetic(tiny_workload());
  std::istringstream lines(run_jsonl(stream));
  std::string line;
  std::size_t decisions = 0;
  std::size_t total = 0;
  while (std::getline(lines, line)) {
    std::string error;
    const auto doc = obs::parse_json(line, &error);
    ASSERT_TRUE(doc.has_value()) << error << " in: " << line;
    const obs::JsonValue* event = doc->find("event");
    ASSERT_NE(event, nullptr);
    if (event->as_string() == "decision") ++decisions;
    ++total;
  }
  EXPECT_EQ(decisions, total_pairs(stream));  // one per pair
  EXPECT_GT(total, decisions);                // plus fetches / barriers
}

TEST(ObsEvents, DecisionSequenceIsGaplessAndCursorIsStamped) {
  const WorkloadStream stream = generate_synthetic(tiny_workload());
  obs::MemoryEventSink sink;
  obs::Telemetry telemetry;
  telemetry.sink = &sink;
  MiccoScheduler sched;
  RunOptions options;
  options.telemetry = &telemetry;
  run_stream(stream, sched, tiny_cluster(), options);

  ASSERT_EQ(sink.decisions().size(), total_pairs(stream));
  std::uint64_t seq = 0;
  for (const obs::DecisionEvent& d : sink.decisions()) {
    EXPECT_EQ(d.seq, seq++);
    EXPECT_GE(d.vector_index, 0);
    EXPECT_GE(d.pair_index, 0);
    EXPECT_LT(d.pair_index,
              static_cast<std::int64_t>(stream.vectors[0].tasks.size()));
    EXPECT_EQ(d.scheduler, "MICCO");
    EXPECT_FALSE(d.candidates.empty());
    // The winner always comes from the candidate set.
    EXPECT_NE(std::find(d.candidates.begin(), d.candidates.end(), d.chosen),
              d.candidates.end());
  }
}

TEST(ObsEvents, PatternCountersMatchLoggedDecisions) {
  const WorkloadStream stream = generate_synthetic(tiny_workload());
  obs::MemoryEventSink sink;
  obs::Telemetry telemetry;
  telemetry.sink = &sink;
  MiccoScheduler sched;
  RunOptions options;
  options.telemetry = &telemetry;
  run_stream(stream, sched, tiny_cluster(), options);

  std::uint64_t two_new = 0;
  for (const obs::DecisionEvent& d : sink.decisions()) {
    if (d.pattern == "TwoNew") ++two_new;
  }
  const obs::Counter* counter =
      telemetry.registry.find_counter("sched.pattern.two_new");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->value(), two_new);
  EXPECT_EQ(pattern_total(telemetry.registry), sink.decisions().size());
}

TEST(ObsEvents, ClusterEventsCoverFetchEvictionAndBarrier) {
  const WorkloadStream stream = generate_synthetic(tiny_workload());
  obs::MemoryEventSink sink;
  obs::Telemetry telemetry;
  telemetry.sink = &sink;
  MiccoScheduler sched;
  RunOptions options;
  options.telemetry = &telemetry;
  run_stream(stream, sched, tiny_cluster(), options);

  std::size_t fetches = 0;
  std::size_t evictions = 0;
  std::size_t barriers = 0;
  for (const obs::ClusterEvent& e : sink.cluster_events()) {
    switch (e.kind) {
      case obs::ClusterEventKind::kFetch:
        ++fetches;
        EXPECT_GT(e.bytes, 0u);
        EXPECT_EQ(e.detail, "h2d");  // P2P disabled in this cluster
        break;
      case obs::ClusterEventKind::kEviction:
        ++evictions;
        EXPECT_GE(e.victim_age_s, 0.0);
        break;
      case obs::ClusterEventKind::kBarrier:
        ++barriers;
        EXPECT_GT(e.duration_s, 0.0);
        break;
      default:  // fault events never fire on a fault-free run
        ADD_FAILURE() << "unexpected event kind: " << to_string(e.kind);
        break;
    }
  }
  EXPECT_GT(fetches, 0u);
  EXPECT_GT(evictions, 0u);  // 8 MiB devices cannot hold the stream
  EXPECT_GT(barriers, 0u);
}

TEST(ObsEvents, EventJsonOmitsIrrelevantFields) {
  obs::ClusterEvent barrier;
  barrier.kind = obs::ClusterEventKind::kBarrier;
  barrier.device = 1;
  barrier.time_s = 2.0;
  barrier.duration_s = 0.5;
  const obs::JsonValue doc = barrier.to_json();
  EXPECT_EQ(doc.find("tensor"), nullptr);
  EXPECT_EQ(doc.find("bytes"), nullptr);
  EXPECT_EQ(doc.at("event").as_string(), "barrier");

  obs::ClusterEvent evict;
  evict.kind = obs::ClusterEventKind::kEviction;
  evict.device = 0;
  evict.tensor = 7;
  evict.bytes = 128;
  evict.detail = "operand_fetch";
  evict.victim_age_s = 0.25;
  const obs::JsonValue edoc = evict.to_json();
  EXPECT_DOUBLE_EQ(edoc.at("victim_age_s").as_double(), 0.25);
  EXPECT_EQ(edoc.at("detail").as_string(), "operand_fetch");
}

TEST(ObsEvents, TelemetryWithoutSinkStillCounts) {
  const WorkloadStream stream = generate_synthetic(tiny_workload());
  obs::Telemetry telemetry;  // no sink attached
  MiccoScheduler sched;
  RunOptions options;
  options.telemetry = &telemetry;
  run_stream(stream, sched, tiny_cluster(), options);
  EXPECT_EQ(pattern_total(telemetry.registry), total_pairs(stream));
}

TEST(ObsEvents, TelemetryDoesNotPerturbScheduling) {
  const WorkloadStream stream = generate_synthetic(tiny_workload());
  MiccoScheduler plain;
  const RunResult base = run_stream(stream, plain, tiny_cluster());

  obs::MemoryEventSink sink;
  obs::Telemetry telemetry;
  telemetry.sink = &sink;
  MiccoScheduler observed;
  RunOptions options;
  options.telemetry = &telemetry;
  const RunResult traced = run_stream(stream, observed, tiny_cluster(), options);

  EXPECT_DOUBLE_EQ(base.metrics.makespan_s, traced.metrics.makespan_s);
  EXPECT_EQ(base.metrics.evictions, traced.metrics.evictions);
  EXPECT_EQ(base.metrics.reused_operands, traced.metrics.reused_operands);
}

// -- BufferedJsonlEventSink ------------------------------------------------

std::string run_buffered_jsonl(const WorkloadStream& stream,
                               std::size_t flush_bytes) {
  std::ostringstream out;
  {
    obs::BufferedJsonlEventSink sink(out, flush_bytes);
    obs::Telemetry telemetry;
    telemetry.sink = &sink;
    MiccoScheduler sched;
    RunOptions options;
    options.telemetry = &telemetry;
    run_stream(stream, sched, tiny_cluster(), options);
  }  // sink destruction drains the buffer
  return out.str();
}

TEST(ObsEvents, BufferedSinkIsLineIdenticalToUnbuffered) {
  const WorkloadStream stream = generate_synthetic(tiny_workload());
  const std::string plain = run_jsonl(stream);
  // Thresholds straddle the interesting regimes: every-line flush, mid-run
  // flushes, and one single flush at destruction.
  for (const std::size_t flush_bytes : {std::size_t{1}, std::size_t{4096},
                                        std::size_t{1} << 30}) {
    EXPECT_EQ(plain, run_buffered_jsonl(stream, flush_bytes))
        << "flush_bytes=" << flush_bytes;
  }
}

TEST(ObsEvents, BufferedSinkFlushesOnDestruction) {
  std::ostringstream out;
  {
    obs::BufferedJsonlEventSink sink(out);  // 64 KiB: nothing auto-flushes
    obs::DecisionEvent event;
    event.scheduler = "test";
    sink.decision(event);
    EXPECT_EQ(out.str(), "");  // still buffered
  }
  EXPECT_NE(out.str().find("\"scheduler\":\"test\""), std::string::npos);
  EXPECT_EQ(out.str().back(), '\n');
}

TEST(ObsEvents, BufferedSinkExplicitFlushDrains) {
  std::ostringstream out;
  obs::BufferedJsonlEventSink sink(out);
  obs::ClusterEvent event;
  event.kind = obs::ClusterEventKind::kFetch;
  sink.cluster(event);
  EXPECT_EQ(out.str(), "");
  sink.flush();
  EXPECT_NE(out.str().find("\"event\":\"fetch\""), std::string::npos);
  sink.flush();  // idempotent on an empty buffer
  const std::string text = out.str();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 1);
}

TEST(ObsEvents, BufferedSinkFlushesFaultEventsImmediately) {
  for (const obs::ClusterEventKind kind :
       {obs::ClusterEventKind::kDeviceFailure,
        obs::ClusterEventKind::kCapacityLoss}) {
    std::ostringstream out;
    obs::BufferedJsonlEventSink sink(out);
    obs::DecisionEvent decision;
    sink.decision(decision);
    EXPECT_EQ(out.str(), "");  // ordinary events wait for the threshold
    obs::ClusterEvent fault;
    fault.kind = kind;
    fault.device = 1;
    sink.cluster(fault);
    // The fault drains the whole buffer so the log on disk stays ordered.
    const std::string text = out.str();
    EXPECT_NE(text.find("\"event\":\"decision\""), std::string::npos);
    EXPECT_NE(text.find(obs::to_string(kind)), std::string::npos);
  }
}

}  // namespace
}  // namespace micco
