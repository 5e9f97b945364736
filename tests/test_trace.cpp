// Chrome timeline tests: the simulator reports every priced event once, as
// an obs::ClusterEvent, and obs::write_chrome_trace renders the recorded
// events as one track per device.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <vector>

#include "core/pipeline.hpp"
#include "gpusim/cluster.hpp"
#include "obs/events.hpp"
#include "obs/json.hpp"
#include "obs/telemetry.hpp"
#include "sched/micco_scheduler.hpp"
#include "workload/synthetic.hpp"

namespace micco {
namespace {

using obs::ClusterEvent;
using obs::ClusterEventKind;

TensorDesc make_desc(TensorId id) { return TensorDesc{id, 2, 16, 1}; }

ContractionTask make_task(TensorId a, TensorId b, TensorId out) {
  ContractionTask t;
  t.a = make_desc(a);
  t.b = make_desc(b);
  t.out = make_desc(out);
  return t;
}

ClusterConfig small_cluster(std::uint64_t capacity = 1u << 20) {
  ClusterConfig c;
  c.num_devices = 2;
  c.device_capacity_bytes = capacity;
  return c;
}

/// A simulator whose events land in an in-memory sink.
struct Recorded {
  explicit Recorded(ClusterConfig config) : sim(config) {
    telemetry.sink = &sink;
    sim.set_telemetry(&telemetry);
  }

  std::size_t count(ClusterEventKind kind) const {
    return static_cast<std::size_t>(
        std::count_if(sink.cluster_events().begin(),
                      sink.cluster_events().end(),
                      [&](const ClusterEvent& e) { return e.kind == kind; }));
  }

  std::string chrome_json() const {
    std::ostringstream os;
    obs::write_chrome_trace(sink.cluster_events(), os);
    return os.str();
  }

  obs::MemoryEventSink sink;
  obs::Telemetry telemetry;
  ClusterSimulator sim;
};

TEST(Trace, RecordsFetchAllocAndKernelPerTask) {
  Recorded rec(small_cluster());
  rec.sim.execute(make_task(0, 1, 2), 0);

  EXPECT_EQ(rec.count(ClusterEventKind::kFetch), 2u);
  EXPECT_EQ(rec.count(ClusterEventKind::kOutputAlloc), 1u);
  EXPECT_EQ(rec.count(ClusterEventKind::kKernel), 1u);
  EXPECT_EQ(rec.count(ClusterEventKind::kEviction), 0u);
}

TEST(Trace, ReuseHitsEmitNoFetchEvents) {
  Recorded rec(small_cluster());
  rec.sim.execute(make_task(0, 1, 2), 0);
  rec.sink.clear();
  rec.sim.execute(make_task(0, 1, 3), 0);
  EXPECT_EQ(rec.count(ClusterEventKind::kFetch), 0u);
  EXPECT_EQ(rec.count(ClusterEventKind::kKernel), 1u);
}

TEST(Trace, EvictionEventsUnderPressure) {
  const std::uint64_t tensor_bytes = make_desc(0).bytes();
  ClusterConfig cfg = small_cluster(3 * tensor_bytes);
  cfg.num_devices = 1;
  Recorded rec(cfg);
  rec.sim.execute(make_task(0, 1, 2), 0);
  rec.sim.execute(make_task(3, 4, 5), 0);
  EXPECT_GT(rec.count(ClusterEventKind::kEviction), 0u);
}

TEST(Trace, EventsOnCorrectDeviceTrack) {
  Recorded rec(small_cluster());
  rec.sim.execute(make_task(0, 1, 2), 1);
  for (const ClusterEvent& e : rec.sink.cluster_events()) {
    EXPECT_EQ(e.device, 1);
  }
}

TEST(Trace, TimelineIsContiguousWithinTask) {
  Recorded rec(small_cluster());
  rec.sim.execute(make_task(0, 1, 2), 0);

  // Events run back-to-back from t=0 to the device's busy time.
  double cursor = 0.0;
  for (const ClusterEvent& e : rec.sink.cluster_events()) {
    EXPECT_NEAR(e.start_s, cursor, 1e-12);
    cursor += e.duration_s;
  }
  EXPECT_NEAR(cursor, rec.sim.busy_time(0), 1e-12);
}

TEST(Trace, BarrierEmitsIdleGaps) {
  Recorded rec(small_cluster());
  rec.sim.execute(make_task(0, 1, 2), 0);  // device 1 stays idle
  rec.sim.barrier();
  ASSERT_EQ(rec.count(ClusterEventKind::kBarrier), 1u);
  const ClusterEvent& idle = rec.sink.cluster_events().back();
  ASSERT_EQ(idle.kind, ClusterEventKind::kBarrier);
  EXPECT_NEAR(idle.duration_s, rec.sim.metrics().barrier_idle_s, 1e-12);
  // The slice starts where the device went idle and ends at the barrier.
  EXPECT_EQ(idle.start_s, 0.0);
  EXPECT_EQ(idle.time_s, rec.sim.busy_time(1));
}

TEST(Trace, ChromeJsonIsWellFormedish) {
  Recorded rec(small_cluster());
  rec.sim.execute(make_task(0, 1, 2), 0);
  rec.sim.barrier();

  const std::string json = rec.chrome_json();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"kernel\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // Balanced braces (cheap structural check).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(Trace, DetachStopsRecording) {
  Recorded rec(small_cluster());
  rec.sim.execute(make_task(0, 1, 2), 0);
  const std::size_t before = rec.sink.cluster_events().size();
  rec.sim.set_telemetry(nullptr);
  rec.sim.execute(make_task(3, 4, 5), 0);
  EXPECT_EQ(rec.sink.cluster_events().size(), before);
}

TEST(Trace, TracingDoesNotPerturbTiming) {
  Recorded rec(small_cluster());
  ClusterSimulator plain_sim(small_cluster());
  for (TensorId i = 0; i < 12; i += 3) {
    rec.sim.execute(make_task(i, i + 1, i + 2), 0);
    plain_sim.execute(make_task(i, i + 1, i + 2), 0);
  }
  EXPECT_DOUBLE_EQ(rec.sim.busy_time(0), plain_sim.busy_time(0));
}

TEST(Trace, KindNamesAreStable) {
  ClusterEvent fetch;
  fetch.kind = ClusterEventKind::kFetch;
  ClusterEvent p2p = fetch;
  p2p.p2p = true;
  ClusterEvent kernel;
  kernel.kind = ClusterEventKind::kKernel;
  ClusterEvent barrier;
  barrier.kind = ClusterEventKind::kBarrier;
  std::ostringstream os;
  obs::write_chrome_trace({fetch, p2p, kernel, barrier}, os);
  const std::string json = os.str();
  for (const char* name : {"fetch_h2d", "fetch_p2p", "kernel", "barrier"}) {
    EXPECT_NE(json.find(std::string("\"name\":\"") + name + "\""),
              std::string::npos)
        << name;
  }
  EXPECT_STREQ(to_string(obs::EvictionCause::kOperandFetch), "operand_fetch");
  EXPECT_STREQ(to_string(obs::EvictionCause::kOutputAlloc), "output_alloc");
}

TEST(Trace, EmptyRecorderSummarizesAndWindowsToNothing) {
  const obs::MemoryEventSink sink;
  EXPECT_TRUE(sink.cluster_events().empty());

  std::ostringstream os;
  obs::write_chrome_trace(sink.cluster_events(), os);
  EXPECT_EQ(os.str(), "{\"traceEvents\":[]}\n");
}

TEST(Trace, ChromeJsonCarriesArgsForPayloadEvents) {
  Recorded rec(small_cluster());
  rec.sim.execute(make_task(0, 1, 2), 0);

  const std::string json = rec.chrome_json();
  // Fetches carry the tensor id and the bytes moved.
  EXPECT_NE(json.find("\"args\":{\"tensor\":0,\"bytes\":"), std::string::npos);
  // No eviction happened, so no cause is attached anywhere.
  EXPECT_EQ(json.find("\"cause\""), std::string::npos);
}

TEST(Trace, ChromeJsonNamesEvictionCause) {
  const std::uint64_t tensor_bytes = make_desc(0).bytes();
  ClusterConfig cfg = small_cluster(3 * tensor_bytes);
  cfg.num_devices = 1;
  Recorded rec(cfg);
  rec.sim.execute(make_task(0, 1, 2), 0);
  rec.sim.execute(make_task(3, 4, 5), 0);

  bool saw_cause = false;
  for (const ClusterEvent& e : rec.sink.cluster_events()) {
    if (e.kind != ClusterEventKind::kEviction) continue;
    EXPECT_NE(e.cause, obs::EvictionCause::kNone);
    EXPECT_GT(e.bytes, 0u);
    saw_cause = true;
  }
  ASSERT_TRUE(saw_cause);
  EXPECT_NE(rec.chrome_json().find("\"cause\":\""), std::string::npos);
}

TEST(Trace, BarrierEventsCarryNoArgs) {
  Recorded rec(small_cluster());
  rec.sim.execute(make_task(0, 1, 2), 0);
  rec.sim.barrier();

  const std::string json = rec.chrome_json();
  // The barrier line (device 1 idle) has no tensor, hence no args block.
  const std::size_t barrier_pos = json.find("\"name\":\"barrier\"");
  ASSERT_NE(barrier_pos, std::string::npos);
  const std::size_t args_after = json.find("\"args\"", barrier_pos);
  const std::size_t close_after = json.find("}", barrier_pos);
  EXPECT_TRUE(args_after == std::string::npos || args_after > close_after);
}

TEST(Trace, SameTrackSlicesAbutPastOneSimulatedSecond) {
  // The simulator books a device's events back to back, so each slice on a
  // track starts where the previous one ended. Timestamps past 1e6 us must
  // keep that to well under a microsecond once written and parsed back.
  SyntheticConfig cfg;
  cfg.num_vectors = 6;
  cfg.vector_size = 64;
  cfg.tensor_extent = 768;
  cfg.batch = 32;
  cfg.repeated_rate = 0.5;
  cfg.seed = 3;
  const WorkloadStream stream = generate_synthetic(cfg);
  obs::MemoryEventSink sink;
  obs::Telemetry telemetry;
  telemetry.sink = &sink;
  MiccoScheduler sched;
  RunOptions options;
  options.telemetry = &telemetry;
  ClusterConfig cluster;
  cluster.num_devices = 8;
  const RunResult run = run_stream(stream, sched, cluster, options);
  ASSERT_GT(run.metrics.makespan_s, 1.0);

  std::ostringstream os;
  obs::write_chrome_trace(sink.cluster_events(), os);
  std::string error;
  const auto doc = obs::parse_json(os.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  std::map<std::int64_t, double> track_end;
  std::size_t pairs = 0;
  std::size_t gaps = 0;
  for (const obs::JsonValue& slice : doc->at("traceEvents").items()) {
    const std::int64_t tid = slice.at("tid").as_int();
    const double ts = slice.at("ts").as_double();
    if (const auto it = track_end.find(tid); it != track_end.end()) {
      ++pairs;
      if (std::fabs(ts - it->second) > 1e-6) ++gaps;
    }
    track_end[tid] = ts + slice.at("dur").as_double();
  }
  ASSERT_GT(pairs, 0u);
  EXPECT_EQ(gaps, 0u) << "of " << pairs << " same-track slice pairs";
}

}  // namespace
}  // namespace micco
