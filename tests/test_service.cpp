// End-to-end tests of the scheduling daemon: a real Server on a Unix-domain
// socket, driven through the Client library — submit/status/stats/drain,
// deterministic serving (byte-identical decision logs and span
// traces across sessions), trace-id propagation into the span file, the
// metrics verb against offline trace recomputation, injected-clock latency
// accounting, concurrent submits from many client threads, oversized-frame
// handling over the wire, admission's structure check, and fault-tolerant
// serving.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "core/pipeline.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/report.hpp"
#include "parallel/parallel.hpp"
#include "serve_harness.hpp"
#include "service/journal.hpp"

namespace micco::service {
namespace {

using namespace harness;

TEST(Service, EndToEndSubmitStatusResultDrain) {
  const std::string socket = test_socket_path("e2e");
  const std::string report_path = tmp_file_path("e2e_report.json");
  ServerConfig config;
  config.socket_path = socket;
  config.cluster.num_devices = 4;
  config.report_path = report_path;

  ServeSession session(std::move(config));
  std::string error;
  ASSERT_TRUE(session.begin(&error)) << error;

  Client client;
  ASSERT_TRUE(client.connect(socket, &error)) << error;

  const auto submitted =
      client.submit("alice", "first-job", workload_text(11), &error);
  ASSERT_TRUE(submitted.has_value()) << error;
  ASSERT_TRUE(submitted->at("ok").as_bool()) << submitted->dump();
  const auto job_id =
      static_cast<std::uint64_t>(submitted->at("job_id").as_int());
  EXPECT_EQ(job_id, 1u);
  EXPECT_EQ(submitted->at("state").as_string(), "QUEUED");

  const obs::JsonValue final_status = wait_for_job(client, job_id);
  EXPECT_EQ(final_status.at("state").as_string(), "DONE");
  EXPECT_EQ(final_status.at("tenant").as_string(), "alice");
  EXPECT_EQ(final_status.at("job_name").as_string(), "first-job");

  // A finished job's status carries its result document.
  const obs::JsonValue& result = final_status.at("result");
  EXPECT_TRUE(result.at("completed").as_bool());
  EXPECT_GT(result.at("makespan_s").as_double(), 0.0);
  EXPECT_GT(result.at("gflops").as_double(), 0.0);
  EXPECT_EQ(result.at("vectors").as_int(), 1);

  // `status` is the one read of a job: a `result` request is an unknown
  // type, and the connection answers the next request.
  const std::string result_frame =
      R"({"v":1,"type":"result","job_id":1})" "\n";
  ASSERT_TRUE(client.send_raw(result_frame, &error)) << error;
  const auto result_reply = client.read_reply(&error);
  ASSERT_TRUE(result_reply.has_value()) << error;
  EXPECT_FALSE(result_reply->at("ok").as_bool());
  EXPECT_EQ(result_reply->at("code").as_string(), error_code::kUnknownType);
  const auto status_again = client.status(job_id, &error);
  ASSERT_TRUE(status_again.has_value()) << error;
  EXPECT_EQ(status_again->at("state").as_string(), "DONE");

  // Unknown job → structured error, connection stays usable.
  const auto unknown = client.status(999, &error);
  ASSERT_TRUE(unknown.has_value()) << error;
  EXPECT_FALSE(unknown->at("ok").as_bool());
  EXPECT_EQ(unknown->at("code").as_string(), error_code::kUnknownJob);

  const auto stats = client.stats(&error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_EQ(stats->at("stats").at("completed").as_int(), 1);

  // Pipeline the drain request and a follow-up submit in a single write so
  // the server handles both frames in the same pass: once drain lands, the
  // submit must get a structured `draining` reject (not a dropped
  // connection), even though the idle server stops right after.
  const std::string pipelined =
      encode_frame(make_plain_request(MessageType::kDrain)) +
      encode_frame(make_submit_request("alice", "", workload_text(12)));
  ASSERT_TRUE(client.send_raw(pipelined, &error)) << error;
  const auto drained = client.read_reply(&error);
  ASSERT_TRUE(drained.has_value()) << error;
  EXPECT_TRUE(drained->at("ok").as_bool()) << drained->dump();
  const auto rejected = client.read_reply(&error);
  ASSERT_TRUE(rejected.has_value()) << error;
  EXPECT_FALSE(rejected->at("ok").as_bool());
  EXPECT_EQ(rejected->at("code").as_string(), error_code::kDraining);

  client.close();
  EXPECT_EQ(session.join(), 0);

  // The session wrote a report that parses and validates like batch runs.
  const std::string report_text = read_file(report_path);
  ASSERT_FALSE(report_text.empty());
  const auto report = obs::parse_json(report_text, &error);
  ASSERT_TRUE(report.has_value()) << error;
  EXPECT_EQ(obs::validate_report(*report), "");
  EXPECT_EQ(report->at("metrics").at("jobs_run").as_int(), 1);
  std::remove(report_path.c_str());
}

TEST(Service, DeterministicDecisionLogsAcrossSessions) {
  // Two serial (--threads=1 equivalent) sessions fed the same submission
  // sequence must produce byte-identical decision logs AND byte-identical
  // span traces (the client mints trace ids as a pure function of the
  // submit arguments, and spans record only deterministic data).
  std::vector<std::string> logs;
  std::vector<std::string> traces;
  for (int round = 0; round < 2; ++round) {
    const std::string tag = "det" + std::to_string(round);
    const std::string socket = test_socket_path(tag);
    const std::string decisions = tmp_file_path(tag + ".jsonl");
    const std::string spans = tmp_file_path(tag + "_spans.jsonl");
    ServerConfig config;
    config.socket_path = socket;
    config.cluster.num_devices = 4;
    config.seed = 7;
    config.io_lanes = 0;  // serial: I/O and dispatch share one thread
    config.decisions_path = decisions;
    config.spans_path = spans;

    ServeSession session(std::move(config));
    std::string error;
    ASSERT_TRUE(session.begin(&error)) << error;

    Client client;
    ASSERT_TRUE(client.connect(socket, &error)) << error;
    for (const std::uint64_t seed : {21u, 22u, 23u}) {
      const std::string tenant = seed % 2 == 0 ? "even" : "odd";
      const auto reply =
          client.submit(tenant, "", workload_text(seed), &error);
      ASSERT_TRUE(reply.has_value()) << error;
      ASSERT_TRUE(reply->at("ok").as_bool()) << reply->dump();
    }
    // Wait for the backlog, then drain.
    wait_for_job(client, 3);
    ASSERT_TRUE(client.drain(&error).has_value()) << error;
    client.close();
    EXPECT_EQ(session.join(), 0);

    logs.push_back(read_file(decisions));
    traces.push_back(read_file(spans));
    std::remove(decisions.c_str());
    std::remove(spans.c_str());
  }
  ASSERT_FALSE(logs[0].empty());
  EXPECT_EQ(logs[0], logs[1]) << "decision logs diverged across sessions";
  ASSERT_FALSE(traces[0].empty());
  EXPECT_EQ(traces[0], traces[1]) << "span traces diverged across sessions";
}

TEST(Service, TraceIdPropagatesFromClientToSpanFile) {
  const std::string socket = test_socket_path("trace");
  const std::string spans = tmp_file_path("trace_spans.jsonl");
  ServerConfig config;
  config.socket_path = socket;
  config.cluster.num_devices = 4;
  config.spans_path = spans;

  ServeSession session(std::move(config));
  std::string error;
  ASSERT_TRUE(session.begin(&error)) << error;

  Client client;
  ASSERT_TRUE(client.connect(socket, &error)) << error;
  const auto reply =
      client.submit("alice", "traced-job", workload_text(41, 2, 8), &error);
  ASSERT_TRUE(reply.has_value()) << error;
  ASSERT_TRUE(reply->at("ok").as_bool()) << reply->dump();
  // The daemon echoes the client-minted trace id on the submit reply, and
  // the id is a pure function of (tenant, job name, submit sequence).
  const std::string trace_id = reply->at("trace").as_string();
  EXPECT_EQ(trace_id, Client::mint_trace_id("alice", "traced-job", 0));
  wait_for_job(client,
               static_cast<std::uint64_t>(reply->at("job_id").as_int()));
  ASSERT_TRUE(client.drain(&error).has_value()) << error;
  client.close();
  EXPECT_EQ(session.join(), 0);

  // Every span in the session trace carries that id, sequence numbers are
  // contiguous from 0, and the root "job" span is emitted last so it can
  // carry the job outcome.
  std::istringstream lines(read_file(spans));
  std::string line;
  std::set<std::string> span_names;
  std::int64_t expected_seq = 0;
  std::int64_t root_seq = -1;
  while (std::getline(lines, line)) {
    const auto doc = obs::parse_json(line, &error);
    ASSERT_TRUE(doc.has_value()) << error << ": " << line;
    EXPECT_EQ(doc->at("trace").as_string(), trace_id);
    EXPECT_EQ(doc->at("seq").as_int(), expected_seq++);
    span_names.insert(doc->at("name").as_string());
    if (doc->at("parent").as_int() == 0) {
      EXPECT_EQ(doc->at("name").as_string(), obs::names::kSpanJob);
      EXPECT_EQ(doc->at("span").as_int(), 1);
      EXPECT_EQ(doc->at("tenant").as_string(), "alice");
      root_seq = doc->at("seq").as_int();
    }
  }
  ASSERT_GT(expected_seq, 0);
  EXPECT_EQ(root_seq, expected_seq - 1) << "root span must be emitted last";
  for (const char* name :
       {obs::names::kSpanJob, obs::names::kSpanQueue,
        obs::names::kSpanDispatch, obs::names::kSpanSched,
        obs::names::kSpanExec}) {
    EXPECT_EQ(span_names.count(name), 1u) << name;
  }
  std::remove(spans.c_str());
}

TEST(Service, MetricsVerbQuantilesMatchOfflineTraceRecomputation) {
  // The served per-tenant job_sim_ms summary must be exactly reproducible
  // offline from the trace file: root job spans record the simulated
  // makespan, and the offline histogram shares bounds and interpolation
  // code with the one the daemon serves.
  const std::string socket = test_socket_path("metrics");
  const std::string spans = tmp_file_path("metrics_spans.jsonl");
  ServerConfig config;
  config.socket_path = socket;
  config.cluster.num_devices = 4;
  config.spans_path = spans;

  ServeSession session(std::move(config));
  std::string error;
  ASSERT_TRUE(session.begin(&error)) << error;

  Client client;
  ASSERT_TRUE(client.connect(socket, &error)) << error;
  std::uint64_t last_job = 0;
  for (const std::uint64_t seed : {51u, 52u, 53u, 54u}) {
    const auto reply = client.submit(
        "alice", "", workload_text(seed, /*vectors=*/2, /*vector_size=*/10),
        &error);
    ASSERT_TRUE(reply.has_value()) << error;
    ASSERT_TRUE(reply->at("ok").as_bool()) << reply->dump();
    last_job = static_cast<std::uint64_t>(reply->at("job_id").as_int());
  }
  wait_for_job(client, last_job);

  const auto metrics_reply = client.metrics(&error);
  ASSERT_TRUE(metrics_reply.has_value()) << error;
  ASSERT_TRUE(metrics_reply->at("ok").as_bool()) << metrics_reply->dump();
  const obs::JsonValue& served =
      metrics_reply->at("metrics").at("histograms").at(
          obs::names::tenant_metric("alice", obs::names::kTenantJobSimMs));
  EXPECT_EQ(served.at("count").as_int(), 4);
  // The reply renders the registry once, as the structured summary.
  for (const char* field : {"uptime_s", "stats", "metrics"}) {
    EXPECT_NE(metrics_reply->find(field), nullptr) << field;
  }
  EXPECT_EQ(metrics_reply->find("prometheus"), nullptr);

  ASSERT_TRUE(client.drain(&error).has_value()) << error;
  client.close();
  EXPECT_EQ(session.join(), 0);

  // Offline recomputation from the root job spans, through the shared
  // fixed-boundary quantile code: sums and quantiles match the served
  // values exactly (json_number doubles round-trip shortest).
  obs::Histogram offline(obs::names::job_sim_ms_bounds());
  std::istringstream lines(read_file(spans));
  std::string line;
  while (std::getline(lines, line)) {
    const auto doc = obs::parse_json(line, &error);
    ASSERT_TRUE(doc.has_value()) << error << ": " << line;
    if (doc->at("parent").as_int() == 0) {
      offline.observe(doc->at("duration_ms").as_double());
    }
  }
  EXPECT_EQ(offline.count(), 4u);
  EXPECT_EQ(served.at("sum").as_double(), offline.sum());
  EXPECT_EQ(served.at("mean").as_double(), offline.mean());
  EXPECT_EQ(served.at("p50").as_double(), offline.quantile(0.5));
  EXPECT_EQ(served.at("p90").as_double(), offline.quantile(0.9));
  EXPECT_EQ(served.at("p99").as_double(), offline.quantile(0.99));
  std::remove(spans.c_str());
}

TEST(Service, TwoTenantSessionExposesResidencyGauges) {
  // Every finished job sets its tenant's modeled-residency gauge; no flag
  // turns this on, and the replies carry no separate memory section.
  const std::string socket = test_socket_path("residency");
  ServerConfig config;
  config.socket_path = socket;
  config.cluster.num_devices = 4;

  ServeSession session(std::move(config));
  std::string error;
  ASSERT_TRUE(session.begin(&error)) << error;

  Client client;
  ASSERT_TRUE(client.connect(socket, &error)) << error;
  for (const auto& [tenant, seed] :
       {std::pair<const char*, std::uint64_t>{"alice", 71},
        {"bob", 72}}) {
    const auto reply = client.submit(tenant, "", workload_text(seed), &error);
    ASSERT_TRUE(reply.has_value()) << error;
    ASSERT_TRUE(reply->at("ok").as_bool()) << reply->dump();
    const obs::JsonValue done = wait_for_job(
        client, static_cast<std::uint64_t>(reply->at("job_id").as_int()));
    EXPECT_EQ(done.at("state").as_string(), "DONE");
    EXPECT_EQ(done.at("result").at("evict_policy").as_string(), "lru");
  }

  const auto metrics_reply = client.metrics(&error);
  ASSERT_TRUE(metrics_reply.has_value()) << error;
  ASSERT_TRUE(metrics_reply->at("ok").as_bool()) << metrics_reply->dump();
  EXPECT_EQ(metrics_reply->find("memory"), nullptr);
  const obs::JsonValue& gauges = metrics_reply->at("metrics").at("gauges");
  for (const char* tenant : {"alice", "bob"}) {
    const obs::JsonValue* gauge = gauges.find(obs::names::mem_tenant_metric(
        tenant, obs::names::kMemTenantResidentBytesSuffix));
    ASSERT_NE(gauge, nullptr) << tenant << ": " << gauges.dump();
    EXPECT_GT(gauge->as_double(), 0.0) << tenant;
  }
  const auto stats_reply = client.stats(&error);
  ASSERT_TRUE(stats_reply.has_value()) << error;
  EXPECT_EQ(stats_reply->find("memory"), nullptr);

  ASSERT_TRUE(client.drain(&error).has_value()) << error;
  client.close();
  EXPECT_EQ(session.join(), 0);
}

TEST(Service, SessionReportSumsEachJobsOwnNumbers) {
  // The session report adds up what each job's run reported: device busy
  // times in devices[], evictions and write-back bytes in metrics. The
  // registry restates none of it.
  const std::string socket = test_socket_path("sums");
  const std::string report_path = tmp_file_path("sums_report.json");
  const std::vector<std::string> texts = {workload_text(81, 2, 16),
                                          workload_text(82, 2, 16)};
  std::vector<WorkloadStream> streams;
  for (const std::string& text : texts) {
    std::istringstream in(text);
    streams.push_back(load_stream(in).value());
  }
  ServerConfig config;
  config.socket_path = socket;
  config.cluster.num_devices = 4;
  config.cluster.device_capacity_bytes = capacity_for_oversubscription(
      streams[0], 4, 2.0, 8 * streams[0].vectors[0].tasks[0].a.bytes());
  config.report_path = report_path;

  // Each job again offline, as the daemon runs it: a fresh scheduler, no
  // bounds model and the default LRU policy.
  std::vector<double> busy(4, 0.0);
  std::uint64_t evictions = 0;
  std::uint64_t writeback = 0;
  for (const WorkloadStream& stream : streams) {
    const RunResult run =
        run_stream(stream, *make_scheduler(config.scheduler, config.seed),
                   config.cluster);
    ASSERT_TRUE(run.completed) << run.error;
    for (std::size_t d = 0; d < busy.size(); ++d) {
      busy[d] += run.device_utilization[d] * run.metrics.makespan_s;
    }
    evictions += run.metrics.evictions;
    writeback += run.metrics.writeback_bytes;
  }
  EXPECT_GT(evictions, 0u);

  ServeSession session(config);
  std::string error;
  ASSERT_TRUE(session.begin(&error)) << error;
  Client client;
  ASSERT_TRUE(client.connect(socket, &error)) << error;
  for (const std::string& text : texts) {
    const auto reply = client.submit("alice", "", text, &error);
    ASSERT_TRUE(reply.has_value() && reply->at("ok").as_bool()) << error;
    const auto id = static_cast<std::uint64_t>(reply->at("job_id").as_int());
    EXPECT_EQ(wait_for_job(client, id).at("state").as_string(), "DONE");
  }
  ASSERT_TRUE(client.drain(&error).has_value()) << error;
  client.close();
  EXPECT_EQ(session.join(), 0);

  const auto report = obs::parse_json(read_file(report_path), &error);
  std::remove(report_path.c_str());
  ASSERT_TRUE(report.has_value()) << error;
  EXPECT_EQ(obs::validate_report(*report), "");
  const obs::JsonValue& metrics = report->at("metrics");
  ASSERT_NE(metrics.find("evictions"), nullptr) << metrics.dump();
  EXPECT_EQ(metrics.at("evictions").as_int(),
            static_cast<std::int64_t>(evictions));
  EXPECT_EQ(metrics.at("writeback_bytes").as_int(),
            static_cast<std::int64_t>(writeback));
  const std::vector<obs::JsonValue>& devices = report->at("devices").items();
  ASSERT_EQ(devices.size(), busy.size());
  for (std::size_t d = 0; d < busy.size(); ++d) {
    EXPECT_DOUBLE_EQ(devices[d].at("busy_s").as_double(), busy[d]) << d;
  }
  for (const auto& [name, value] :
       report->at("registry").at("gauges").members()) {
    EXPECT_FALSE(name.starts_with("cluster.device.")) << name;
  }
}

TEST(Service, InjectedManualClockScriptsLatenciesAndUptime) {
  // All scripting happens before the server thread exists (thread creation
  // orders it), and the clock never moves afterwards — so every wall
  // latency the daemon records is scripted to exactly zero, uptime is
  // exactly zero, and the session stamp is the scripted wall time. A
  // system clock could not produce this reply.
  obs::ManualClock manual;
  manual.set_wall("2026-02-03T04:05:06Z");
  manual.advance_ms(1000.0);

  const std::string socket = test_socket_path("clock");
  ServerConfig config;
  config.socket_path = socket;
  config.cluster.num_devices = 2;
  config.clock = &manual;

  ServeSession session(std::move(config));
  std::string error;
  ASSERT_TRUE(session.begin(&error)) << error;

  Client client;
  ASSERT_TRUE(client.connect(socket, &error)) << error;
  const auto reply = client.submit("alice", "", workload_text(61), &error);
  ASSERT_TRUE(reply.has_value()) << error;
  ASSERT_TRUE(reply->at("ok").as_bool()) << reply->dump();
  wait_for_job(client,
               static_cast<std::uint64_t>(reply->at("job_id").as_int()));

  const auto metrics_reply = client.metrics(&error);
  ASSERT_TRUE(metrics_reply.has_value()) << error;
  ASSERT_TRUE(metrics_reply->at("ok").as_bool()) << metrics_reply->dump();
  EXPECT_EQ(metrics_reply->at("uptime_s").as_double(), 0.0);
  EXPECT_EQ(metrics_reply->at("started_at").as_string(),
            "2026-02-03T04:05:06Z");

  const obs::JsonValue& hists = metrics_reply->at("metrics").at("histograms");
  const obs::JsonValue& queue =
      hists.at(obs::names::kServiceQueueLatencyMs);
  EXPECT_EQ(queue.at("count").as_int(), 1);
  EXPECT_EQ(queue.at("sum").as_double(), 0.0);
  const obs::JsonValue& e2e = hists.at(
      obs::names::tenant_metric("alice", obs::names::kTenantE2eLatencyMs));
  EXPECT_EQ(e2e.at("count").as_int(), 1);
  EXPECT_EQ(e2e.at("sum").as_double(), 0.0);
  // Simulated makespan does not come from the wall clock: it stays nonzero
  // even with time frozen.
  const obs::JsonValue& sim = hists.at(
      obs::names::tenant_metric("alice", obs::names::kTenantJobSimMs));
  EXPECT_EQ(sim.at("count").as_int(), 1);
  EXPECT_GT(sim.at("sum").as_double(), 0.0);

  ASSERT_TRUE(client.drain(&error).has_value()) << error;
  client.close();
  EXPECT_EQ(session.join(), 0);
}

TEST(Service, ConcurrentSubmitsFromEightThreads) {
  // Eight client threads hammer a parallel-mode server; accounting must
  // balance exactly (admitted + rejected == submitted, everything admitted
  // eventually completes) and the totals must match a serial session's.
  parallel::set_threads(4);  // dispatcher + 3 I/O lanes
  constexpr int kThreads = 8;
  constexpr int kJobsPerThread = 3;

  std::map<std::string, std::int64_t> totals;
  for (const int lanes : {3, 0}) {  // parallel first, then serial reference
    const std::string tag = "conc" + std::to_string(lanes);
    const std::string socket = test_socket_path(tag);
    ServerConfig config;
    config.socket_path = socket;
    config.cluster.num_devices = 2;
    config.io_lanes = lanes;
    config.admission.max_queue_per_tenant = kJobsPerThread;
    config.admission.max_queued_total = kThreads * kJobsPerThread;

    ServeSession session(std::move(config));
    std::string error;
    ASSERT_TRUE(session.begin(&error)) << error;

    std::vector<std::thread> clients;
    clients.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      clients.emplace_back([&socket, t] {
        Client client;
        std::string client_error;
        ASSERT_TRUE(client.connect(socket, &client_error)) << client_error;
        const std::string tenant = "tenant-" + std::to_string(t);
        std::vector<std::uint64_t> ids;
        for (int j = 0; j < kJobsPerThread; ++j) {
          const auto reply = client.submit(
              tenant, "",
              workload_text(static_cast<std::uint64_t>(100 + t),
                            /*vectors=*/1, /*vector_size=*/6),
              &client_error);
          ASSERT_TRUE(reply.has_value()) << client_error;
          ASSERT_TRUE(reply->at("ok").as_bool()) << reply->dump();
          ids.push_back(
              static_cast<std::uint64_t>(reply->at("job_id").as_int()));
        }
        for (const std::uint64_t id : ids) {
          const obs::JsonValue final_status = wait_for_job(client, id);
          EXPECT_EQ(final_status.at("state").as_string(), "DONE");
        }
      });
    }
    for (std::thread& t : clients) t.join();

    Client control;
    ASSERT_TRUE(control.connect(socket, &error)) << error;
    const auto stats_reply = control.stats(&error);
    ASSERT_TRUE(stats_reply.has_value()) << error;
    const obs::JsonValue& stats = stats_reply->at("stats");
    EXPECT_EQ(stats.at("submitted").as_int(), kThreads * kJobsPerThread);
    EXPECT_EQ(stats.at("admitted").as_int() + stats.at("rejected").as_int(),
              stats.at("submitted").as_int());
    EXPECT_EQ(stats.at("completed").as_int(), stats.at("admitted").as_int());
    EXPECT_EQ(stats.at("failed").as_int(), 0);

    if (lanes != 0) {
      for (const auto& [key, value] : stats.members()) {
        if (value.kind() == obs::JsonValue::Kind::kInt) {
          totals[key] = value.as_int();
        }
      }
    } else {
      // Serial session, same submissions: identical accounting totals.
      for (const auto& [key, value] : stats.members()) {
        if (value.kind() == obs::JsonValue::Kind::kInt) {
          EXPECT_EQ(value.as_int(), totals[key]) << key;
        }
      }
    }
    ASSERT_TRUE(control.drain(&error).has_value()) << error;
    control.close();
    EXPECT_EQ(session.join(), 0);
  }
}

TEST(Service, OversizedFrameGetsStructuredErrorOverTheWire) {
  const std::string socket = test_socket_path("oversize");
  ServerConfig config;
  config.socket_path = socket;
  config.cluster.num_devices = 2;

  ServeSession session(std::move(config));
  std::string error;
  ASSERT_TRUE(session.begin(&error)) << error;

  Client client;
  ASSERT_TRUE(client.connect(socket, &error)) << error;

  // A submit whose frame blows past the daemon's frame ceiling.
  const auto oversized = client.submit(
      "big", "", std::string(kDefaultMaxFrameBytes + 1, 'x'), &error);
  ASSERT_TRUE(oversized.has_value()) << error;
  EXPECT_FALSE(oversized->at("ok").as_bool());
  EXPECT_EQ(oversized->at("code").as_string(), error_code::kFrameTooLong);

  // The connection survives: a small request on the same socket still works.
  const auto stats = client.stats(&error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_TRUE(stats->at("ok").as_bool());

  // Malformed workload text (frame fits, payload does not parse).
  const auto bad = client.submit("big", "", "not a workload", &error);
  ASSERT_TRUE(bad.has_value()) << error;
  EXPECT_FALSE(bad->at("ok").as_bool());
  EXPECT_EQ(bad->at("code").as_string(), error_code::kBadWorkload);

  ASSERT_TRUE(client.drain(&error).has_value()) << error;
  client.close();
  EXPECT_EQ(session.join(), 0);
}

TEST(Service, StructurallyInvalidWorkloadIsRejectedAndServingContinues) {
  // Admission checks structure and sizes, not just syntax: the journaled
  // daemon answers bad_workload, journals nothing for it, counts it in
  // stats as submitted and rejected, and runs the next job. The second
  // text's tensors hold 2^64 bytes each; the last two write output id
  // 2^64 - 1, once in decimal and once spelled -1.
  const std::string socket = test_socket_path("selfmw");
  const std::string journal = tmp_file_path("selfmw.journal");
  ServerConfig config;
  config.socket_path = socket;
  config.cluster.num_devices = 1;
  config.journal.path = journal;
  ServeSession session(std::move(config));
  std::string error;
  ASSERT_TRUE(session.begin(&error)) << error;
  Client client;
  ASSERT_TRUE(client.connect(socket, &error)) << error;

  const std::pair<const char*, const char*> rejected[] = {
      {kSelfConsumingWorkload, "consumes tensor 1"},
      {"micco-workload v1\nmeta 2 1 1 0 uniform\nvectors 1\nvector 1\n"
       "task 0 2 1073741824 1 1 2 1073741824 1 2 2 1073741824 1\n",
       "payload exceeds"},
      {kInvalidOutputWorkload, "invalid output descriptor"},
      {kSignedOutputWorkload, "truncated tensor descriptor"},
  };
  for (const auto& [text, message] : rejected) {
    const auto bad = client.submit("alice", "bad", text, &error);
    ASSERT_TRUE(bad.has_value()) << error;
    ASSERT_FALSE(bad->at("ok").as_bool()) << bad->dump();
    EXPECT_EQ(bad->at("code").as_string(), error_code::kBadWorkload);
    EXPECT_NE(bad->at("message").as_string().find(message), std::string::npos)
        << bad->dump();
  }

  const auto good = client.submit("alice", "valid", workload_text(3), &error);
  ASSERT_TRUE(good.has_value()) << error;
  ASSERT_TRUE(good->at("ok").as_bool()) << good->dump();
  const auto job_id = static_cast<std::uint64_t>(good->at("job_id").as_int());
  EXPECT_EQ(wait_for_job(client, job_id).at("state").as_string(), "DONE");

  // The book counts every refusal as a submit: admitted + rejected ==
  // submitted, for the tenant too.
  const auto stats = client.stats(&error);
  ASSERT_TRUE(stats.has_value()) << error;
  const obs::JsonValue& book = stats->at("stats");
  EXPECT_EQ(book.at("submitted").as_int(), 5);
  EXPECT_EQ(book.at("admitted").as_int(), 1);
  EXPECT_EQ(book.at("rejected").as_int(), 4);
  EXPECT_EQ(book.at("tenants").at("alice").at("rejected").as_int(), 4);

  ASSERT_TRUE(client.drain(&error).has_value()) << error;
  client.close();
  EXPECT_EQ(session.join(), 0);
  for (const JournalRecord& record : read_journal_file(journal).records) {
    EXPECT_EQ(record.job_id, job_id);
  }
}

TEST(Service, MalformedFramesGetStructuredErrorReplies) {
  const std::string socket = test_socket_path("badframe");
  ServerConfig config;
  config.socket_path = socket;
  config.cluster.num_devices = 2;

  ServeSession session(std::move(config));
  std::string error;
  ASSERT_TRUE(session.begin(&error)) << error;

  Client client;
  ASSERT_TRUE(client.connect(socket, &error)) << error;
  // Valid JSON that is not a request object → bad_request.
  const auto reply = client.call(obs::JsonValue("not an object"), &error);
  ASSERT_TRUE(reply.has_value()) << error;
  EXPECT_FALSE(reply->at("ok").as_bool());
  EXPECT_EQ(reply->at("code").as_string(), error_code::kBadRequest);

  // A line that is not JSON at all → bad_frame, over a raw socket.
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ASSERT_LT(socket.size(), sizeof(addr.sun_path));
  std::memcpy(addr.sun_path, socket.c_str(), socket.size() + 1);
  const int raw = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(raw, 0);
  ASSERT_EQ(::connect(raw, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const std::string garbage = "this is not json\n";
  ASSERT_EQ(::send(raw, garbage.data(), garbage.size(), 0),
            static_cast<ssize_t>(garbage.size()));
  FrameReader raw_reader;
  std::optional<std::string> line;
  while (!line.has_value()) {
    char buf[4096];
    const ssize_t n = ::recv(raw, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0);
    raw_reader.feed(std::string_view(buf, static_cast<std::size_t>(n)));
    line = raw_reader.next_frame();
  }
  ::close(raw);
  const auto bad_frame = obs::parse_json(*line, &error);
  ASSERT_TRUE(bad_frame.has_value()) << error;
  EXPECT_FALSE(bad_frame->at("ok").as_bool());
  EXPECT_EQ(bad_frame->at("code").as_string(), error_code::kBadFrame);

  ASSERT_TRUE(client.drain(&error).has_value()) << error;
  client.close();
  EXPECT_EQ(session.join(), 0);
}

TEST(Service, ServesThroughInjectedDeviceFailure) {
  const std::string socket = test_socket_path("faults");
  FaultPlan plan;
  plan.device_failures.push_back(DeviceFailure{1, 1e-4});
  ServerConfig config;
  config.socket_path = socket;
  config.cluster.num_devices = 4;
  config.faults = &plan;

  ServeSession session(std::move(config));
  std::string error;
  ASSERT_TRUE(session.begin(&error)) << error;

  Client client;
  ASSERT_TRUE(client.connect(socket, &error)) << error;
  const auto reply =
      client.submit("resilient", "", workload_text(31, 2, 12), &error);
  ASSERT_TRUE(reply.has_value()) << error;
  ASSERT_TRUE(reply->at("ok").as_bool()) << reply->dump();
  const obs::JsonValue final_status = wait_for_job(
      client, static_cast<std::uint64_t>(reply->at("job_id").as_int()));
  EXPECT_EQ(final_status.at("state").as_string(), "DONE");
  const obs::JsonValue& result = final_status.at("result");
  EXPECT_EQ(result.at("devices_lost").as_int(), 1);
  EXPECT_TRUE(result.at("recovered").as_bool());

  ASSERT_TRUE(client.drain(&error).has_value()) << error;
  client.close();
  EXPECT_EQ(session.join(), 0);
}

TEST(Service, AutoMintedIdempotencyTokensAreDistinctAcrossClients) {
  // Auto-minted tokens carry per-client entropy on top of the deterministic
  // trace id: two independent clients submitting the same (tenant, name) —
  // the shape of two separate CLI invocations — must admit two jobs, not
  // have the second silently answered as a duplicate of the first.
  const std::string socket = test_socket_path("autotok");
  ServerConfig config;
  config.socket_path = socket;
  config.cluster.num_devices = 4;
  ServeSession session(std::move(config));
  std::string error;
  ASSERT_TRUE(session.begin(&error)) << error;

  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.base_backoff_s = 1e-4;

  Client first;
  ASSERT_TRUE(first.connect(socket, &error)) << error;
  const auto a = first.submit_retrying("alice", "same-name",
                                       workload_text(61), "", policy, &error);
  ASSERT_TRUE(a.has_value()) << error;
  ASSERT_TRUE(a->at("ok").as_bool()) << a->dump();
  EXPECT_EQ(a->find("duplicate"), nullptr) << a->dump();

  Client second;
  ASSERT_TRUE(second.connect(socket, &error)) << error;
  const auto b = second.submit_retrying("alice", "same-name",
                                        workload_text(61), "", policy, &error);
  ASSERT_TRUE(b.has_value()) << error;
  ASSERT_TRUE(b->at("ok").as_bool()) << b->dump();
  EXPECT_EQ(b->find("duplicate"), nullptr) << b->dump();
  EXPECT_NE(a->at("job_id").as_int(), b->at("job_id").as_int());

  // An explicit token still dedupes across clients — entropy only guards
  // the auto-minted path.
  const auto c1 = first.submit_retrying("alice", "pinned", workload_text(62),
                                        "tok-x", policy, &error);
  ASSERT_TRUE(c1.has_value()) << error;
  ASSERT_TRUE(c1->at("ok").as_bool()) << c1->dump();
  const auto c2 = second.submit_retrying("alice", "pinned", workload_text(62),
                                         "tok-x", policy, &error);
  ASSERT_TRUE(c2.has_value()) << error;
  ASSERT_TRUE(c2->at("ok").as_bool()) << c2->dump();
  EXPECT_NE(c2->find("duplicate"), nullptr) << c2->dump();
  EXPECT_EQ(c1->at("job_id").as_int(), c2->at("job_id").as_int());

  wait_for_job(first,
               static_cast<std::uint64_t>(c1->at("job_id").as_int()));
  ASSERT_TRUE(first.drain(&error).has_value()) << error;
  first.close();
  second.close();
  EXPECT_EQ(session.join(), 0);
}

TEST(Service, StartFailsCleanlyOnBadConfig) {
  // Socket already bound by another server.
  const std::string socket = test_socket_path("busy");
  ServerConfig first;
  first.socket_path = socket;
  ServeSession session(std::move(first));
  std::string error;
  ASSERT_TRUE(session.begin(&error)) << error;

  // The probe-connect check refuses while the first daemon answers — and
  // must NOT unlink the live daemon's socket.
  ServerConfig second;
  second.socket_path = socket;
  Server duplicate(std::move(second));
  EXPECT_FALSE(duplicate.start(&error));
  EXPECT_NE(error.find("another daemon"), std::string::npos) << error;
  Client still_there;
  ASSERT_TRUE(still_there.connect(socket, &error)) << error;
  still_there.close();

  session.server().request_shutdown();
  EXPECT_EQ(session.join(), 0);

  // Unreadable model path.
  ServerConfig bad_model;
  bad_model.socket_path = test_socket_path("badmodel");
  bad_model.model_path = "/nonexistent/model.mm";
  Server no_model(std::move(bad_model));
  EXPECT_FALSE(no_model.start(&error));
  EXPECT_NE(error.find("model"), std::string::npos) << error;
}

TEST(Service, ZeroGpuServerDoesNotStart) {
  // Refused before the socket is bound: a job it admitted would fail on
  // dispatch, and a journal would replay it on every restart.
  ServerConfig config;
  config.socket_path = test_socket_path("nogpus");
  config.cluster.num_devices = 0;
  Server server(std::move(config));
  std::string error;
  EXPECT_FALSE(server.start(&error));
  EXPECT_NE(error.find("num_devices"), std::string::npos) << error;
  Client client;
  EXPECT_FALSE(client.connect(test_socket_path("nogpus"), &error));
}

TEST(Service, OverweightTenantDoesNotStart) {
  // A tenant weight above AdmissionConfig::kMaxWeight would stride 0: its
  // pass would never advance, and every tenant that sorts after it would
  // wait out its whole backlog. Refused before the socket is bound.
  ServerConfig config;
  config.socket_path = test_socket_path("heavy");
  config.admission.tenant_weights["alice"] = 1 << 21;
  Server server(std::move(config));
  std::string error;
  EXPECT_FALSE(server.start(&error));
  EXPECT_NE(error.find("tenant 'alice'"), std::string::npos) << error;
  Client client;
  EXPECT_FALSE(client.connect(test_socket_path("heavy"), &error));
}

TEST(Service, ClientDeadlineExpiresAsStructuredTimeout) {
  // A listener that accepts connections but never replies: the deadline
  // must surface as a structured {"ok": false, "code": "timeout"} reply —
  // not a hang, not a transport error — and close the connection so a late
  // reply can never answer a later request.
  const std::string socket = test_socket_path("deadline");
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket.c_str(), socket.size() + 1);
  ASSERT_EQ(::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 4), 0);

  Client client;
  std::string error;
  ASSERT_TRUE(client.connect(socket, &error)) << error;
  client.set_deadline_ms(40.0);
  const auto reply = client.stats(&error);
  ASSERT_TRUE(reply.has_value()) << error;
  EXPECT_FALSE(reply->at("ok").as_bool());
  EXPECT_EQ(reply->at("code").as_string(), error_code::kTimeout);
  EXPECT_FALSE(client.connected());

  // Reconnect with backoff succeeds against the same listener.
  RetryPolicy policy;
  policy.base_backoff_s = 1e-3;
  ASSERT_TRUE(client.connect_retry(socket, policy, &error)) << error;
  EXPECT_TRUE(client.connected());
  client.close();
  ::close(listener);
  ::unlink(socket.c_str());
}

}  // namespace
}  // namespace micco::service
