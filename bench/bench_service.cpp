// bench_service — closed-loop throughput/latency of the scheduling daemon.
//
// Starts an in-process Server on a private Unix-domain socket, then drives
// it with N tenant client threads x M jobs each in closed loop: every
// thread keeps exactly one job outstanding (submit, poll status to a
// terminal state, read the server-measured queue latency from the result
// document, repeat). Written as BENCH_service.json:
//   1. jobs/sec over the whole session (all tenants, wall clock), and
//   2. p50 / p99 / max queue latency (submit -> terminal, measured by the
//      server's own session clock, so client poll granularity cannot skew
//      the tail), plus
//   3. the accounting totals (in a closed loop nothing queues past the
//      admission limits, so admitted == completed and rejected == 0).
//
// Flags: the shared bench set (--gpus --seed --threads ...), plus
//   --tenants=N  client threads, one tenant each (default 4)
//   --jobs=M     jobs per tenant (default 25)
//   --journal=FILE         run with the durable job journal enabled, to
//   --journal-fsync=POLICY measure the WAL's cost (never|interval|always;
//                          default always, matching the daemon)
//   --smoke      shrink for CI
//   --out=FILE   JSON destination (default BENCH_service.json)
//
// --threads sets the server's worker pool: 1 keeps the deterministic
// serial loop, >1 serves I/O on (threads - 1) lanes beside the dispatcher.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/stopwatch.hpp"
#include "obs/report.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "workload/serialize.hpp"

namespace micco::bench {
namespace {

using service::Client;
using service::Server;
using service::ServerConfig;

double percentile(std::vector<double> xs, double q) {
  MICCO_EXPECTS(!xs.empty());
  std::sort(xs.begin(), xs.end());
  const double rank = q * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

/// One tenant's closed loop; returns the server-measured queue latency of
/// every job it ran.
std::vector<double> drive_tenant(const std::string& socket,
                                 const std::string& tenant,
                                 const std::string& workload, int jobs) {
  Client client;
  std::string error;
  if (!client.connect(socket, &error)) {
    std::fprintf(stderr, "FAIL: %s: %s\n", tenant.c_str(), error.c_str());
    return {};
  }
  std::vector<double> latencies_ms;
  latencies_ms.reserve(static_cast<std::size_t>(jobs));
  for (int j = 0; j < jobs; ++j) {
    const auto submitted = client.submit(tenant, "", workload, &error);
    if (!submitted.has_value() || !submitted->at("ok").as_bool()) {
      std::fprintf(stderr, "FAIL: %s submit %d: %s\n", tenant.c_str(), j,
                   submitted.has_value() ? submitted->dump().c_str()
                                         : error.c_str());
      return latencies_ms;
    }
    const auto job_id =
        static_cast<std::uint64_t>(submitted->at("job_id").as_int());
    for (;;) {
      const auto reply = client.status(job_id, &error);
      if (!reply.has_value()) {
        std::fprintf(stderr, "FAIL: %s status: %s\n", tenant.c_str(),
                     error.c_str());
        return latencies_ms;
      }
      const std::string& state = reply->at("state").as_string();
      if (state == "QUEUED" || state == "RUNNING") {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        continue;
      }
      if (const obs::JsonValue* result = reply->find("result")) {
        latencies_ms.push_back(result->at("queue_latency_ms").as_double());
      }
      break;
    }
  }
  return latencies_ms;
}

int run(const CliArgs& args) {
  Env env = parse_env(args);
  const bool smoke = args.get_bool("smoke", false);
  const int tenants =
      static_cast<int>(args.get_int("tenants", smoke ? 2 : 4));
  const int jobs = static_cast<int>(args.get_int("jobs", smoke ? 4 : 25));
  const std::string out = args.get("out", "BENCH_service.json");
  const std::string journal = args.get("journal", "");
  const std::string fsync_name = args.get("journal-fsync", "always");
  warn_unused(args);
  print_header("Service Throughput & Queue Latency", "daemon closed loop");

  const std::string socket =
      "/tmp/micco_bench_svc_" + std::to_string(::getpid()) + ".sock";
  ::unlink(socket.c_str());

  ServerConfig config;
  config.socket_path = socket;
  config.cluster = env.cluster();
  config.seed = env.seed;
  config.io_lanes = parallel::configured_threads() - 1;
  // Closed loop: at most `tenants` jobs are in flight, so generous limits
  // mean admission control never rejects and every submit runs.
  config.admission.max_queue_per_tenant = static_cast<std::size_t>(jobs) + 1;
  config.admission.max_queued_total =
      static_cast<std::size_t>(tenants) * static_cast<std::size_t>(jobs) + 1;
  config.journal.path = journal;
  if (const auto policy = service::parse_fsync_policy(fsync_name)) {
    config.journal.fsync = *policy;
  } else {
    std::fprintf(stderr, "FAIL: --journal-fsync wants never|interval|always, "
                         "got '%s'\n",
                 fsync_name.c_str());
    return 1;
  }

  Server server(std::move(config));
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "FAIL: server start: %s\n", error.c_str());
    return 1;
  }
  int exit_code = -1;
  std::thread serve_thread([&] { exit_code = server.serve(); });

  // One small deterministic workload per tenant, serialized once up front
  // so the timed loop measures the daemon, not workload generation.
  std::vector<std::string> workloads;
  for (int t = 0; t < tenants; ++t) {
    SyntheticConfig cfg = base_synth(env);
    cfg.num_vectors = 1;
    cfg.vector_size = smoke ? 6 : 12;
    cfg.seed = env.seed + static_cast<std::uint64_t>(t);
    std::ostringstream text;
    save_stream(generate_synthetic(cfg), text);
    workloads.push_back(text.str());
  }

  Stopwatch wall;
  std::vector<std::vector<double>> per_tenant(
      static_cast<std::size_t>(tenants));
  std::vector<std::thread> drivers;
  for (int t = 0; t < tenants; ++t) {
    drivers.emplace_back([&, t] {
      per_tenant[static_cast<std::size_t>(t)] =
          drive_tenant(socket, "tenant" + std::to_string(t),
                       workloads[static_cast<std::size_t>(t)], jobs);
    });
  }
  for (std::thread& driver : drivers) driver.join();
  const double elapsed_s = wall.elapsed_ms() / 1e3;

  std::vector<double> latencies_ms;
  for (const std::vector<double>& xs : per_tenant) {
    latencies_ms.insert(latencies_ms.end(), xs.begin(), xs.end());
  }

  // Accounting snapshot before drain, then a clean shutdown.
  Client control;
  obs::JsonValue accounting = obs::JsonValue::object();
  if (control.connect(socket, &error)) {
    if (const auto stats = control.stats(&error)) {
      accounting = stats->at("stats");
    }
    control.drain(&error);
    control.close();
  }
  serve_thread.join();

  const auto total_jobs = static_cast<std::size_t>(tenants) *
                          static_cast<std::size_t>(jobs);
  const bool complete = latencies_ms.size() == total_jobs;
  if (!complete) {
    std::fprintf(stderr, "FAIL: %zu of %zu jobs finished (exit %d)\n",
                 latencies_ms.size(), total_jobs, exit_code);
  }
  if (latencies_ms.empty() || exit_code != 0) return 1;

  const double jobs_per_sec =
      static_cast<double>(latencies_ms.size()) / elapsed_s;
  const double p50 = percentile(latencies_ms, 0.50);
  const double p99 = percentile(latencies_ms, 0.99);
  const double max_ms =
      *std::max_element(latencies_ms.begin(), latencies_ms.end());

  TextTable table;
  table.add_column("metric", Align::kLeft);
  table.add_column("value");
  table.add_row({"tenants x jobs", std::to_string(tenants) + " x " +
                                       std::to_string(jobs)});
  table.add_row({"io lanes",
                 std::to_string(parallel::configured_threads() - 1)});
  table.add_row({"jobs/sec", stats::format(jobs_per_sec, 1)});
  table.add_row({"queue latency p50 ms", stats::format(p50, 3)});
  table.add_row({"queue latency p99 ms", stats::format(p99, 3)});
  table.add_row({"queue latency max ms", stats::format(max_ms, 3)});
  std::printf("%s", table.render().c_str());

  obs::JsonValue report = obs::JsonValue::object();
  report.set("bench", "service");
  report.set("gpus", env.gpus);
  report.set("tenants", tenants);
  report.set("jobs_per_tenant", jobs);
  report.set("total_jobs", static_cast<std::uint64_t>(latencies_ms.size()));
  report.set("io_lanes",
             static_cast<std::int64_t>(parallel::configured_threads() - 1));
  report.set("elapsed_s", elapsed_s);
  report.set("jobs_per_sec", jobs_per_sec);
  obs::JsonValue latency = obs::JsonValue::object();
  latency.set("p50_ms", p50);
  latency.set("p99_ms", p99);
  latency.set("max_ms", max_ms);
  latency.set("mean_ms", stats::mean(latencies_ms));
  report.set("queue_latency", std::move(latency));
  report.set("accounting", std::move(accounting));
  obs::write_report_file(report, out);
  std::printf("results written to %s\n", out.c_str());
  return 0;
}

}  // namespace
}  // namespace micco::bench

int main(int argc, char** argv) {
  return micco::bench::run(micco::CliArgs(argc, argv));
}
