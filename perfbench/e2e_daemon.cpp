// Daemon workloads: a workflow driver submitting jobs to the crash-safe
// daemon (service on top of the batch pipeline). The Server runs in process
// in its `micco serve` defaults: serial loop at --threads=1, the `micco`
// scheduler with the trained model, an fsync=always journal. Two client
// threads run closed loops; the main thread is the monitor. Job latency is
// client-observed: submit start to the first status poll that sees a
// terminal state, with 100 us between polls.
//
//   daemon-a1rhopi-wal  each client keeps one a1_rhopi job in flight (404
//                       pairs, 18.5 KB of workload text): the submit-and-
//                       wait path of a Redstar driver, split between the
//                       service layer and the pipeline.
//   daemon-tiny-mixed   each client keeps 8 tiny jobs (1 vector x 12 slots)
//                       in flight from 4 tenants weighted 2:1:1:1, so fair-
//                       share queueing engages; a monitor polls metrics and
//                       stats every 10 ms. Framing, admission, journal
//                       appends and the read path dominate: where a service
//                       change shows and a pipeline change must not.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <thread>

#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_annotations.hpp"
#include "core/experiment.hpp"
#include "e2e.hpp"
#include "obs/names.hpp"
#include "redstar/correlator.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "workload/serialize.hpp"
#include "workload/synthetic.hpp"

namespace micco::e2e {

namespace {

using Clock = std::chrono::steady_clock;
using service::Client;

constexpr int kClients = 2;
constexpr int kWarmupJobs = 50;
constexpr auto kPollGap = std::chrono::microseconds(100);
constexpr auto kMonitorPeriod = std::chrono::milliseconds(10);
constexpr double kDeadlineMs = 5000.0;
/// Length of one slice of the live window, and probe samples between two.
constexpr double kSliceMs = 500.0;
constexpr int kProbesPerGap = 2;

/// What the clients submit: the distinct job texts, the tenants that submit
/// them and, per text, the offline run_stream every daemon result must
/// reproduce.
struct Mix {
  std::vector<std::string> texts;
  std::vector<WorkloadStream> streams;  ///< texts, loaded back
  std::vector<std::string> tenants;
  std::vector<int> weights;   ///< tiny: draw weight; a1rhopi: unused
  std::vector<RunResult> expected;
  std::size_t in_flight = 1;  ///< jobs each client keeps outstanding
  bool tiny = false;
};

Mix build_mix(const Options& opts) {
  Mix mix;
  mix.tiny = opts.workload == kTinyWorkload;
  std::vector<WorkloadStream> built;
  if (mix.tiny) {
    mix.tenants = {"t0", "t1", "t2", "t3"};
    mix.weights = {2, 1, 1, 1};
    mix.in_flight = 8;
    for (std::size_t t = 0; t < mix.tenants.size(); ++t) {
      SyntheticConfig config;
      config.num_vectors = 1;
      config.vector_size = 12;
      config.tensor_extent = 384;
      config.batch = 16;
      config.repeated_rate = 0.5;
      config.seed = opts.seed * mix.tenants.size() + t;
      built.push_back(generate_synthetic(config));
    }
  } else {
    mix.tenants = {"driver0", "driver1"};
    built.push_back(redstar::build_workload(redstar::make_a1_rhopi()).stream);
  }
  mix.streams = std::move(built);
  return mix;
}

/// Per-tenant text index: tiny tenants each submit their own job text.
std::size_t text_of(const Mix& mix, std::size_t tenant) {
  return mix.tiny ? tenant : 0;
}

/// An in-process daemon serving on its own thread until stopped; removes
/// its journal and socket lock file when destroyed.
class Daemon {
 public:
  explicit Daemon(service::ServerConfig config)
      : socket_(config.socket_path),
        journal_(config.journal.path),
        server_(std::move(config)) {}
  ~Daemon() {
    stop();
    std::remove(journal_.c_str());
    std::remove((socket_ + ".lock").c_str());
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool start(std::string* error) {
    if (!server_.start(error)) return false;
    thread_ = std::thread([this] { exit_code_ = server_.serve(); });
    return true;
  }

  /// Drains the backlog and waits for serve(); returns its exit code.
  int stop() {
    if (thread_.joinable()) {
      server_.request_drain();
      thread_.join();
    }
    return exit_code_;
  }

  const std::string& socket() const { return socket_; }

 private:
  std::string socket_;
  std::string journal_;
  service::Server server_;
  int exit_code_ = -1;
  std::thread thread_;
};

/// What one client thread saw.
struct ClientLog {
  std::vector<double> latency_ms;
  std::vector<double> submit_ms;
  std::vector<double> status_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t polls = 0;
  std::uint64_t pairs = 0;  ///< contraction pairs of the finished jobs
  bool results_match = true;
  std::string error;
};

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

bool reply_ok(const std::optional<obs::JsonValue>& reply) {
  const obs::JsonValue* ok = reply.has_value() ? reply->find("ok") : nullptr;
  return ok != nullptr && ok->as_bool();
}

/// One closed-loop client: keeps mix.in_flight jobs outstanding until
/// `deadline` or `max_jobs` submits, then waits for its own in-flight jobs.
/// Tenants are drawn from `rng` by weight.
void drive_client(Client& client, const Mix& mix, Pcg32& rng, int index,
                  Clock::time_point deadline, std::uint64_t max_jobs,
                  ClientLog& log) {
  struct Pending {
    std::uint64_t job_id;
    std::size_t text;
    Clock::time_point start;
  };
  int weight_total = 0;
  for (const int w : mix.weights) weight_total += w;
  std::vector<Pending> pending;
  std::string error;
  const auto fail = [&](const std::string& what) {
    ++log.failed;
    if (log.error.empty()) log.error = what;
  };
  for (;;) {
    const auto open = [&] {
      return log.attempted < max_jobs && Clock::now() < deadline;
    };
    while (pending.size() < mix.in_flight && open()) {
      std::size_t tenant = static_cast<std::size_t>(index);
      if (mix.tiny) {
        auto draw = static_cast<int>(
            rng.uniform_below(static_cast<std::uint32_t>(weight_total)));
        tenant = 0;
        while (draw >= mix.weights[tenant]) draw -= mix.weights[tenant++];
      }
      const std::size_t text = text_of(mix, tenant);
      const Clock::time_point start = Clock::now();
      const auto reply =
          client.submit(mix.tenants[tenant], "", mix.texts[text], &error);
      log.submit_ms.push_back(ms_since(start));
      ++log.attempted;
      if (!reply_ok(reply)) {
        fail("submit: " + (reply.has_value() ? reply->dump() : error));
        if (!client.connected()) return;
        continue;
      }
      pending.push_back(Pending{
          static_cast<std::uint64_t>(reply->at("job_id").as_int()), text,
          start});
    }
    if (pending.empty()) {
      if (!open()) return;
      continue;
    }
    for (std::size_t i = 0; i < pending.size();) {
      const Pending& job = pending[i];
      const Clock::time_point sent = Clock::now();
      const auto reply = client.status(job.job_id, &error);
      log.status_ms.push_back(ms_since(sent));
      ++log.polls;
      if (!reply_ok(reply)) {
        fail("status: " + (reply.has_value() ? reply->dump() : error));
        if (!client.connected()) {
          log.failed += pending.size() - 1;
          return;
        }
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
        continue;
      }
      const std::string& state = reply->at("state").as_string();
      if (state == "QUEUED" || state == "RUNNING") {
        ++i;
        continue;
      }
      const double latency = ms_since(job.start);
      const obs::JsonValue* doc = reply->find("result");
      const RunResult& expected = mix.expected[job.text];
      const bool match =
          doc != nullptr &&
          doc->at("gflops").as_double() == expected.metrics.gflops() &&
          doc->at("makespan_s").as_double() == expected.metrics.makespan_s;
      if (state != "DONE") {
        fail("job " + std::to_string(job.job_id) + " ended " + state);
      } else if (!match) {
        log.results_match = false;
        fail("job " + std::to_string(job.job_id) + " result differs");
      } else {
        log.latency_ms.push_back(latency);
        log.pairs += count_pairs(mix.streams[job.text]);
      }
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
    }
    if (!pending.empty()) std::this_thread::sleep_for(kPollGap);
  }
}

/// Counters and histogram totals read through the `metrics` verb.
struct ServerCounters {
  double journal_bytes = 0.0;
  double fsync_count = 0.0;
  double fsync_sum_ms = 0.0;
  double queue_count = 0.0;
  double queue_sum_ms = 0.0;
  double e2e_count = 0.0;
  double e2e_sum_ms = 0.0;
};

ServerCounters read_counters(const obs::JsonValue& reply, const Mix& mix) {
  ServerCounters t;
  const obs::JsonValue& metrics = reply.at("metrics");
  if (const obs::JsonValue* c =
          metrics.at("counters").find(obs::names::kServiceJournalBytes)) {
    t.journal_bytes = c->as_double();
  }
  const obs::JsonValue& histograms = metrics.at("histograms");
  const auto add = [&](const std::string& name, double& count, double& sum) {
    if (const obs::JsonValue* h = histograms.find(name)) {
      count += h->at("count").as_double();
      sum += h->at("sum").as_double();
    }
  };
  add(obs::names::kServiceJournalFsyncMs, t.fsync_count, t.fsync_sum_ms);
  add(obs::names::kServiceQueueLatencyMs, t.queue_count, t.queue_sum_ms);
  for (const std::string& tenant : mix.tenants) {
    add(obs::names::tenant_metric(tenant, obs::names::kTenantE2eLatencyMs),
        t.e2e_count, t.e2e_sum_ms);
  }
  return t;
}

std::vector<double> concat(const std::vector<ClientLog>& logs,
                           std::vector<double> ClientLog::*field) {
  std::vector<double> all;
  for (const ClientLog& log : logs) {
    all.insert(all.end(), (log.*field).begin(), (log.*field).end());
  }
  return all;
}

/// The live window: what the clients saw, raw, plus its host-normalized
/// rates (one per slice) and job latencies.
struct Live {
  std::vector<ClientLog> logs;
  std::vector<double> monitor_ms;
  std::vector<double> jobs_per_s;   ///< per slice, host-normalized
  std::vector<double> pairs_per_s;  ///< per slice, host-normalized
  std::vector<double> latency_ms;   ///< per finished job, host-normalized
  double rss_growth_kb = 0.0;
  bool monitor_ok = true;
  HostProbe probe;
};

/// Runs the clients (and, on the tiny mix, the monitor) against the daemon
/// for `seconds`, in slices of about kSliceMs. Each slice ends with every
/// client's in-flight jobs finished and the daemon idle; the probe runs
/// then, so it never runs beside the load, and each slice's jobs are
/// divided by the slowdown of the probes on either side of it.
Live drive_live(const std::vector<std::unique_ptr<Client>>& clients,
                const Mix& mix, std::uint64_t seed, double seconds) {
  Live live;
  live.logs.resize(kClients);
  std::vector<Pcg32> rngs;
  for (int c = 0; c < kClients; ++c) {
    rngs.emplace_back(seed, static_cast<std::uint64_t>(c));
  }
  Client& monitor = *clients[kClients];
  std::string error;
  const int slices =
      std::max(1, static_cast<int>(std::lround(seconds * 1e3 / kSliceMs)));
  const auto slice = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds / slices));
  const double rss_kb = current_rss_kb();
  live.probe.sample(kProbesPerGap);
  for (int s = 0; s < slices; ++s) {
    std::vector<std::size_t> marks;
    std::uint64_t pairs_before = 0;
    for (const ClientLog& log : live.logs) {
      marks.push_back(log.latency_ms.size());
      pairs_before += log.pairs;
    }
    /// MICCO_LOCK_FREE: the client threads' countdown the monitor loop
    /// polls; the joins below order everything the threads wrote.
    std::atomic<int> running MICCO_LOCK_FREE{kClients};
    const Clock::time_point begin = Clock::now();
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        const auto i = static_cast<std::size_t>(c);
        drive_client(*clients[i], mix, rngs[i], c, begin + slice,
                     ~std::uint64_t{0}, live.logs[i]);
        running.fetch_sub(1);
      });
    }
    while (mix.tiny && running.load() > 0) {
      const Clock::time_point sent = Clock::now();
      live.monitor_ok = reply_ok(monitor.metrics(&error)) && live.monitor_ok;
      live.monitor_ok = reply_ok(monitor.stats(&error)) && live.monitor_ok;
      live.monitor_ms.push_back(ms_since(sent));
      std::this_thread::sleep_until(sent + kMonitorPeriod);
    }
    for (std::thread& thread : threads) thread.join();
    const double wall_s = ms_since(begin) / 1e3;

    live.probe.sample(kProbesPerGap);
    const double slowdown = live.probe.recent_slowdown(2 * kProbesPerGap);
    std::size_t finished = 0;
    std::uint64_t pairs = 0;
    for (std::size_t c = 0; c < live.logs.size(); ++c) {
      const std::vector<double>& latency = live.logs[c].latency_ms;
      for (std::size_t i = marks[c]; i < latency.size(); ++i) {
        live.latency_ms.push_back(latency[i] / slowdown);
        ++finished;
      }
      pairs += live.logs[c].pairs;
    }
    pairs -= pairs_before;
    live.jobs_per_s.push_back(static_cast<double>(finished) / wall_s *
                              slowdown);
    live.pairs_per_s.push_back(static_cast<double>(pairs) / wall_s *
                               slowdown);
  }
  live.rss_growth_kb = current_rss_kb() - rss_kb;
  return live;
}

}  // namespace

void run_daemon(const Options& opts, Result& result) {
  SetupTimes setup;
  std::string first_model;
  std::unique_ptr<RegressionBoundsProvider> model;
  std::unique_ptr<Daemon> daemon;
  std::vector<std::unique_ptr<Client>> clients;  // kClients + monitor
  Mix mix;
  const std::string model_path = opts.run_dir + "/model.mm";
  const ClusterConfig cluster;  // the daemon's default cluster

  setup.probe.sample(10);
  for (int rep = 0; rep < setup_reps(opts); ++rep) {
    // The previous set-up's daemon goes first: it holds the model path.
    clients.clear();
    if (daemon != nullptr) {
      result.check(daemon->stop() == 0, "daemon drains cleanly");
      daemon.reset();
    }

    Stopwatch total;
    ModelTiming timing;
    std::string model_text;
    model = train_model(opts, model_path, &timing, &model_text);
    result.check(model != nullptr, "model trains, saves and loads");
    if (model == nullptr) return;
    if (rep == 0) first_model = model_text;
    result.check(model_text == first_model,
                 "model file identical across set-ups");

    Stopwatch watch;
    mix = build_mix(opts);
    setup.build_ms.push_back(watch.elapsed_ms());
    watch.restart();
    for (const WorkloadStream& stream : mix.streams) {
      std::ostringstream text;
      save_stream(stream, text);
      mix.texts.push_back(text.str());
    }
    setup.save_ms.push_back(watch.elapsed_ms());

    // Offline references, outside the set-up time: every daemon result
    // must equal run_stream of the same text with the same scheduler, seed
    // and model.
    watch.restart();
    for (const std::string& text : mix.texts) {
      const WorkloadStream loaded = load_checked(text, result);
      const std::unique_ptr<Scheduler> scheduler =
          make_scheduler(SchedulerKind::kMiccoNaive);
      mix.expected.push_back(
          run_stream(loaded, *scheduler, cluster, model.get()));
      check_run(mix.expected.back(), loaded, "offline reference", result);
    }
    const double reference_ms = watch.elapsed_ms();

    watch.restart();
    service::ServerConfig config;
    config.socket_path = opts.run_dir + "/d" + std::to_string(rep) + ".sock";
    config.scheduler = SchedulerKind::kMiccoNaive;  // `micco serve` default
    config.model_path = model_path;
    config.journal.path =
        opts.run_dir + "/journal" + std::to_string(rep) + ".wal";
    config.journal.fsync = service::FsyncPolicy::kAlways;
    for (std::size_t t = 0; t < mix.weights.size(); ++t) {
      config.admission.tenant_weights[mix.tenants[t]] = mix.weights[t];
    }
    // A journal left by an interrupted earlier run would be replayed.
    std::remove(config.journal.path.c_str());
    daemon = std::make_unique<Daemon>(std::move(config));
    std::string error;
    const bool started = daemon->start(&error);
    setup.start_ms.push_back(watch.elapsed_ms());
    result.check(started, "daemon starts: " + error);
    if (!started) return;
    for (int c = 0; c <= kClients; ++c) {
      clients.push_back(std::make_unique<Client>());
      clients.back()->set_deadline_ms(kDeadlineMs);
      result.check(clients.back()->connect(daemon->socket(), &error),
                   "client connects: " + error);
    }

    for (int c = 0; c < kClients; ++c) {
      Pcg32 rng(opts.seed, 1000 + static_cast<std::uint64_t>(c));
      ClientLog log;
      drive_client(*clients[static_cast<std::size_t>(c)], mix, rng, c,
                   Clock::time_point::max(), kWarmupJobs / kClients, log);
      result.check(log.failed == 0, "warm-up jobs succeed: " + log.error);
    }
    setup.total_s.push_back(total.elapsed_ms() / 1e3 - reference_ms / 1e3);
    setup.sweep_s.push_back(timing.sweep_s);
    setup.fit_s.push_back(timing.fit_s);
    setup.probe_after_setup();
  }
  if (daemon == nullptr) return;
  const double setup_rss_mb = peak_rss_mb();

  // -- Traced: the driver ledger on the daemon's first job text ------------
  // Before the live window, whose finished jobs the daemon keeps on the
  // heap: the pipeline's allocations would run against that.
  const double offline_s = opts.traced ? opts.seconds / 2 : 0.0;
  if (opts.traced) {
    Job offline;
    const WorkloadStream stream = load_checked(mix.texts[0], result);
    offline.stream = &stream;
    offline.text = mix.texts[0];
    offline.cluster = cluster;
    offline.scheduler = SchedulerKind::kMiccoNaive;
    offline.bounds = model.get();
    offline.reference = mix.expected[0];
    trace_job(opts, offline_s, offline, result);
  }

  // -- Live window ---------------------------------------------------------
  Client& monitor = *clients[kClients];
  std::string error;
  const std::optional<obs::JsonValue> before = monitor.metrics(&error);
  result.check(reply_ok(before), "metrics verb answers: " + error);
  if (!reply_ok(before)) return;
  const Live live =
      drive_live(clients, mix, opts.seed, opts.seconds - offline_s);
  result.check(live.monitor_ok, "monitor's metrics and stats polls answer");

  const std::optional<obs::JsonValue> after = monitor.metrics(&error);
  result.check(reply_ok(after), "metrics verb answers: " + error);
  if (!reply_ok(after)) return;
  const obs::JsonValue& stats = after->at("stats");
  result.check(stats.at("rejected").as_int() == 0 &&
                   stats.at("failed").as_int() == 0 &&
                   stats.at("cancelled").as_int() == 0 &&
                   stats.at("admitted").as_int() ==
                       stats.at("completed").as_int(),
               "daemon accounting: every admitted job completed, none "
               "rejected, failed or cancelled");
  clients.clear();
  result.check(daemon->stop() == 0, "daemon drains cleanly");

  for (const ClientLog& log : live.logs) {
    result.check(log.error.empty(), "client jobs succeed: " + log.error);
    result.check(log.results_match,
                 "daemon results equal offline run_stream");
    result.attempt(log.attempted, log.failed);
  }
  const std::size_t finished = live.latency_ms.size();
  result.check(finished > 0, "jobs finished in the window");
  if (finished == 0) return;
  const Distribution job = distribution(live.latency_ms);
  const Distribution job_raw =
      distribution(concat(live.logs, &ClientLog::latency_ms));
  const Distribution submit_rtt =
      distribution(concat(live.logs, &ClientLog::submit_ms));
  result.describe("job_ms", "ms", job);
  result.describe("job_ms_raw", "ms", job_raw);
  result.describe("submit_rtt_ms", "ms", submit_rtt);
  result.describe("status_rtt_ms", "ms",
                  distribution(concat(live.logs, &ClientLog::status_ms)));
  if (!live.monitor_ms.empty()) {
    result.describe("monitor_rtt_ms", "ms", distribution(live.monitor_ms));
  }
  result.note_slowdown("live window", live.probe);

  add_setup(setup, opts.traced, result);
  if (!opts.traced) {
    double gflops = 0.0;
    double transfer = 0.0;
    for (const RunResult& expected : mix.expected) {
      gflops += expected.metrics.gflops();
      transfer += transfer_gb(expected.metrics);
    }
    const auto texts = static_cast<double>(mix.expected.size());
    const std::size_t slices = live.jobs_per_s.size();
    result.add("pairs_per_s", "pairs/s", median(live.pairs_per_s), slices);
    result.describe("pairs_per_s", "pairs/s", distribution(live.pairs_per_s));
    result.add("jobs_per_s", "jobs/s", median(live.jobs_per_s), slices);
    result.describe("jobs_per_s", "jobs/s", distribution(live.jobs_per_s));
    result.add("job_p50_ms", "ms", job.p50, job.n);
    result.add("sim_gflops", "GFLOPS", gflops / texts, mix.expected.size());
    result.add("sim_transfer_gb", "GB", transfer / texts,
               mix.expected.size());
    result.add("peak_rss_mb", "MB", setup_rss_mb);
    return;
  }

  // Mean client latency = submit round trip + server time from admission
  // to completion (queue wait, then dispatch) + the delay until a poll
  // observes the terminal state, which is what the others leave over. All
  // raw: the shares are of the same clock.
  const ServerCounters t0 = read_counters(*before, mix);
  const ServerCounters t1 = read_counters(*after, mix);
  const double jobs = static_cast<double>(finished);
  const double mean_ms = job_raw.mean;
  const double queue_ms =
      (t1.queue_sum_ms - t0.queue_sum_ms) / (t1.queue_count - t0.queue_count);
  const double e2e_ms =
      (t1.e2e_sum_ms - t0.e2e_sum_ms) / (t1.e2e_count - t0.e2e_count);
  ServiceLedger ledger;
  ledger.jobs = finished;
  ledger.submit_rtt_share = submit_rtt.mean / mean_ms;
  ledger.queue_wait_share = queue_ms / mean_ms;
  ledger.dispatch_share = (e2e_ms - queue_ms) / mean_ms;
  ledger.observe_delay_share = 1.0 - ledger.submit_rtt_share -
                               ledger.queue_wait_share - ledger.dispatch_share;
  ledger.journal_fsync_share =
      (t1.fsync_sum_ms - t0.fsync_sum_ms) / jobs / mean_ms;
  double polls = 0.0;
  for (const ClientLog& log : live.logs) {
    polls += static_cast<double>(log.polls);
  }
  ledger.status_polls_per_job = polls / jobs;
  ledger.journal_bytes_per_job = (t1.journal_bytes - t0.journal_bytes) / jobs;
  add_service_ledger(ledger, result);
  result.add("attribution_coverage", "fraction",
             1.0 - ledger.observe_delay_share, finished);
  result.add("rss_growth_kb_per_job", "KB", live.rss_growth_kb / jobs,
             finished);
  result.add("job_p99_ms", "ms", job.p99, job.n);
}

}  // namespace micco::e2e
