// The pipeline half of every workload: run_stream timed on one job, and the
// per-layer ledger of that job.
//
// For the ledger the bench drives the pipeline's public calls itself, in
// run_stream's order, with a clock read after each call. run_stream and the
// same driver without clock reads run in the same rounds, so the ledger
// also yields the pipeline's own share of run_stream
// (core.pipeline_self_frac) and the cost of the clock reads
// (tracing_overhead_frac). Nothing in src/ changes.
#include <chrono>
#include <cstdio>
#include <optional>
#include <sstream>

#include "common/stopwatch.hpp"
#include "core/experiment.hpp"
#include "e2e.hpp"
#include "obs/names.hpp"
#include "service/journal.hpp"
#include "service/protocol.hpp"
#include "workload/serialize.hpp"

namespace micco::e2e {

namespace {

using Clock = std::chrono::steady_clock;

/// Wall time the timed driver spent in each layer call, nanoseconds.
struct LayerTimes {
  double cluster = 0.0;  ///< ClusterSimulator construction and teardown
  double extract = 0.0;
  double bounds = 0.0;
  double begin = 0.0;
  double assign = 0.0;
  double execute = 0.0;
  double end = 0.0;
  double barrier = 0.0;

  double total() const {
    return cluster + extract + bounds + begin + assign + execute + end +
           barrier;
  }
};

/// The fault-free pipeline for pairs as given: a fresh cluster, then per
/// vector extract characteristics, bounds_for + set_reuse_bounds,
/// begin_vector, assign and execute per pair, end_vector, barrier. kTimed
/// reads the clock after each call; consecutive reads bracket a call, so
/// one read times it.
template <bool kTimed>
ExecutionMetrics drive(const Job& job, Scheduler& scheduler, LayerTimes& times,
                       std::uint64_t& decisions, bool& ok) {
  auto* micco = dynamic_cast<MiccoScheduler*>(&scheduler);
  Clock::time_point last{};
  if constexpr (kTimed) last = Clock::now();
  const auto lap = [&](double& into) {
    if constexpr (kTimed) {
      const Clock::time_point now = Clock::now();
      into += std::chrono::duration<double, std::nano>(now - last).count();
      last = now;
    }
  };
  std::optional<ClusterSimulator> sim(std::in_place, job.cluster);
  lap(times.cluster);
  for (const VectorWorkload& vec : job.stream->vectors) {
    if (vec.tasks.empty()) continue;
    const DataCharacteristics characteristics =
        extract_characteristics(vec, *sim);
    lap(times.extract);
    if (job.bounds != nullptr && micco != nullptr) {
      micco->set_reuse_bounds(job.bounds->bounds_for(characteristics));
    }
    lap(times.bounds);
    scheduler.begin_vector(vec, *sim);
    lap(times.begin);
    for (const ContractionTask& task : vec.tasks) {
      const DeviceId dev = scheduler.assign(task, *sim);
      lap(times.assign);
      ok = sim->execute(task, dev).ok() && ok;
      lap(times.execute);
      ++decisions;
    }
    scheduler.end_vector();
    lap(times.end);
    sim->barrier();
    lap(times.barrier);
  }
  const ExecutionMetrics metrics = sim->metrics();
  if constexpr (kTimed) last = Clock::now();
  sim.reset();
  lap(times.cluster);
  return metrics;
}

}  // namespace

PipelineTiming time_pipeline(double seconds, const Job& job,
                             Result& result) {
  const auto pairs = static_cast<double>(count_pairs(*job.stream));
  PipelineTiming timing;
  std::vector<double> pairs_per_s;
  bool identical = true;
  Stopwatch window;
  do {
    timing.probe.maybe_sample(100.0);
    const std::unique_ptr<Scheduler> scheduler = make_scheduler(job.scheduler);
    Stopwatch watch;
    const RunResult run =
        run_stream(*job.stream, *scheduler, job.cluster, job.bounds);
    const double ms = watch.elapsed_ms();
    const bool ok =
        run.completed && same_metrics(run.metrics, job.reference.metrics);
    identical = identical && ok;
    result.attempt(1, ok ? 0 : 1);
    const double normalized_ms = ms / timing.probe.recent_slowdown();
    timing.raw_wall_ms.push_back(ms);
    timing.wall_ms.push_back(normalized_ms);
    pairs_per_s.push_back(pairs / (normalized_ms / 1e3));
  } while (window.elapsed_ms() < seconds * 1e3);
  result.check(identical, "simulated metrics bit-identical across runs");
  timing.pairs_per_s = distribution(pairs_per_s);
  timing.jobs_per_s =
      static_cast<double>(timing.wall_ms.size()) /
      ((window.elapsed_ms() - timing.probe.spent_ms()) / 1e3) *
      timing.probe.slowdown();
  return timing;
}

TraceSummary trace_job(const Options& opts, double seconds, const Job& job,
                       Result& result) {
  HostProbe probe;
  const ExecutionMetrics& reference = job.reference.metrics;
  const std::size_t pairs = count_pairs(*job.stream);

  std::vector<double> stream_us;
  std::vector<double> plain_us;
  std::vector<double> timed_us;
  LayerTimes sum;
  std::uint64_t timed_decisions = 0;
  bool stream_matches = true;
  bool driver_matches = true;
  bool decisions_match = true;

  // The three variants rotate their order each round, so a slow spell of
  // the host falls on all of them alike.
  Stopwatch window;
  std::size_t round = 0;
  do {
    probe.maybe_sample(100.0);
    for (std::size_t k = 0; k < 3; ++k) {
      const std::size_t variant = (round + k) % 3;
      const std::unique_ptr<Scheduler> scheduler =
          make_scheduler(job.scheduler);
      bool ok = true;
      Stopwatch watch;
      if (variant == 0) {
        const RunResult run =
            run_stream(*job.stream, *scheduler, job.cluster, job.bounds);
        stream_us.push_back(watch.elapsed_us());
        ok = run.completed && same_metrics(run.metrics, reference);
        stream_matches = stream_matches && ok;
      } else {
        LayerTimes times;
        std::uint64_t decisions = 0;
        const ExecutionMetrics metrics =
            variant == 1 ? drive<false>(job, *scheduler, times, decisions, ok)
                         : drive<true>(job, *scheduler, times, decisions, ok);
        const double us = watch.elapsed_us();
        ok = ok && same_metrics(metrics, reference);
        driver_matches = driver_matches && ok;
        decisions_match = decisions_match && decisions == pairs;
        if (variant == 1) {
          plain_us.push_back(us);
        } else {
          timed_us.push_back(us);
          sum.cluster += times.cluster;
          sum.extract += times.extract;
          sum.bounds += times.bounds;
          sum.begin += times.begin;
          sum.assign += times.assign;
          sum.execute += times.execute;
          sum.end += times.end;
          sum.barrier += times.barrier;
          timed_decisions += decisions;
        }
      }
      result.attempt(1, ok ? 0 : 1);
    }
    ++round;
  } while (window.elapsed_ms() < seconds * 1e3);

  result.check(stream_matches,
               "run_stream metrics bit-identical across repetitions");
  result.check(driver_matches,
               "traced driver's ExecutionMetrics equal run_stream's");
  result.check(decisions_match, "driver decisions equal pairs");

  const double slowdown = probe.slowdown();
  result.note_slowdown("ledger", probe);
  result.add("host_slowdown", "ratio", slowdown, probe.samples());
  const auto runs = static_cast<double>(timed_us.size());
  double timed_wall_ns = 0.0;
  for (const double us : timed_us) timed_wall_ns += us * 1e3;
  const auto per_job_us = [&](double ns) { return ns / runs / 1e3 / slowdown; };
  const auto norm = [&](double x) { return x / slowdown; };
  const auto share = [&](double ns) { return ns / timed_wall_ns; };
  const std::size_t n = timed_us.size();
  result.add(Layer::kGpusim, "cluster_us", "us", per_job_us(sum.cluster), n);
  result.add(Layer::kGpusim, "cluster_share", "fraction", share(sum.cluster),
             n);
  result.add(Layer::kWorkload, "extract_us", "us", per_job_us(sum.extract),
             n);
  result.add(Layer::kWorkload, "extract_share", "fraction",
             share(sum.extract), n);
  result.add(Layer::kMl, "bounds_for_us", "us", per_job_us(sum.bounds), n);
  result.add(Layer::kMl, "bounds_for_share", "fraction", share(sum.bounds), n);
  result.add(Layer::kSched, "begin_vector_us", "us", per_job_us(sum.begin), n);
  result.add(Layer::kSched, "begin_vector_share", "fraction", share(sum.begin),
             n);
  result.add(Layer::kSched, "assign_us", "us", per_job_us(sum.assign), n);
  result.add(Layer::kSched, "assign_share", "fraction", share(sum.assign), n);
  result.add(Layer::kSched, "assign_ns", "ns",
             norm(sum.assign / static_cast<double>(timed_decisions)),
             timed_decisions);
  result.add(Layer::kSched, "end_vector_share", "fraction", share(sum.end), n);
  result.add(Layer::kGpusim, "execute_us", "us", per_job_us(sum.execute), n);
  result.add(Layer::kGpusim, "execute_share", "fraction", share(sum.execute),
             n);
  result.add(Layer::kGpusim, "execute_ns", "ns",
             norm(sum.execute / static_cast<double>(timed_decisions)),
             timed_decisions);
  result.add(Layer::kGpusim, "barrier_us", "us", per_job_us(sum.barrier), n);
  result.add(Layer::kGpusim, "barrier_share", "fraction", share(sum.barrier),
             n);
  result.add(Layer::kCore, "driver_us", "us", norm(median(timed_us)), n);
  result.add(Layer::kCore, "run_stream_us", "us", norm(median(stream_us)),
             stream_us.size());
  result.add(Layer::kCore, "pipeline_self_frac", "fraction",
             1.0 - median(plain_us) / median(stream_us), stream_us.size());
  result.add("tracing_overhead_frac", "fraction",
             median(timed_us) / median(plain_us) - 1.0, n);

  result.add(Layer::kSched, "decisions", "count", static_cast<double>(pairs));
  result.add(Layer::kGpusim, "evictions", "count",
             static_cast<double>(reference.evictions));
  result.add(Layer::kGpusim, "writeback_gb", "GB",
             static_cast<double>(reference.writeback_bytes) / 1e9);
  result.add(Layer::kGpusim, "h2d_gb", "GB",
             static_cast<double>(reference.h2d_bytes) / 1e9);
  result.add(Layer::kGpusim, "reuse_rate", "fraction", reference.reuse_rate());

  // -- Offline replay of the job's daemon path -----------------------------
  const int reps = opts.smoke ? 3 : 20;
  std::vector<double> load_us;
  std::vector<double> protocol_us;
  std::vector<double> journal_us;
  std::vector<double> telemetry_us;
  service::JournalConfig journal_config;
  journal_config.path = opts.run_dir + "/replay.wal";
  journal_config.fsync = service::FsyncPolicy::kAlways;
  std::remove(journal_config.path.c_str());
  service::JournalWriter journal;
  std::string error;
  result.check(journal.open(journal_config, &error),
               "replay journal opens: " + error);
  // One registry and decision-latency meter for all replays, as the
  // dispatcher keeps one per session.
  obs::Telemetry telemetry;
  obs::HistogramScratch decision_latency(
      obs::names::decision_latency_bounds_us());
  bool replay_ok = true;
  for (int rep = 0; rep < reps; ++rep) {
    Stopwatch watch;
    std::istringstream in(job.text);
    const std::optional<WorkloadStream> loaded = load_stream(in);
    load_us.push_back(watch.elapsed_us());
    replay_ok = replay_ok && loaded.has_value();
    if (!loaded.has_value()) break;

    // Client encodes the submit, server decodes it and encodes its reply,
    // client decodes the reply.
    watch.restart();
    const std::string frame = service::encode_frame(
        service::make_submit_request("replay", "job", job.text));
    const std::optional<obs::JsonValue> doc =
        obs::parse_json(frame.substr(0, frame.size() - 1));
    obs::JsonValue error_reply;
    const std::optional<service::Request> request =
        doc.has_value() ? service::parse_request(*doc, &error_reply)
                        : std::nullopt;
    obs::JsonValue reply = service::make_ok_response();
    reply.set("job_id", static_cast<std::uint64_t>(rep));
    reply.set("state", "QUEUED");
    const std::string reply_frame = service::encode_frame(reply);
    const std::optional<obs::JsonValue> reply_doc =
        obs::parse_json(reply_frame.substr(0, reply_frame.size() - 1));
    protocol_us.push_back(watch.elapsed_us());
    replay_ok = replay_ok && request.has_value() && reply_doc.has_value() &&
                request->workload_text == job.text;

    // The three durable records of one job.
    watch.restart();
    service::JournalRecord record;
    record.job_id = static_cast<std::uint64_t>(rep) + 1;
    record.kind = service::RecordKind::kAdmitted;
    record.tenant = "replay";
    record.workload_text = job.text;
    bool appended = journal.append(record, &error);
    record.kind = service::RecordKind::kDispatched;
    appended = journal.append(record, &error) && appended;
    record.kind = service::RecordKind::kFinished;
    record.state = "DONE";
    record.result = obs::JsonValue::object();
    record.result.set("makespan_s", reference.makespan_s);
    record.result.set("gflops", reference.gflops());
    record.has_result = true;
    appended = journal.append(record, &error) && appended;
    journal_us.push_back(watch.elapsed_us());
    replay_ok = replay_ok && appended;

    // run_stream as the dispatcher calls it: telemetry attached.
    const std::unique_ptr<Scheduler> scheduler = make_scheduler(job.scheduler);
    RunOptions options;
    options.bounds = job.bounds;
    options.telemetry = &telemetry;
    options.decision_latency = &decision_latency;
    watch.restart();
    const RunResult run = run_stream(*loaded, *scheduler, job.cluster, options);
    telemetry_us.push_back(watch.elapsed_us());
    decision_latency.flush_into(telemetry.registry.histogram(
        obs::names::kSchedDecisionLatencyUs,
        obs::names::decision_latency_bounds_us()));
    replay_ok = replay_ok && run.completed &&
                same_metrics(run.metrics, reference);
  }
  journal.close();
  std::remove(journal_config.path.c_str());
  result.check(replay_ok && !load_us.empty(),
               "offline replay: loads, round-trips the protocol, journals "
               "and reproduces the reference run with telemetry attached");
  if (!replay_ok || load_us.empty()) return {};

  const auto r = static_cast<std::size_t>(reps);
  const std::uint64_t cache_hits =
      telemetry.registry.counter(obs::names::kSchedPatternCacheHits).value();
  const std::uint64_t cache_lookups =
      cache_hits +
      telemetry.registry.counter(obs::names::kSchedPatternCacheMisses).value();
  result.add(Layer::kWorkload, "load_stream_us", "us", norm(median(load_us)),
             r);
  result.add(Layer::kService, "protocol_us", "us", norm(median(protocol_us)),
             r);
  result.add(Layer::kService, "journal_append_us", "us",
             norm(median(journal_us)), r);
  result.add(Layer::kCore, "run_stream_telemetry_us", "us",
             norm(median(telemetry_us)), r);
  result.add(Layer::kSched, "pattern_cache_hit_ratio", "fraction",
             cache_lookups > 0 ? static_cast<double>(cache_hits) /
                                     static_cast<double>(cache_lookups)
                               : 0.0,
             cache_lookups);

  TraceSummary summary;
  summary.coverage = sum.total() / timed_wall_ns;
  std::vector<double> stream_ms;
  for (const double us : stream_us) stream_ms.push_back(norm(us) / 1e3);
  summary.run_stream_ms = distribution(stream_ms);
  return summary;
}

}  // namespace micco::e2e
