// micco — command-line front door to the framework.
//
// Subcommands:
//   generate   synthesize a workload stream and write it to a file
//   run        schedule a workload file on the simulated cluster
//   train      sweep the tuner and write a trained bounds model
//   inspect    describe a workload or model file
//   report     summarise a span-tree trace file written by `serve --spans`
//   faults     parse and validate a fault-plan file
//   serve      run the multi-tenant scheduling daemon on a Unix socket
//   submit     send a workload file to a running daemon
//   status     query a job (or the daemon's stats) from a running daemon
//   top        live telemetry dashboard for a running daemon
//   drain      ask a running daemon to finish its backlog and exit
//
// Examples:
//   micco generate --out=w.mw --vector-size=64 --repeat=0.75 --gaussian
//   micco train --out=model.mm --samples=120 --gpus=8
//   micco run w.mw --scheduler=micco --model=model.mm --gpus=8 --trace=t.json
//   micco run w.mw --gpus=8 --report=r.json --decisions=d.jsonl
//   micco run w.mw --gpus=4 --fault-plan=faults.txt --retry-max=4
//   micco faults faults.txt --gpus=4
//   micco inspect w.mw
//   micco serve --socket=/tmp/micco.sock --gpus=8 --model=model.mm
//       --decisions=d.jsonl --report=serve.json --spans=spans.jsonl
//   micco submit w.mw --socket=/tmp/micco.sock --tenant=alice --wait
//   micco status 3 --socket=/tmp/micco.sock
//   micco top --socket=/tmp/micco.sock --once
//   micco report --spans=spans.jsonl        (offline trace summary)
//   micco drain --socket=/tmp/micco.sock
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/stats.hpp"
#include "core/bounds_model.hpp"
#include "faults/fault_plan.hpp"
#include "faults/retry.hpp"
#include "core/experiment.hpp"
#include "core/verify.hpp"
#include "graph/graph_stats.hpp"
#include "mem/policy.hpp"
#include "ml/serialize.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/report.hpp"
#include "parallel/parallel.hpp"
#include "obs/telemetry.hpp"
#include "sched/scheduler.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "workload/serialize.hpp"
#include "workload/synthetic.hpp"

namespace micco::cli {
namespace {

/// SIGTERM/SIGINT bridge for `micco serve`: the handler only flips this
/// flag; the server polls it and drains gracefully.
volatile std::sig_atomic_t g_stop_requested = 0;

extern "C" void handle_stop_signal(int) { g_stop_requested = 1; }

int usage() {
  std::fprintf(stderr,
               "usage: micco "
               "<generate|run|train|inspect|report|faults|serve|submit|"
               "status|top|drain> [flags]\n"
               "  generate --out=FILE [--vectors=10 --vector-size=64 "
               "--tensor=384 --batch=32 --repeat=0.5 --gaussian --seed=N]\n"
               "  run FILE [--scheduler=groute|dmda|micco|roundrobin] "
               "[--model=FILE] [--gpus=8] [--oversub=R] [--trace=FILE]\n"
               "      [--report=FILE --decisions=FILE]   (versioned run "
               "report, JSONL decision log)\n"
               "      [--fault-plan=FILE --retry-max=N --retry-backoff=S]\n"
               "      [--evict-policy=lru|reuse-distance]   (default lru)\n"
               "  train --out=FILE [--samples=120 --gpus=8 --seed=N --threads=N]\n"
               "  inspect FILE\n"
               "  report --spans=FILE [--pretty]   (summarise a span-tree "
               "trace file)\n"
               "  faults PLANFILE [--gpus=8]   (validate and summarise a "
               "fault plan)\n"
               "  serve --socket=PATH [--scheduler=NAME --gpus=8 "
               "--model=FILE --seed=N --threads=N]\n"
               "        [--decisions=FILE --report=FILE --spans=FILE] "
               "[--max-queue=N --max-total=N --slo-ms=N "
               "--weights=tenant:w,...]\n"
               "        [--fault-plan=FILE --retry-max=N --retry-backoff=S]\n"
               "        [--journal=FILE --journal-fsync=never|interval|always"
               " --journal-fsync-interval=N]\n"
               "        [--evict-policy=NAME]\n"
               "        (an existing --journal is replayed: finished jobs "
               "answer again, interrupted jobs re-run)\n"
               "  submit FILE --socket=PATH [--tenant=NAME --name=LABEL "
               "--wait]\n"
               "         [--idem=TOKEN --deadline-ms=N --retry-max=N "
               "--retry-backoff=S]\n"
               "         (--idem dedupes server-side; --retry-max>0 "
               "reconnects and resends under one token)\n"
               "  status [JOB_ID] --socket=PATH   (no JOB_ID: daemon stats)\n"
               "  top --socket=PATH [--interval-ms=1000 --iterations=N "
               "--once]   (live telemetry dashboard)\n"
               "  drain --socket=PATH [--shutdown]   (--shutdown cancels "
               "queued jobs)\n");
  return 2;
}

/// Loads and validates the optional --fault-plan / --retry-* flags shared by
/// `run` and `serve`. Returns false (after printing a diagnostic) on any
/// malformed input; a missing --fault-plan leaves `plan` empty.
bool load_fault_flags(const CliArgs& args, const char* cmd, int num_devices,
                      std::optional<FaultPlan>* plan, RetryPolicy* retry) {
  retry->max_attempts = static_cast<int>(args.get_int("retry-max", 4));
  retry->base_backoff_s = args.get_double("retry-backoff", 1e-4);
  const std::string policy_problem = retry->validate();
  if (!policy_problem.empty()) {
    std::fprintf(stderr, "%s: invalid retry policy: %s\n", cmd,
                 policy_problem.c_str());
    return false;
  }
  const std::string path = args.get("fault-plan", "");
  if (path.empty()) return true;
  std::string error;
  *plan = load_fault_plan_file(path, &error);
  if (!plan->has_value()) {
    std::fprintf(stderr, "%s: %s\n", cmd, error.c_str());
    return false;
  }
  const std::string problem = (*plan)->validate(num_devices);
  if (!problem.empty()) {
    std::fprintf(stderr, "%s: invalid fault plan %s: %s\n", cmd, path.c_str(),
                 problem.c_str());
    return false;
  }
  return true;
}

/// Parses the --evict-policy flag shared by `run` and `serve` (default
/// lru); nullopt, after a diagnostic, for an unknown name.
std::optional<mem::EvictPolicyKind> evict_policy_flag(const CliArgs& args,
                                                      const char* cmd) {
  const std::string name = args.get("evict-policy", "lru");
  const std::optional<mem::EvictPolicyKind> kind =
      mem::parse_evict_policy(name);
  if (!kind.has_value()) {
    std::fprintf(stderr,
                 "%s: unknown eviction policy '%s' (want lru or "
                 "reuse-distance)\n",
                 cmd, name.c_str());
  }
  return kind;
}

/// Prints "cmd: <error>" for a malformed flag or for a malformed value a
/// typed getter has read so far. Each verb calls it once it has read its
/// flags, before any work, and exits 2 on true: `--gpus=4x` must not run
/// on 4 (or 8) GPUs.
bool rejects_values(const CliArgs& args, const char* cmd) {
  if (!args.error().has_value()) return false;
  std::fprintf(stderr, "%s: %s\n", cmd, args.error()->c_str());
  return true;
}

/// Prints "cmd: unknown flag --x" for every flag `known` does not name (and
/// the parse error of a malformed one). Each verb calls it first, with the
/// flags it reads, and exits 2 on true: a misspelt flag fails before any
/// work instead of silently running with the default.
bool rejects_flags(const CliArgs& args, const char* cmd,
                   std::initializer_list<std::string_view> known) {
  if (rejects_values(args, cmd)) return true;
  const std::vector<std::string> unknown = args.unknown(known);
  for (const std::string& name : unknown) {
    std::fprintf(stderr, "%s: unknown flag --%s\n", cmd, name.c_str());
  }
  return !unknown.empty();
}

/// Prints "cmd: problem" when a config's validate() found one; the verbs
/// then exit 2 instead of tripping a library precondition.
bool rejected(const char* cmd, const std::string& problem) {
  if (problem.empty()) return false;
  std::fprintf(stderr, "%s: %s\n", cmd, problem.c_str());
  return true;
}

/// Prints "cmd: cannot open <path>" unless `path` opens for writing. Verbs
/// call it before any work: the library writers abort on an I/O failure by
/// contract, and a bad output path should cost nothing.
bool cannot_write(const char* cmd, const std::string& path) {
  if (std::ofstream(path).good()) return false;
  std::fprintf(stderr, "%s: cannot open %s\n", cmd, path.c_str());
  return true;
}

/// Conservative per-task capacity floor for --oversub; zero for a workload
/// with no tasks (where oversubscription is meaningless).
std::uint64_t first_task_bytes(const WorkloadStream& stream) {
  for (const VectorWorkload& vec : stream.vectors) {
    if (!vec.tasks.empty()) return vec.tasks.front().a.bytes();
  }
  return 0;
}

/// One-line fault/recovery summary after a faulted run.
void print_fault_summary(const RunResult& result) {
  const ExecutionMetrics& m = result.metrics;
  if (!m.any_faults() && result.error.empty()) return;
  std::printf("faults: %d device(s) lost, %llu transfer fault(s), "
              "%llu task(s) re-executed, %s\n",
              result.devices_lost,
              static_cast<unsigned long long>(m.transfer_faults),
              static_cast<unsigned long long>(result.tasks_reexecuted),
              result.completed
                  ? (result.recovered ? "recovered" : "completed")
                  : "FAILED");
}

/// SchedulerKind by name; nullopt, after a diagnostic, for unknown names.
std::optional<SchedulerKind> scheduler_kind_by_name(const std::string& which) {
  if (which == "groute") return SchedulerKind::kGroute;
  if (which == "dmda") return SchedulerKind::kDmda;
  if (which == "roundrobin") return SchedulerKind::kRoundRobin;
  if (which == "micco") return SchedulerKind::kMiccoNaive;
  std::fprintf(stderr, "unknown scheduler '%s'\n", which.c_str());
  return std::nullopt;
}

int cmd_generate(const CliArgs& args) {
  if (rejects_flags(args, "generate",
                    {"out", "vectors", "vector-size", "tensor", "batch",
                     "repeat", "gaussian", "seed"})) {
    return 2;
  }
  const std::string out = args.get("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "generate: --out is required\n");
    return 2;
  }
  SyntheticConfig cfg;
  cfg.num_vectors = args.get_int("vectors", 10);
  cfg.vector_size = args.get_int("vector-size", 64);
  cfg.tensor_extent = args.get_int("tensor", 384);
  cfg.batch = args.get_int("batch", 32);
  cfg.repeated_rate = args.get_double("repeat", 0.5);
  cfg.distribution = args.get_bool("gaussian", false)
                         ? DataDistribution::kGaussian
                         : DataDistribution::kUniform;
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  if (rejects_values(args, "generate")) return 2;
  if (rejected("generate", cfg.validate())) return 2;
  if (cannot_write("generate", out)) return 1;
  const WorkloadStream stream = generate_synthetic(cfg);
  save_stream_file(stream, out);
  std::printf("wrote %zu vectors (%llu contractions, %.2f GiB footprint) to "
              "%s\n",
              stream.vectors.size(),
              static_cast<unsigned long long>(analyze_stream(stream).tasks),
              static_cast<double>(stream.total_distinct_bytes()) /
                  (1024.0 * 1024.0 * 1024.0),
              out.c_str());
  return 0;
}

int cmd_run(const CliArgs& args) {
  if (rejects_flags(args, "run",
                    {"scheduler", "model", "gpus", "oversub", "p2p",
                     "async-copy", "devices-per-node", "trace", "report",
                     "decisions", "fault-plan", "retry-max", "retry-backoff",
                     "evict-policy"})) {
    return 2;
  }
  if (args.positional().size() < 2) {
    std::fprintf(stderr, "run: workload file required\n");
    return 2;
  }
  std::string error;
  const auto stream = load_stream_file(args.positional()[1], &error);
  if (!stream) {
    std::fprintf(stderr, "run: %s\n", error.c_str());
    return 1;
  }
  const std::string structural = validate_stream_structure(*stream);
  if (!structural.empty()) {
    std::fprintf(stderr, "run: invalid workload: %s\n", structural.c_str());
    return 1;
  }

  ClusterConfig cluster;
  cluster.num_devices = static_cast<int>(args.get_int("gpus", 8));
  cluster.p2p_enabled = args.get_bool("p2p", false);
  cluster.overlap_transfers = args.get_bool("async-copy", false);
  cluster.devices_per_node =
      static_cast<int>(args.get_int("devices-per-node", 0));
  const double oversub = args.get_double("oversub", 0.0);
  if (oversub > 0.0) {
    const std::uint64_t task_bytes = first_task_bytes(*stream);
    if (task_bytes == 0) {
      std::fprintf(stderr,
                   "run: --oversub needs a workload with at least one task\n");
      return 1;
    }
    cluster.device_capacity_bytes = capacity_for_oversubscription(
        *stream, cluster.num_devices, oversub, 8 * task_bytes);
  }
  if (rejected("run", cluster.validate())) return 2;

  std::optional<FaultPlan> plan;
  RetryPolicy retry;
  if (!load_fault_flags(args, "run", cluster.num_devices, &plan, &retry)) {
    return 1;
  }

  const std::optional<SchedulerKind> kind =
      scheduler_kind_by_name(args.get("scheduler", "micco"));
  if (!kind.has_value()) return 2;
  const std::unique_ptr<Scheduler> scheduler = make_scheduler(*kind);

  // Optional pre-trained bounds model (only meaningful for MICCO).
  std::unique_ptr<RegressionBoundsProvider> provider;
  const std::string model_path = args.get("model", "");
  if (!model_path.empty()) {
    provider = load_bounds_model(model_path, &error);
    if (!provider) {
      std::fprintf(stderr, "run: %s\n", error.c_str());
      return 1;
    }
  }

  const std::string trace_path = args.get("trace", "");
  const std::string report_path = args.get("report", "");
  const std::string decisions_path = args.get("decisions", "");
  const std::optional<mem::EvictPolicyKind> policy_kind =
      evict_policy_flag(args, "run");
  if (!policy_kind.has_value() || rejects_values(args, "run")) return 2;
  for (const std::string* path : {&trace_path, &report_path, &decisions_path}) {
    if (!path->empty() && cannot_write("run", *path)) return 1;
  }
  const std::unique_ptr<mem::EvictionPolicy> evict_policy =
      mem::make_policy(*policy_kind);

  // Telemetry only when an output needs it: the decision log streams to its
  // JSONL file during the run, and the report is assembled from the
  // registry afterwards.
  obs::Telemetry telemetry;
  std::ofstream decisions_file;
  std::optional<obs::BufferedJsonlEventSink> sink;
  if (!decisions_path.empty()) {
    decisions_file.open(decisions_path);
    telemetry.sink = &sink.emplace(decisions_file);
  }

  TraceRecorder trace;
  RunOptions options;
  options.bounds = provider.get();
  options.trace = args.has("trace") ? &trace : nullptr;
  options.telemetry =
      report_path.empty() && decisions_path.empty() ? nullptr : &telemetry;
  options.faults = plan.has_value() ? &*plan : nullptr;
  options.retry = retry;
  options.evict_policy = evict_policy.get();

  const RunResult result = run_stream(*stream, *scheduler, cluster, options);
  const ExecutionMetrics& m = result.metrics;
  std::printf("%s: %.0f GFLOPS, makespan %.2f ms, %llu reuse hits, "
              "%llu fetches, %llu evictions, scheduling %.3f ms\n",
              result.scheduler_name.c_str(), m.gflops(), m.makespan_s * 1e3,
              static_cast<unsigned long long>(m.reused_operands),
              static_cast<unsigned long long>(m.fetched_operands),
              static_cast<unsigned long long>(m.evictions),
              result.scheduling_overhead_ms);
  std::printf("eviction policy %s: %llu eviction(s), %llu refetched "
              "byte(s) of evicted tensors\n",
              m.evict_policy.c_str(),
              static_cast<unsigned long long>(m.evictions),
              static_cast<unsigned long long>(m.eviction_refetch_bytes));
  print_fault_summary(result);

  // The report (with its "error" field) is written for a failed run too;
  // the exit code below tells scripts the stream did not complete.
  if (!report_path.empty()) {
    const obs::JsonValue report = make_run_report(result, telemetry);
    const std::string complaint = obs::validate_report(report);
    if (!complaint.empty()) {
      std::fprintf(stderr, "run: internal error: %s\n", complaint.c_str());
      return 1;
    }
    obs::write_report_file(report, report_path);
    std::printf("report written to %s\n", report_path.c_str());
  }
  if (sink.has_value()) {
    sink->flush();
    if (!decisions_file) {
      std::fprintf(stderr, "run: cannot write %s\n", decisions_path.c_str());
      return 1;
    }
    std::printf("decision log written to %s\n", decisions_path.c_str());
  }
  if (!result.completed) {
    std::fprintf(stderr, "run: %s\n", result.error.c_str());
    return 1;
  }

  if (!trace_path.empty()) {
    trace.write_chrome_json_file(trace_path);
    std::printf("timeline written to %s (chrome://tracing)\n",
                trace_path.c_str());
  }
  return 0;
}

int cmd_train(const CliArgs& args) {
  if (rejects_flags(args, "train",
                    {"out", "samples", "gpus", "batch", "seed", "threads"})) {
    return 2;
  }
  const std::string out = args.get("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "train: --out is required\n");
    return 2;
  }
  TunerConfig tuner;
  tuner.samples = static_cast<int>(args.get_int("samples", 120));
  tuner.num_devices = static_cast<int>(args.get_int("gpus", 8));
  tuner.batch = args.get_int("batch", 32);
  tuner.seed = static_cast<std::uint64_t>(args.get_int("seed", 2022));
  const auto threads = static_cast<int>(args.get_int("threads", 0));
  if (rejects_values(args, "train")) return 2;
  if (rejected("train", tuner.validate())) return 2;
  if (cannot_write("train", out)) return 1;
  // Sweep and forest fitting both fan out over the worker pool; labels and
  // the written model are byte-identical at every thread count.
  parallel::set_threads(threads);
  std::printf("sweeping %d samples x 27 bound triples (%d threads)...\n",
              tuner.samples, parallel::configured_threads());
  const TuningData data = generate_tuning_data(tuner);
  std::printf("simulated %llu of %llu grid runs\n",
              static_cast<unsigned long long>(data.grid_runs_simulated),
              static_cast<unsigned long long>(data.grid_runs_simulated +
                                              data.grid_runs_reused));
  const TrainedBoundsModel trained = train_bounds_model(
      data.samples, random_forest_factory(), "RandomForest", tuner.max_bound);
  std::printf("RandomForest held-out R^2 = %.2f\n", trained.report.mean_r2);

  // Persist the model refit on ALL samples for deployment (the report above
  // used the 80/20 split).
  ml::MultiOutputRegressor model(random_forest_factory(), 3);
  model.fit(build_bound_datasets(data.samples));
  std::ofstream file(out);
  save_bounds_model(model, file);
  if (!file.flush()) {
    std::fprintf(stderr, "train: cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("model written to %s\n", out.c_str());
  return 0;
}

int cmd_inspect(const CliArgs& args) {
  if (rejects_flags(args, "inspect", {})) return 2;
  if (args.positional().size() < 2) {
    std::fprintf(stderr, "inspect: file required\n");
    return 2;
  }
  const std::string path = args.positional()[1];
  std::string error;
  if (const auto stream = load_stream_file(path, &error)) {
    const StreamStats stats = analyze_stream(*stream);
    std::printf("workload: %s\n", to_string(stats).c_str());
    std::printf("footprint: %.2f GiB, %llu total GFLOP\n",
                static_cast<double>(stream->total_distinct_bytes()) /
                    (1024.0 * 1024.0 * 1024.0),
                static_cast<unsigned long long>(stream->total_flops() / 1000000000ull));
    const std::string structural = validate_stream_structure(*stream);
    std::printf("structure: %s\n",
                structural.empty() ? "valid" : structural.c_str());
    return 0;
  }
  std::ifstream in(path);
  std::string model_error;
  if (const auto model = ml::load_regressor(in, &model_error)) {
    std::printf("model: %s\n", model->name().c_str());
    return 0;
  }
  std::fprintf(stderr, "inspect: %s / %s\n", error.c_str(),
               model_error.c_str());
  return 1;
}

/// `micco report --spans=FILE`: offline summary of a span-tree trace file
/// (the JSONL written by `serve --spans`); workloads run through `micco run
/// --report`. Validates well-formedness — one root job span per trace, every
/// parent id resolving inside its trace, contiguous sink sequence numbers —
/// and recomputes per-tenant simulated-makespan quantiles from the root
/// spans with the same bucket bounds and interpolation the daemon's
/// `metrics` verb uses, so the offline numbers match the served ones
/// exactly.
int cmd_report(const CliArgs& args) {
  if (rejects_flags(args, "report", {"spans", "pretty"})) return 2;
  if (!args.has("spans")) {
    std::fprintf(stderr,
                 "report: --spans=FILE is required (run a workload with "
                 "`micco run FILE --report=R`)\n");
    return 2;
  }
  const std::string path = args.get("spans", "");
  const bool pretty = args.get_bool("pretty", true);
  if (rejects_values(args, "report")) return 2;
  std::ifstream in(path);
  if (!in.good()) {
    std::fprintf(stderr, "report: cannot open %s\n", path.c_str());
    return 1;
  }

  struct TraceInfo {
    std::set<std::uint64_t> span_ids;
    /// (span, parent) pairs for non-root spans, checked after the pass.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> edges;
    int roots = 0;
  };
  std::map<std::string, TraceInfo> traces;
  std::map<std::string, std::uint64_t> span_counts;
  std::map<std::string, obs::Histogram> tenant_sim_ms;
  std::vector<std::string> problems;
  const auto complain = [&problems](const std::string& what) {
    if (problems.size() < 8) problems.push_back(what);
  };

  std::string line;
  std::uint64_t lineno = 0;
  std::uint64_t spans = 0;
  for (; std::getline(in, line); ++lineno) {
    const std::string where = "line " + std::to_string(lineno + 1);
    std::string parse_error;
    const std::optional<obs::JsonValue> doc =
        obs::parse_json(line, &parse_error);
    if (!doc.has_value()) {
      complain(where + ": unparseable: " + parse_error);
      continue;
    }
    const obs::JsonValue* seq = doc->find("seq");
    const obs::JsonValue* trace = doc->find("trace");
    const obs::JsonValue* span = doc->find("span");
    const obs::JsonValue* parent = doc->find("parent");
    const obs::JsonValue* name = doc->find("name");
    if (seq == nullptr || trace == nullptr || span == nullptr ||
        parent == nullptr || name == nullptr || !seq->is_number() ||
        !span->is_number() || !parent->is_number() ||
        trace->kind() != obs::JsonValue::Kind::kString ||
        name->kind() != obs::JsonValue::Kind::kString) {
      complain(where + ": not a span record");
      continue;
    }
    // The sink stamps 0-based write order; a gap means lost or reordered
    // records.
    if (static_cast<std::uint64_t>(seq->as_int()) != lineno) {
      complain(where + ": sequence gap (seq " +
               std::to_string(seq->as_int()) + ")");
    }
    ++spans;
    ++span_counts[name->as_string()];
    TraceInfo& info = traces[trace->as_string()];
    const auto span_id = static_cast<std::uint64_t>(span->as_int());
    const auto parent_id = static_cast<std::uint64_t>(parent->as_int());
    if (!info.span_ids.insert(span_id).second) {
      complain(where + ": duplicate span id in trace " + trace->as_string());
    }
    if (parent_id != 0) {
      info.edges.emplace_back(span_id, parent_id);
      continue;
    }
    // Two legitimate roots: per-job spans and the one journal-replay span a
    // recovering daemon emits (DESIGN.md §8).
    if (name->as_string() != obs::names::kSpanJob &&
        name->as_string() != obs::names::kSpanJournalReplay) {
      complain(where + ": parentless span is not a root job span");
    }
    ++info.roots;
    const obs::JsonValue* tenant = doc->find("tenant");
    const obs::JsonValue* duration = doc->find("duration_ms");
    if (tenant != nullptr && duration != nullptr) {
      auto [it, inserted] = tenant_sim_ms.try_emplace(
          tenant->as_string(), obs::names::job_sim_ms_bounds());
      (void)inserted;
      it->second.observe(duration->as_double());
    }
  }

  for (const auto& [id, info] : traces) {
    if (info.roots != 1) {
      complain("trace " + id + ": " + std::to_string(info.roots) +
               " root spans (want 1)");
    }
    for (const auto& [span_id, parent_id] : info.edges) {
      if (info.span_ids.count(parent_id) == 0) {
        complain("trace " + id + ": span " + std::to_string(span_id) +
                 " has unknown parent " + std::to_string(parent_id));
        break;
      }
    }
  }

  obs::JsonValue out = obs::JsonValue::object();
  out.set("well_formed", problems.empty());
  out.set("spans", spans);
  out.set("traces", static_cast<std::uint64_t>(traces.size()));
  obs::JsonValue counts = obs::JsonValue::object();
  for (const auto& [name, count] : span_counts) counts.set(name, count);
  out.set("span_counts", std::move(counts));
  obs::JsonValue tenants = obs::JsonValue::object();
  for (const auto& [tenant, h] : tenant_sim_ms) {
    obs::JsonValue entry = obs::JsonValue::object();
    entry.set("count", h.count());
    entry.set("sum", h.sum());
    entry.set("mean", h.mean());
    entry.set("p50", h.quantile(0.5));
    entry.set("p90", h.quantile(0.9));
    entry.set("p99", h.quantile(0.99));
    tenants.set(tenant, std::move(entry));
  }
  out.set("tenant_job_sim_ms", std::move(tenants));
  if (!problems.empty()) {
    obs::JsonValue list = obs::JsonValue::array();
    for (const std::string& problem : problems) list.push_back(problem);
    out.set("problems", std::move(list));
  }
  std::printf("%s\n", pretty ? out.dump_pretty().c_str() : out.dump().c_str());
  return problems.empty() ? 0 : 1;
}

int cmd_faults(const CliArgs& args) {
  if (rejects_flags(args, "faults", {"gpus"})) return 2;
  if (args.positional().size() < 2) {
    std::fprintf(stderr, "faults: plan file required\n");
    return 2;
  }
  const std::string path = args.positional()[1];
  std::string error;
  const std::optional<FaultPlan> plan = load_fault_plan_file(path, &error);
  if (!plan.has_value()) {
    std::fprintf(stderr, "faults: %s\n", error.c_str());
    return 1;
  }
  const int gpus = static_cast<int>(args.get_int("gpus", 8));
  if (rejects_values(args, "faults")) return 2;
  const std::string problem = plan->validate(gpus);
  if (!problem.empty()) {
    std::fprintf(stderr, "faults: invalid for %d device(s): %s\n", gpus,
                 problem.c_str());
    return 1;
  }
  std::printf("%s", plan->summary().c_str());
  std::printf("valid for %d device(s)\n", gpus);
  return 0;
}

/// Parses --weights=tenant:w,tenant:w into the admission config.
bool parse_weights(const std::string& spec,
                   std::map<std::string, int>* weights) {
  std::stringstream list(spec);
  std::string entry;
  while (std::getline(list, entry, ',')) {
    const std::size_t colon = entry.find(':');
    if (colon == std::string::npos || colon == 0) return false;
    const int weight = std::atoi(entry.c_str() + colon + 1);
    if (weight <= 0) return false;
    (*weights)[entry.substr(0, colon)] = weight;
  }
  return true;
}

int cmd_serve(const CliArgs& args) {
  if (rejects_flags(
          args, "serve",
          {"socket", "scheduler", "seed", "model", "gpus", "p2p", "async-copy",
           "max-queue", "max-total", "weights", "slo-ms", "fault-plan",
           "retry-max", "retry-backoff", "evict-policy", "decisions", "report", "spans", "journal", "journal-fsync",
           "journal-fsync-interval", "journal-crash-after", "threads"})) {
    return 2;
  }
  const std::string socket = args.get("socket", "");
  if (socket.empty()) {
    std::fprintf(stderr, "serve: --socket is required\n");
    return 2;
  }
  service::ServerConfig cfg;
  cfg.socket_path = socket;
  const auto kind = scheduler_kind_by_name(args.get("scheduler", "micco"));
  if (!kind.has_value()) return 2;
  cfg.scheduler = *kind;
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
  cfg.model_path = args.get("model", "");
  cfg.cluster.num_devices = static_cast<int>(args.get_int("gpus", 8));
  cfg.cluster.p2p_enabled = args.get_bool("p2p", false);
  cfg.cluster.overlap_transfers = args.get_bool("async-copy", false);
  if (rejected("serve", cfg.cluster.validate())) return 2;

  std::optional<FaultPlan> plan;
  RetryPolicy retry;
  if (!load_fault_flags(args, "serve", cfg.cluster.num_devices, &plan,
                        &retry)) {
    return 1;
  }
  cfg.faults = plan.has_value() ? &*plan : nullptr;
  cfg.retry = retry;

  cfg.admission.max_queue_per_tenant =
      static_cast<std::size_t>(args.get_int("max-queue", 64));
  cfg.admission.max_queued_total =
      static_cast<std::size_t>(args.get_int("max-total", 256));
  const std::string weights = args.get("weights", "");
  if (!weights.empty() &&
      !parse_weights(weights, &cfg.admission.tenant_weights)) {
    std::fprintf(stderr,
                 "serve: --weights wants tenant:w,tenant:w with w > 0\n");
    return 2;
  }
  cfg.admission.slo_ms = args.get_double("slo-ms", 0.0);
  const std::optional<mem::EvictPolicyKind> policy_kind =
      evict_policy_flag(args, "serve");
  if (!policy_kind.has_value()) return 2;
  cfg.evict_policy = *policy_kind;
  cfg.decisions_path = args.get("decisions", "");
  cfg.report_path = args.get("report", "");
  cfg.spans_path = args.get("spans", "");

  cfg.journal.path = args.get("journal", "");
  const std::string fsync_name = args.get("journal-fsync", "always");
  const auto fsync_policy = service::parse_fsync_policy(fsync_name);
  if (!fsync_policy.has_value()) {
    std::fprintf(stderr,
                 "serve: --journal-fsync wants never|interval|always, got "
                 "'%s'\n",
                 fsync_name.c_str());
    return 2;
  }
  cfg.journal.fsync = *fsync_policy;
  cfg.journal.fsync_interval =
      static_cast<std::uint64_t>(args.get_int("journal-fsync-interval", 16));
  // Chaos-harness hook (tools/chaos_smoke.sh): SIGKILL after the Nth
  // durable record.
  cfg.journal.crash_after_records =
      static_cast<std::uint64_t>(args.get_int("journal-crash-after", 0));

  const auto threads = static_cast<int>(args.get_int("threads", 1));
  if (rejects_values(args, "serve")) return 2;
  // --threads=1 (the default) is the deterministic serial configuration:
  // one thread alternates between socket I/O and job dispatch.
  parallel::set_threads(threads);
  cfg.io_lanes = parallel::configured_threads() - 1;

  cfg.stop_flag = &g_stop_requested;
  std::signal(SIGTERM, handle_stop_signal);
  std::signal(SIGINT, handle_stop_signal);

  service::Server server(std::move(cfg));
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "serve: %s\n", error.c_str());
    return 1;
  }
  std::printf("serving on %s (scheduler=%s, gpus=%d, threads=%d)\n",
              socket.c_str(), args.get("scheduler", "micco").c_str(),
              static_cast<int>(args.get_int("gpus", 8)),
              parallel::configured_threads());
  const int rc = server.serve();
  std::printf("session: %s\n", server.jobs().stats().dump().c_str());
  const std::string report_path = args.get("report", "");
  if (!report_path.empty() && rc == 0) {
    std::fprintf(stderr, "session report written to %s\n",
                 report_path.c_str());
  }
  const std::string spans_path = args.get("spans", "");
  if (!spans_path.empty() && rc == 0) {
    std::fprintf(stderr, "span trace written to %s\n", spans_path.c_str());
  }
  return rc;
}

/// DONE → 0, FAILED/CANCELLED → 1. Used by submit --wait.
int print_terminal_state(const obs::JsonValue& reply) {
  const std::string& state = reply.at("state").as_string();
  if (const obs::JsonValue* result = reply.find("result")) {
    const obs::JsonValue* makespan = result->find("makespan_s");
    const obs::JsonValue* gflops = result->find("gflops");
    if (makespan != nullptr && gflops != nullptr) {
      std::printf("%s: makespan %.2f ms, %.0f GFLOPS\n", state.c_str(),
                  makespan->as_double() * 1e3, gflops->as_double());
      return state == "DONE" ? 0 : 1;
    }
  }
  std::printf("%s\n", state.c_str());
  return state == "DONE" ? 0 : 1;
}

int cmd_submit(const CliArgs& args) {
  if (rejects_flags(args, "submit",
                    {"socket", "tenant", "name", "wait", "idem", "deadline-ms",
                     "retry-max", "retry-backoff"})) {
    return 2;
  }
  if (args.positional().size() < 2) {
    std::fprintf(stderr, "submit: workload file required\n");
    return 2;
  }
  const std::string socket = args.get("socket", "");
  if (socket.empty()) {
    std::fprintf(stderr, "submit: --socket is required\n");
    return 2;
  }
  const std::string path = args.positional()[1];
  std::ifstream in(path);
  if (!in.good()) {
    std::fprintf(stderr, "submit: cannot open %s\n", path.c_str());
    return 1;
  }
  std::ostringstream text;
  text << in.rdbuf();

  service::Client client;
  client.set_deadline_ms(args.get_double("deadline-ms", 0.0));
  const std::string tenant = args.get("tenant", "default");
  const std::string name = args.get("name", path);
  const std::string idem = args.get("idem", "");
  const auto retry_max = static_cast<int>(args.get_int("retry-max", 0));
  const bool wait = args.get_bool("wait", false);
  std::string error;

  RetryPolicy policy;
  policy.max_attempts = retry_max > 0 ? retry_max : 1;
  policy.base_backoff_s = args.get_double("retry-backoff", 0.05);
  policy.max_backoff_s = std::max(policy.base_backoff_s, 1.0);
  if (rejects_values(args, "submit")) return 2;
  if (retry_max > 0
          ? !client.connect_retry(socket, policy, &error)
          : !client.connect(socket, &error)) {
    std::fprintf(stderr, "submit: %s\n", error.c_str());
    return 1;
  }
  // --retry-max selects the crash-safe loop (reconnect + resend under one
  // idempotency token); --idem alone sends once but dedupes server-side.
  std::optional<obs::JsonValue> reply;
  if (retry_max > 0) {
    reply =
        client.submit_retrying(tenant, name, text.str(), idem, policy, &error);
  } else if (!idem.empty()) {
    reply = client.submit_idempotent(tenant, name, text.str(), idem, &error);
  } else {
    reply = client.submit(tenant, name, text.str(), &error);
  }
  if (!reply.has_value()) {
    std::fprintf(stderr, "submit: %s\n", error.c_str());
    return 1;
  }
  if (!reply->at("ok").as_bool()) {
    std::fprintf(stderr, "submit: rejected [%s]: %s\n",
                 reply->at("code").as_string().c_str(),
                 reply->at("message").as_string().c_str());
    return 1;
  }
  const auto job_id = static_cast<std::uint64_t>(reply->at("job_id").as_int());
  const obs::JsonValue* duplicate = reply->find("duplicate");
  if (duplicate != nullptr && duplicate->as_bool()) {
    std::printf("job %llu duplicate (idempotency token already submitted)\n",
                static_cast<unsigned long long>(job_id));
  } else {
    std::printf("job %llu queued (tenant %s)\n",
                static_cast<unsigned long long>(job_id),
                reply->at("tenant").as_string().c_str());
  }
  if (!wait) return 0;

  for (;;) {
    const auto status = client.status(job_id, &error);
    if (!status.has_value()) {
      std::fprintf(stderr, "submit: %s\n", error.c_str());
      return 1;
    }
    if (!status->at("ok").as_bool()) {
      std::fprintf(stderr, "submit: [%s] %s\n",
                   status->at("code").as_string().c_str(),
                   status->at("message").as_string().c_str());
      return 1;
    }
    const std::string& state = status->at("state").as_string();
    if (state != "QUEUED" && state != "RUNNING") {
      return print_terminal_state(*status);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

int cmd_status(const CliArgs& args) {
  if (rejects_flags(args, "status", {"socket"})) return 2;
  const std::string socket = args.get("socket", "");
  if (socket.empty()) {
    std::fprintf(stderr, "status: --socket is required\n");
    return 2;
  }
  service::Client client;
  std::string error;
  if (!client.connect(socket, &error)) {
    std::fprintf(stderr, "status: %s\n", error.c_str());
    return 1;
  }
  std::optional<obs::JsonValue> reply;
  if (args.positional().size() >= 2) {
    const std::uint64_t job_id =
        std::strtoull(args.positional()[1].c_str(), nullptr, 10);
    reply = client.status(job_id, &error);
  } else {
    reply = client.stats(&error);
  }
  if (!reply.has_value()) {
    std::fprintf(stderr, "status: %s\n", error.c_str());
    return 1;
  }
  std::printf("%s\n", reply->dump_pretty().c_str());
  return reply->at("ok").as_bool() ? 0 : 1;
}

/// Renders one `metrics` reply as a dashboard frame: session header, job
/// counters, per-tenant admission/SLO table, histogram quantile table. The
/// metric names come straight from the reply, so the dashboard needs no
/// knowledge of the telemetry vocabulary.
void render_top(const obs::JsonValue& reply) {
  std::printf("micco top — uptime %.1f s", reply.at("uptime_s").as_double());
  if (const obs::JsonValue* started = reply.find("started_at")) {
    std::printf(", started %s", started->as_string().c_str());
  }
  std::printf("\n");

  const obs::JsonValue& stats = reply.at("stats");
  const auto stat = [&stats](const char* key) {
    return static_cast<long long>(stats.at(key).as_int());
  };
  std::printf("jobs: queued %lld running %lld | submitted %lld "
              "admitted %lld rejected %lld | completed %lld failed %lld "
              "cancelled %lld\n",
              stat("queued"), stat("running"), stat("submitted"),
              stat("admitted"), stat("rejected"), stat("completed"),
              stat("failed"), stat("cancelled"));

  const obs::JsonValue& tenants = stats.at("tenants");
  if (!tenants.members().empty()) {
    std::printf("\n%-16s %6s %6s %9s %9s %7s %9s\n", "tenant", "queued",
                "weight", "admitted", "rejected", "slo_ok", "slo_miss");
    for (const auto& [name, t] : tenants.members()) {
      std::printf("%-16s %6lld %6lld %9lld %9lld %7lld %9lld\n", name.c_str(),
                  static_cast<long long>(t.at("queued").as_int()),
                  static_cast<long long>(t.at("weight").as_int()),
                  static_cast<long long>(t.at("admitted").as_int()),
                  static_cast<long long>(t.at("rejected").as_int()),
                  static_cast<long long>(t.at("slo_ok").as_int()),
                  static_cast<long long>(t.at("slo_miss").as_int()));
    }
  }

  // Modeled residency: the bytes each tenant's latest job left resident.
  for (const auto& [name, value] :
       reply.at("metrics").at("gauges").members()) {
    if (name.starts_with(obs::names::kMemTenantPrefix)) {
      std::printf("%-38s %14.0f\n", name.c_str(), value.as_double());
    }
  }

  const obs::JsonValue& histograms = reply.at("metrics").at("histograms");
  if (!histograms.members().empty()) {
    std::printf("\n%-38s %9s %11s %11s %11s %11s\n", "histogram", "count",
                "mean", "p50", "p90", "p99");
    for (const auto& [name, h] : histograms.members()) {
      std::printf("%-38s %9lld %11.3f %11.3f %11.3f %11.3f\n", name.c_str(),
                  static_cast<long long>(h.at("count").as_int()),
                  h.at("mean").as_double(), h.at("p50").as_double(),
                  h.at("p90").as_double(), h.at("p99").as_double());
    }
  }
}

int cmd_top(const CliArgs& args) {
  if (rejects_flags(args, "top",
                    {"socket", "once", "iterations", "interval-ms"})) {
    return 2;
  }
  const std::string socket = args.get("socket", "");
  if (socket.empty()) {
    std::fprintf(stderr, "top: --socket is required\n");
    return 2;
  }
  const bool once = args.get_bool("once", false);
  const long long iterations =
      once ? 1 : static_cast<long long>(args.get_int("iterations", 0));
  const long long interval_ms =
      static_cast<long long>(args.get_int("interval-ms", 1000));
  if (rejects_values(args, "top")) return 2;
  service::Client client;
  std::string error;
  if (!client.connect(socket, &error)) {
    std::fprintf(stderr, "top: %s\n", error.c_str());
    return 1;
  }
  // --iterations=0 (the default without --once) refreshes until the daemon
  // goes away or the user interrupts.
  for (long long i = 0; iterations == 0 || i < iterations; ++i) {
    if (i > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
    const auto reply = client.metrics(&error);
    if (!reply.has_value()) {
      std::fprintf(stderr, "top: %s\n", error.c_str());
      return 1;
    }
    if (!reply->at("ok").as_bool()) {
      std::fprintf(stderr, "top: [%s] %s\n",
                   reply->at("code").as_string().c_str(),
                   reply->at("message").as_string().c_str());
      return 1;
    }
    if (!once) std::printf("\x1b[2J\x1b[H");  // clear + home between frames
    render_top(*reply);
    std::fflush(stdout);
  }
  return 0;
}

int cmd_drain(const CliArgs& args) {
  if (rejects_flags(args, "drain", {"socket", "shutdown"})) return 2;
  const std::string socket = args.get("socket", "");
  if (socket.empty()) {
    std::fprintf(stderr, "drain: --socket is required\n");
    return 2;
  }
  const bool shutdown = args.get_bool("shutdown", false);
  if (rejects_values(args, "drain")) return 2;
  service::Client client;
  std::string error;
  if (!client.connect(socket, &error)) {
    std::fprintf(stderr, "drain: %s\n", error.c_str());
    return 1;
  }
  const auto reply =
      shutdown ? client.shutdown(&error) : client.drain(&error);
  if (!reply.has_value()) {
    std::fprintf(stderr, "drain: %s\n", error.c_str());
    return 1;
  }
  std::printf("%s\n", reply->dump().c_str());
  return reply->at("ok").as_bool() ? 0 : 1;
}

int dispatch(int argc, char** argv) {
  if (argc < 2) return usage();
  const CliArgs args(argc, argv);
  const std::string command = argv[1];
  if (command == "generate") return cmd_generate(args);
  if (command == "run") return cmd_run(args);
  if (command == "train") return cmd_train(args);
  if (command == "inspect") return cmd_inspect(args);
  if (command == "report") return cmd_report(args);
  if (command == "faults") return cmd_faults(args);
  if (command == "serve") return cmd_serve(args);
  if (command == "submit") return cmd_submit(args);
  if (command == "status") return cmd_status(args);
  if (command == "top") return cmd_top(args);
  if (command == "drain") return cmd_drain(args);
  return usage();
}

}  // namespace
}  // namespace micco::cli

int main(int argc, char** argv) { return micco::cli::dispatch(argc, argv); }
