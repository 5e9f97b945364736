// Table V — Execution time: MICCO-optimal's scheduling overhead (wall-clock
// spent in the scheduler + regression inference) against the total
// execution time of the stream, for a sum of 10 vectors at vector size 64,
// tensor size 384, repeated rate 50 %, in both distributions.
//
// --gate adds the observability regression gate (DESIGN.md §7d): a long
// stream is run in adjacent alternating pairs with and without tracing
// (span sink + trace context + per-decision latency scratch). Both arms
// attach a registry-only obs::Telemetry, so the gate prices the spans and
// the scratch, not the registry; it fails (exit 1) when the median paired
// thread-CPU delta says they cost more than 2 % end to end.
#include <algorithm>
#include <cstdio>
#include <ctime>

#include "bench_common.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"

namespace micco::bench {
namespace {

/// CPU milliseconds consumed by the calling thread so far. The gate
/// measures CPU time, not wall time: tracing overhead is pure CPU work on
/// the dispatching thread, and CPU time does not tick while a noisy
/// co-tenant preempts us — wall-time deltas on shared CI hosts were
/// measured to swing ±5 % between identical invocations, an order of
/// magnitude above the 2 % budget under test.
double thread_cpu_ms() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

/// One timed run of `stream` with a registry-only telemetry bundle attached
/// in both arms; `traced` adds the tracing the daemon uses (spans to an
/// in-memory sink, per-decision latency scratch flushed into a registry
/// histogram afterwards, exactly as the dispatcher does). Returns
/// thread-CPU milliseconds for the whole run_stream call.
double timed_run(const WorkloadStream& stream, const ClusterConfig& cluster,
                 bool traced) {
  MiccoScheduler scheduler;
  obs::Telemetry telemetry;
  obs::MemorySpanSink sink;
  obs::TraceContext ctx;
  ctx.trace_id = "gate";
  ctx.job_id = 1;
  ctx.tenant = "bench";
  ctx.sink = &sink;
  obs::HistogramScratch scratch(obs::names::decision_latency_bounds_us());

  RunOptions options;
  options.telemetry = &telemetry;
  if (traced) {
    options.trace_context = &ctx;
    options.decision_latency = &scratch;
  }

  const double start_ms = thread_cpu_ms();
  const RunResult result = run_stream(stream, scheduler, cluster, options);
  if (traced) {
    obs::Histogram& h = telemetry.registry.histogram(
        obs::names::kSchedDecisionLatencyUs,
        obs::names::decision_latency_bounds_us());
    scratch.flush_into(h);
  }
  const double ms = thread_cpu_ms() - start_ms;
  (void)result;
  return ms;
}

/// The tracing-overhead gate. Runs the two arms in adjacent pairs
/// (alternating order within each pair, so neither arm systematically
/// inherits a warm cache) and judges the median of per-pair relative
/// deltas. Adjacent pairing cancels interference that is sustained across
/// a pair — frequency scaling, a memory-hungry co-tenant — which single-
/// arm estimators (min-of-reps, both wall and CPU time) were measured to
/// absorb as ±3–5 % swings on shared hosts; the median then needs more
/// than half the pairs skewed the same way before the verdict moves.
int run_gate(const Env& env) {
  constexpr int kPairs = 150;
  constexpr double kMaxOverhead = 0.02;

  SyntheticConfig cfg = base_synth(env);
  cfg.distribution = DataDistribution::kUniform;
  // A much longer stream than Table V's, so one run lasts several
  // milliseconds and timer granularity is amortised to nothing. Vectors are
  // production-sized (Table II's upper range), which is what the budget is
  // defined against: the two per-vector spans are a fixed cost, so tiny
  // vectors would overstate the traced share of real workloads.
  cfg.num_vectors = 25;
  cfg.vector_size = 256;
  const WorkloadStream stream = generate_synthetic(cfg);

  // Warm-up: first touch of the stream (page faults, allocator growth)
  // belongs to neither arm.
  timed_run(stream, env.cluster(), false);

  std::vector<double> deltas;
  deltas.reserve(kPairs);
  double base_ms = 0.0;
  double traced_ms = 0.0;
  for (int pair = 0; pair < kPairs; ++pair) {
    const bool traced_first = pair % 2 != 0;
    const double first = timed_run(stream, env.cluster(), traced_first);
    const double second = timed_run(stream, env.cluster(), !traced_first);
    const double base = traced_first ? second : first;
    const double traced = traced_first ? first : second;
    if (base > 0.0) deltas.push_back((traced - base) / base);
    base_ms = pair == 0 ? base : std::min(base_ms, base);
    traced_ms = pair == 0 ? traced : std::min(traced_ms, traced);
  }
  std::sort(deltas.begin(), deltas.end());
  const double overhead = deltas.empty() ? 0.0 : deltas[deltas.size() / 2];

  const bool pass = overhead < kMaxOverhead;
  std::printf("tracing overhead gate: baseline min %.3f ms CPU, traced min "
              "%.3f ms CPU, median paired overhead %+.2f%% (budget "
              "%.0f%%): %s\n",
              base_ms, traced_ms, 100.0 * overhead, 100.0 * kMaxOverhead,
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

int run(const CliArgs& args) {
  Env env = parse_env(args);
  const bool gate = args.get_bool("gate", false);
  check_flags(args);
  if (gate) return run_gate(env);
  print_header("Scheduling Overhead vs Total Time", "Table V");

  TrainedBoundsModel model = train_model(env);

  TextTable table;
  table.add_column("Distribution", Align::kLeft);
  table.add_column("Scheduling Overhead (ms)");
  table.add_column("Total Time (ms)");
  table.add_column("overhead share");

  for (const DataDistribution dist :
       {DataDistribution::kUniform, DataDistribution::kGaussian}) {
    SyntheticConfig cfg = base_synth(env);
    cfg.distribution = dist;
    const WorkloadStream stream = generate_synthetic(cfg);

    MiccoScheduler scheduler;
    const RunResult result =
        run_stream(stream, scheduler, env.cluster(), model.provider.get());
    const double total_time_ms = result.metrics.makespan_s * 1000.0;

    table.add_row(
        {to_string(dist), stats::format(result.scheduling_overhead_ms, 2),
         stats::format(total_time_ms, 2),
         stats::format(100.0 * result.scheduling_overhead_ms /
                           (total_time_ms > 0 ? total_time_ms : 1.0),
                       2) +
             "%"});
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\npaper: 8.27 ms / 4925.73 ms (Uniform, 0.17%%) and 8.52 ms / "
      "1550.88 ms (Gaussian, 0.55%%);\nthe claim under reproduction is that "
      "scheduling overhead is negligible relative to execution.\n");
  return 0;
}

}  // namespace
}  // namespace micco::bench

int main(int argc, char** argv) {
  return micco::bench::run(micco::CliArgs(argc, argv));
}
