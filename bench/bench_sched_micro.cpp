// bench_sched_micro — hot-path throughput of the scheduling layer itself.
//
// Two measurements, written as BENCH_sched.json:
//   1. Scheduler decisions/sec: MICCO, Groute and dmda assign() rates
//      against warmed clusters (one executed pass per scheduler populates
//      residency so the holder-list tiers actually fire), timing pure
//      decision passes with no execution and no telemetry attached. The
//      schedulers' timed passes interleave round by round (alternating
//      which goes first), and the Groute/MICCO ratio is the median of the
//      per-round ratios: a paired estimator, so host-speed drift that spans
//      a round cancels instead of landing on one scheduler. Each
//      scheduler's reported rate is its median round's.
//   2. Tuner samples/sec at 1/2/4/8 worker threads, asserting the labels
//      are bit-identical across every width (the parallel layer's
//      determinism contract, checked here on every bench run).
//
// Flags: the shared bench set (--gpus --seed --threads ...), plus
//   --smoke     shrink both measurements for CI
//   --passes=N  timed decision passes over the stream per scheduler and
//               round (default 40, smoke 4; 21 rounds)
//   --out=FILE  JSON destination (default BENCH_sched.json)
//   --gate      fail (exit 1) when the hot path regressed:
//                 * paired Groute/MICCO decisions-per-sec ratio above
//                   --gate-max-ratio (checked-in default 1.5: the paired
//                   ratio measured ~1.1-1.2 at 8 GPUs, plus headroom;
//                   ci.sh additionally gates 64 GPUs at 1.0, where MICCO
//                   beats Groute's all-device scan outright);
//                 * tuner speedup at 4 threads below 1.0; skipped (and
//                   recorded as such) on hosts with fewer than 4 hardware
//                   threads, where the lane cap serialises the sweep.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/stopwatch.hpp"
#include "core/tuner.hpp"
#include "obs/report.hpp"
#include "sched/baselines.hpp"
#include "sched/micco_scheduler.hpp"

namespace micco::bench {
namespace {

/// Rounds of the paired decision-rate estimator (odd: a clean median).
constexpr int kRounds = 21;

/// A scheduler and its own cluster, warmed by one executed pass through
/// the stream so residency, busy times and memory pressure look like
/// mid-run state. Timed passes only decide, so the cluster stays warm.
struct WarmedScheduler {
  WarmedScheduler(std::unique_ptr<Scheduler> s, const WorkloadStream& stream,
                  const ClusterConfig& config)
      : scheduler(std::move(s)), sim(config) {
    for (const VectorWorkload& vec : stream.vectors) {
      scheduler->begin_vector(vec, sim);
      for (const ContractionTask& task : vec.tasks) {
        const DeviceId dev = scheduler->assign(task, sim);
        const ExecuteResult exec = sim.execute(task, dev);
        MICCO_EXPECTS(exec.ok());
      }
      scheduler->end_vector();
      sim.barrier();
    }
  }

  /// Times one round of `passes` decision-only passes (begin_vector +
  /// assign for every pair, nothing else); records and returns the elapsed
  /// seconds.
  double time_passes(const WorkloadStream& stream, int passes) {
    std::uint64_t count = 0;
    DeviceId sink = 0;  // keep the assign() result observable
    Stopwatch sw;
    for (int p = 0; p < passes; ++p) {
      for (const VectorWorkload& vec : stream.vectors) {
        scheduler->begin_vector(vec, sim);
        for (const ContractionTask& task : vec.tasks) {
          sink += scheduler->assign(task, sim);
          ++count;
        }
        scheduler->end_vector();
      }
    }
    const double elapsed_s = sw.elapsed_ms() / 1e3;
    MICCO_EXPECTS(elapsed_s > 0.0);
    if (sink == static_cast<DeviceId>(-1)) std::printf("(unreachable)\n");
    round_s.push_back(elapsed_s);
    decisions_per_round = count;
    return elapsed_s;
  }

  /// Rate of the median round: like the paired ratio, robust to the few
  /// rounds a noisy host stretches.
  double decisions_per_sec() const {
    return static_cast<double>(decisions_per_round) / stats::median(round_s);
  }

  std::unique_ptr<Scheduler> scheduler;
  ClusterSimulator sim;
  std::vector<double> round_s;
  std::uint64_t decisions_per_round = 0;
};

bool same_labels(const std::vector<TrainingSample>& a,
                 const std::vector<TrainingSample>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].best_bounds.values != b[i].best_bounds.values ||
        a[i].best_gflops != b[i].best_gflops ||
        a[i].worst_gflops != b[i].worst_gflops) {
      return false;
    }
  }
  return true;
}

int run(const CliArgs& args) {
  Env env = parse_env(args);
  const bool smoke = args.get_bool("smoke", false);
  const int passes = static_cast<int>(args.get_int("passes", smoke ? 4 : 40));
  const std::string out = args.get("out", "BENCH_sched.json");
  const bool gate = args.get_bool("gate", false);
  const double gate_max_ratio = args.get_double("gate-max-ratio", 1.5);
  warn_unused(args);
  print_header("Scheduler & Tuner Micro-Throughput", "hot path");

  obs::JsonValue report = obs::JsonValue::object();
  report.set("bench", "sched_micro");
  report.set("gpus", env.gpus);
  report.set("passes", passes);
  report.set("host_hardware_threads",
             static_cast<std::int64_t>(std::thread::hardware_concurrency()));

  // -- 1. decision throughput -------------------------------------------
  SyntheticConfig cfg = base_synth(env);
  cfg.num_vectors = smoke ? 2 : 6;
  cfg.vector_size = smoke ? 24 : 64;
  cfg.batch = 16;
  const WorkloadStream stream = generate_synthetic(cfg);

  TextTable table;
  table.add_column("scheduler", Align::kLeft);
  table.add_column("decisions/sec");
  obs::JsonValue decisions = obs::JsonValue::object();

  MiccoSchedulerOptions micco_options;
  micco_options.bounds = ReuseBounds{1, 1, 1};  // tiers admit and overflow
  micco_options.seed = env.seed;
  WarmedScheduler micco(std::make_unique<MiccoScheduler>(micco_options),
                        stream, env.cluster());
  WarmedScheduler groute(std::make_unique<GrouteScheduler>(), stream,
                         env.cluster());
  WarmedScheduler dmda(std::make_unique<DmdaScheduler>(), stream,
                       env.cluster());
  // How many times slower MICCO's richer decision (tier walk + Alg. 2
  // policies) is than Groute's locality scoring, per round: both time the
  // same passes, so the ratio of rates is MICCO's time over Groute's.
  std::vector<double> round_ratios;
  for (int round = 0; round < kRounds; ++round) {
    const bool micco_first = round % 2 == 0;
    const double first_s = (micco_first ? micco : groute)
                               .time_passes(stream, passes);
    const double second_s = (micco_first ? groute : micco)
                                .time_passes(stream, passes);
    round_ratios.push_back(micco_first ? first_s / second_s
                                       : second_s / first_s);
    (void)dmda.time_passes(stream, passes);  // reported, not gated
  }
  const double ratio = stats::median(round_ratios);
  std::sort(round_ratios.begin(), round_ratios.end());
  for (WarmedScheduler* warmed : {&micco, &groute, &dmda}) {
    const double rate = warmed->decisions_per_sec();
    table.add_row(
        {warmed->scheduler->name(), stats::format(rate / 1e6, 3) + "M"});
    decisions.set(warmed->scheduler->name(), rate);
  }
  report.set("decisions_per_sec", std::move(decisions));
  report.set("groute_over_micco_ratio", ratio);
  report.set("ratio_rounds", kRounds);
  obs::JsonValue quartiles = obs::JsonValue::array();
  quartiles.push_back(round_ratios[kRounds / 4]);
  quartiles.push_back(round_ratios[3 * kRounds / 4]);
  report.set("ratio_round_quartiles", std::move(quartiles));
  std::printf("%s", table.render().c_str());
  std::printf("Groute/MICCO ratio (median of %d paired rounds): %.3f\n",
              kRounds, ratio);

  // -- 2. tuner sweep throughput ----------------------------------------
  TunerConfig tuner;
  tuner.samples = smoke ? 3 : 8;
  tuner.vector_sizes = {8, 16};
  tuner.tensor_extents = {128, 256};
  tuner.num_vectors = 3;
  tuner.batch = 8;
  tuner.num_devices = env.gpus;
  tuner.max_bound = 1;
  tuner.seeds_per_sample = 2;
  tuner.seed = env.seed;

  TextTable tuner_table;
  tuner_table.add_column("threads", Align::kLeft);
  tuner_table.add_column("samples/sec");
  tuner_table.add_column("speedup");
  obs::JsonValue sweeps = obs::JsonValue::array();
  std::vector<TrainingSample> reference;
  bool labels_identical = true;
  double base_rate = 0.0;
  double speedup_4t = 0.0;
  // Untimed warm-up pass: the first sweep pays one-off costs (page faults,
  // lazy pool spin-up, cold caches) that used to land entirely on the 1-
  // thread row and inflate every speedup below it.
  parallel::set_threads(1);
  (void)generate_tuning_data(tuner);
  const int reps = smoke ? 2 : 3;
  for (const int threads : {1, 2, 4, 8}) {
    parallel::set_threads(threads);
    // Best-of-N: the minimum elapsed time is the least-perturbed
    // measurement on a shared host; means drag in scheduler noise.
    double rate = 0.0;
    std::vector<TrainingSample> samples;
    for (int rep = 0; rep < reps; ++rep) {
      Stopwatch sw;
      TuningData data = generate_tuning_data(tuner);
      const double r =
          static_cast<double>(tuner.samples) / (sw.elapsed_ms() / 1e3);
      if (r > rate) rate = r;
      samples = std::move(data.samples);
    }
    if (threads == 1) {
      reference = samples;
      base_rate = rate;
    } else if (!same_labels(reference, samples)) {
      labels_identical = false;
    }
    if (threads == 4) speedup_4t = rate / base_rate;
    obs::JsonValue row = obs::JsonValue::object();
    row.set("threads", threads);
    row.set("samples_per_sec", rate);
    row.set("speedup_vs_1t", rate / base_rate);
    sweeps.push_back(std::move(row));
    tuner_table.add_row({std::to_string(threads),
                         stats::format(rate, 2),
                         fmt_speedup(rate / base_rate)});
  }
  parallel::set_threads(env.threads);  // restore the --threads setting
  report.set("tuner", std::move(sweeps));
  report.set("tuner_labels_identical_across_threads", labels_identical);
  std::printf("%s", tuner_table.render().c_str());

  if (!labels_identical) {
    std::fprintf(stderr,
                 "FAIL: tuner labels diverged across thread counts\n");
    return 1;
  }
  std::printf("tuner labels bit-identical across 1/2/4/8 threads\n");

  bool gate_failed = false;
  if (gate) {
    report.set("gate_max_ratio", gate_max_ratio);
    if (ratio > gate_max_ratio) {
      std::fprintf(stderr,
                   "GATE FAIL: Groute/MICCO decisions-per-sec ratio %.3f "
                   "exceeds threshold %.3f (MICCO hot path regressed)\n",
                   ratio, gate_max_ratio);
      gate_failed = true;
    }
    // Below 4 cores the lane cap serialises the 4-thread row, so the
    // speedup measures only noise and the check is skipped.
    const unsigned hw = std::thread::hardware_concurrency();
    constexpr double kMinSpeedup = 1.0;
    obs::JsonValue speedup_gate = obs::JsonValue::object();
    speedup_gate.set("hardware_threads", static_cast<std::int64_t>(hw));
    if (hw >= 4) {
      speedup_gate.set("status", "checked");
      speedup_gate.set("min_speedup", kMinSpeedup);
      if (speedup_4t < kMinSpeedup) {
        std::fprintf(stderr,
                     "GATE FAIL: tuner speedup at 4 threads %.3f below %.3f "
                     "(thread scaling regressed)\n",
                     speedup_4t, kMinSpeedup);
        gate_failed = true;
      }
    } else {
      speedup_gate.set("status", "skipped");
      std::printf("4-thread speedup check skipped: %u hardware threads\n",
                  hw);
    }
    report.set("gate_speedup_4t", std::move(speedup_gate));
    if (!gate_failed) {
      std::printf("gate passed: ratio %.3f <= %.3f, 4-thread speedup %.3f\n",
                  ratio, gate_max_ratio, speedup_4t);
    }
  }

  obs::write_report_file(report, out);
  std::printf("results written to %s\n", out.c_str());
  return gate_failed ? 1 : 0;
}

}  // namespace
}  // namespace micco::bench

int main(int argc, char** argv) {
  return micco::bench::run(micco::CliArgs(argc, argv));
}
