// End-to-end benchmark of the MICCO system (README.md in this directory).
//
// One invocation runs one workload in its own process: a Redstar integrator
// scheduling correlator streams in batch (redstar-f0d4-oversub200,
// synth-uniform-64gpu) or a workflow driver submitting jobs to the
// crash-safe daemon (daemon-a1rhopi-wal, daemon-tiny-mixed). Untraced it
// reports the end-to-end metrics; traced (--trace=1) it reports the
// per-layer ledger, timed from this directory's own code around calls into
// each layer's public functions. Either way every correctness check runs.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/stopwatch.hpp"
#include "core/bounds_model.hpp"
#include "core/experiment.hpp"
#include "core/pipeline.hpp"
#include "obs/json.hpp"

namespace micco::e2e {

inline constexpr const char* kF0d4Workload = "redstar-f0d4-oversub200";
inline constexpr const char* kSynthWorkload = "synth-uniform-64gpu";
inline constexpr const char* kA1rhopiWorkload = "daemon-a1rhopi-wal";
inline constexpr const char* kTinyWorkload = "daemon-tiny-mixed";

/// Settings of one invocation.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< length of the measured window
  bool traced = false;    ///< report the per-layer ledger
  bool smoke = false;     ///< small tuner corpus, one set-up: a quick check
  std::string run_dir;    ///< scratch directory: model, journal, socket
};

/// Set-ups per invocation; setup_s is their median.
int setup_reps(const Options& opts);

/// Interpolating percentile (q in [0, 1]) of an unsorted, non-empty sample.
double percentile(std::vector<double> xs, double q);
double median(const std::vector<double>& xs);

/// How a sample is reported: its size beside every percentile.
struct Distribution {
  std::size_t n = 0;
  double mean = 0.0;
  double p25 = 0.0;
  double p50 = 0.0;
  double p75 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
};
Distribution distribution(const std::vector<double>& xs);

/// The system's layers (src/ directories); per-layer metric names are
/// "<layer>.<metric>", joined from this table at output time.
enum class Layer { kWorkload, kMl, kSched, kGpusim, kCore, kService };
std::string layer_metric(Layer layer, const char* metric);

class HostProbe;

/// Metrics, operation counts and correctness checks of one invocation.
class Result {
 public:
  void add(const std::string& name, const char* unit, double value,
           std::size_t samples = 1);
  void add(Layer layer, const char* name, const char* unit, double value,
           std::size_t samples = 1) {
    add(layer_metric(layer, name), unit, value, samples);
  }
  /// Records a sample's distribution, printed and written to --out, not
  /// part of the result line.
  void describe(const std::string& name, const char* unit,
                const Distribution& d);
  /// Records the probe's slowdown over a phase (printed and written to
  /// --out).
  void note_slowdown(const std::string& phase, const HostProbe& probe);

  /// Records a correctness check; a failed one makes the run incorrect.
  void check(bool ok, const std::string& what);
  /// Counts timed operations (stream runs or daemon jobs) and how many
  /// of them failed.
  void attempt(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  bool correct() const { return failed_checks_ == 0; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  std::string line() const;
  /// Every metric with unit and sample count, the distributions, then the
  /// result line last.
  void print(std::FILE* out) const;
  /// Full report for --out: the line's content plus samples, percentiles
  /// and host metadata.
  obs::JsonValue report(const Options& opts) const;

 private:
  struct Metric {
    std::string name;
    std::string unit;
    double value = 0.0;
    std::size_t samples = 0;
  };
  struct Described {
    std::string name;
    std::string unit;
    Distribution d;
  };
  std::vector<Metric> metrics_;
  std::vector<Described> described_;
  std::vector<Metric> slowdowns_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t failed_checks_ = 0;
};

/// Host facts stamped into every JSON this benchmark writes: hardware
/// threads, online CPUs, compiler, build type and the seed. No timestamps.
obs::JsonValue host_metadata(std::uint64_t seed);

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();
/// Current resident set size of this process, in KB.
double current_rss_kb();

/// Host-speed probe. The hosts this benchmark runs on drift in speed by up
/// to 3x over minutes, for every process alike, which no amount of work in
/// one run averages out. The probe is a fixed piece of CPU work with the
/// access patterns of the scheduler and the simulator (hash-table inserts
/// and lookups over an L2-sized and an L3-sized working set, small-object
/// allocation churn), built from this directory alone so that no change to
/// src/ moves it. Each sample times a second pass after a warming one, so
/// what the benchmark ran just before does not change it. Reported times
/// are divided, and rates multiplied, by the slowdown: they read as on a
/// host where the probe takes its reference time. README.md gives the
/// measured effect.
class HostProbe {
 public:
  /// Runs the probe `times` times.
  void sample(int times = 1);
  /// Runs the probe once if `every_ms` passed since it last ran.
  void maybe_sample(double every_ms);
  /// Median probe time over the reference time: above 1 on a slower host.
  double slowdown() const;
  /// The same over the last `n` samples only: the host's speed of late.
  double recent_slowdown(std::size_t n = 5) const;
  std::size_t samples() const { return ms_.size(); }
  /// Time spent probing.
  double spent_ms() const { return spent_ms_; }

 private:
  std::vector<double> ms_;
  double spent_ms_ = 0.0;
  Stopwatch since_;
};

/// Wall time of the shared set-up steps, one set-up.
struct ModelTiming {
  double sweep_s = 0.0;  ///< generate_tuning_data
  double fit_s = 0.0;    ///< three forests fit, saved, loaded back
};

/// Wall times of every set-up of one invocation, raw.
struct SetupTimes {
  std::vector<double> total_s;
  std::vector<double> sweep_s;
  std::vector<double> fit_s;
  std::vector<double> build_ms;  ///< redstar build or synthetic generation
  std::vector<double> save_ms;   ///< save_stream of the workload text(s)
  std::vector<double> start_ms;  ///< Server::start; empty for batch
  /// Probed before the first set-up and after each; slowdown[i] is the
  /// median of the probes on either side of set-up i.
  HostProbe probe;
  std::vector<double> slowdown;
  /// Records set-up i's slowdown, probing after it.
  void probe_after_setup() {
    probe.sample(10);
    slowdown.push_back(probe.recent_slowdown(20));
  }
};

/// setup_s untraced; the set-up ledger traced. Each set-up's times are
/// divided by its slowdown.
void add_setup(const SetupTimes& times, bool traced, Result& result);

/// The live daemon ledger: where a client-observed job's mean latency went,
/// plus per-job service counts. All zero on the batch workloads, which
/// never enter the service layer.
struct ServiceLedger {
  double submit_rtt_share = 0.0;     ///< submit request round trip
  double queue_wait_share = 0.0;     ///< server: admitted -> dispatched
  double dispatch_share = 0.0;       ///< server: dispatched -> finished
  double observe_delay_share = 0.0;  ///< finished -> client sees it
  double journal_fsync_share = 0.0;  ///< fsync time per job
  double status_polls_per_job = 0.0;
  double journal_bytes_per_job = 0.0;
  std::size_t jobs = 0;
};
void add_service_ledger(const ServiceLedger& ledger, Result& result);

/// `micco train` with its defaults at one thread: the tuner sweep (120
/// samples, batch 32, 8 GPUs, seed 2022), three per-bound forests fit on
/// all samples and written to `path` in the model-file format, then loaded
/// back as the serving provider. `text` receives the model file contents.
std::unique_ptr<RegressionBoundsProvider> train_model(const Options& opts,
                                                      const std::string& path,
                                                      ModelTiming* timing,
                                                      std::string* text);

/// Loads a model file written by train_model (the daemon's loader).
std::unique_ptr<RegressionBoundsProvider> load_model(const std::string& path);

/// Field-for-field equality of two runs' simulated metrics (doubles
/// compared exactly: the simulator is deterministic).
bool same_metrics(const ExecutionMetrics& a, const ExecutionMetrics& b);

/// h2d + p2p + internode + writeback bytes, in GB (1e9 bytes).
double transfer_gb(const ExecutionMetrics& m);

/// Number of contraction pairs in a stream.
std::size_t count_pairs(const WorkloadStream& stream);

/// Loads `text` as the daemon would and checks it: structure valid, every
/// pair present. Returns the stream (empty on failure, recorded in result).
WorkloadStream load_checked(const std::string& text, Result& result);

/// Checks the invariants of one finished run: completed, FLOPs equal the
/// stream's, fetched + reused operands equal the operand slots.
void check_run(const RunResult& run, const WorkloadStream& stream,
               const std::string& what, Result& result);

/// One job's stream scheduled on a fresh scheduler and cluster.
struct Job {
  const WorkloadStream* stream = nullptr;
  std::string text;  ///< the stream as submitted to the daemon
  ClusterConfig cluster;
  SchedulerKind scheduler = SchedulerKind::kMiccoOptimal;
  BoundsProvider* bounds = nullptr;
  RunResult reference;  ///< an untimed run_stream of the job
};

/// run_stream of one job, timed until `seconds` pass. Each run is divided
/// by the slowdown of the latest probes, sampled every 100 ms between runs.
struct PipelineTiming {
  std::vector<double> raw_wall_ms;  ///< per run
  std::vector<double> wall_ms;      ///< per run, host-normalized
  Distribution pairs_per_s;         ///< per run, host-normalized
  double jobs_per_s = 0.0;          ///< runs per second outside the probe,
                                    ///< host-normalized
  HostProbe probe;
};

/// Runs the job through run_stream on a fresh scheduler and cluster until
/// `seconds` pass, each run checked bit for bit against the reference.
PipelineTiming time_pipeline(double seconds, const Job& job, Result& result);

struct TraceSummary {
  /// Share of the timed driver's wall inside the timed layer calls.
  double coverage = 0.0;
  Distribution run_stream_ms;  ///< host-normalized
};

/// Traced half shared by every workload: for `seconds`, rounds of
/// run_stream, the bench's own driver untimed and the driver with a timer
/// around each layer call; then an offline replay of the job's daemon path
/// (load, protocol, journal append, run_stream with telemetry). Adds the
/// driver, count and replay metrics of the ledger, times host-normalized
/// by a probe sampled between rounds, to `result`.
TraceSummary trace_job(const Options& opts, double seconds, const Job& job,
                       Result& result);

/// The per-workload entry points.
void run_batch(const Options& opts, Result& result);
void run_daemon(const Options& opts, Result& result);

}  // namespace micco::e2e
