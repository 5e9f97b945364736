#include "bench_common.hpp"

#include <cstdio>
#include <cstdlib>

#include "common/log.hpp"

namespace micco::bench {

Env parse_env(const CliArgs& args) {
  Env env;
  env.quick = args.get_bool("quick", false);
  env.gpus = args.get_int<int>("gpus", 8);
  // Default batch width puts the ten-vector working set in the same ballpark
  // as the node's aggregate device memory (the regime the paper evaluates:
  // caching helps but cannot trivially replicate everything everywhere).
  env.vectors = args.get_int("vectors", env.quick ? 4 : 10);
  env.batch = args.get_int("batch", env.quick ? 16 : 160);
  env.samples = args.get_int<int>("samples", env.quick ? 40 : 300);
  env.seed = static_cast<std::uint64_t>(args.get_int("seed", 2022));
  env.csv_dir = args.get("csv-dir", "");
  env.report_dir = args.get("report-dir", "");
  // Applied immediately so tuner sweeps, comparisons and trial loops all
  // fan out; results are byte-identical at every width (see src/parallel).
  env.threads = args.get_int<int>("threads", 1);
  parallel::set_threads(env.threads);
  env.threads = parallel::configured_threads();
  if (args.get_bool("verbose", false)) set_log_level(LogLevel::kInfo);

  if (env.gpus < 1 || env.vectors < 1 || env.batch < 1 || env.samples < 5) {
    std::fprintf(stderr, "invalid bench parameters\n");
    std::exit(2);
  }
  return env;
}

void print_header(const std::string& title, const std::string& paper_ref) {
  std::printf("%s", banner(title + "  [" + paper_ref + "]").c_str());
}

void check_flags(const CliArgs& args) {
  if (args.error()) {
    std::fprintf(stderr, "argument error: %s\n", args.error()->c_str());
    std::exit(2);
  }
  for (const std::string& flag : args.unused()) {
    std::fprintf(stderr, "warning: unrecognised flag --%s ignored\n",
                 flag.c_str());
  }
}

TrainedBoundsModel train_model(const Env& env) {
  // Train in the same regime the benches run (batch width, vector count,
  // device count): the model's features do not include batch, so a regime
  // mismatch would skew every prediction.
  TunerConfig tuner;
  tuner.samples = env.samples;
  tuner.num_vectors = env.vectors;
  tuner.batch = env.batch;
  tuner.num_devices = env.gpus;
  tuner.max_bound = 2;
  tuner.seed = env.seed;
  if (env.quick) {
    tuner.vector_sizes = {8, 16};
    tuner.tensor_extents = {128, 384};
  }
  std::printf("training reuse-bound model (%d samples, %d-point grid)...\n",
              tuner.samples, 27);
  TrainedBoundsModel model = train_default_model(tuner);
  std::printf("model: %s, held-out R^2 = %.2f, inference = %.1f us\n\n",
              model.report.model_name.c_str(), model.report.mean_r2,
              model.report.inference_us);
  return model;
}

SyntheticConfig base_synth(const Env& env) {
  SyntheticConfig cfg;
  cfg.num_vectors = env.vectors;
  cfg.vector_size = 64;
  cfg.tensor_extent = 384;
  cfg.batch = env.batch;
  cfg.repeated_rate = 0.5;
  cfg.distribution = DataDistribution::kUniform;
  cfg.seed = env.seed;
  return cfg;
}

std::string fmt_gflops(double gflops) { return stats::format(gflops, 0); }

std::string fmt_speedup(double speedup) {
  return stats::format(speedup, 2) + "x";
}

void maybe_write_csv(const Env& env, const std::string& name,
                     const CsvWriter& csv) {
  if (env.csv_dir.empty()) return;
  const std::string path = env.csv_dir + "/" + name + ".csv";
  csv.write_file(path);
  std::printf("series written to %s\n", path.c_str());
}

void maybe_write_report(const Env& env, const std::string& name,
                        const WorkloadStream& stream,
                        const ClusterConfig& cluster, SchedulerKind kind,
                        BoundsProvider* bounds) {
  if (env.report_dir.empty()) return;
  const std::unique_ptr<Scheduler> scheduler = make_scheduler(kind);
  obs::Telemetry telemetry;
  RunOptions options;
  options.bounds = bounds;
  options.telemetry = &telemetry;
  const RunResult result = run_stream(stream, *scheduler, cluster, options);
  const std::string path = env.report_dir + "/" + name + ".json";
  obs::write_report_file(make_run_report(result, telemetry), path);
  std::printf("run report written to %s\n", path.c_str());
}

std::string fmt_bytes_gb(std::uint64_t bytes) {
  return stats::format(static_cast<double>(bytes) / (1024.0 * 1024.0 * 1024.0),
                       2) +
         "G";
}

}  // namespace micco::bench
