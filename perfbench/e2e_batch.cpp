// Batch workloads: a Redstar integrator scheduling a correlator stream
// through run_stream (core, sched, gpusim, ml), MICCO-optimal with the
// trained model, a fresh scheduler and cluster per run.
//
//   redstar-f0d4-oversub200  Table VI's largest real correlator at Fig. 11's
//                            200 % oversubscription on 8 GPUs: ~1.2k
//                            evictions per run, execute dominates. Where a
//                            gpusim or eviction change must show.
//   synth-uniform-64gpu      a Uniform stream (40 vectors x 256 slots,
//                            extent 384, batch 16, 50 % repeats) that fits
//                            on 64 GPUs: no evictions, assign's share is the
//                            largest. Where a sched change shows and an
//                            eviction-path change must not.
#include <sstream>

#include "common/stopwatch.hpp"
#include "core/experiment.hpp"
#include "e2e.hpp"
#include "redstar/correlator.hpp"
#include "workload/serialize.hpp"
#include "workload/synthetic.hpp"

namespace micco::e2e {

namespace {

struct Built {
  WorkloadStream stream;
  ClusterConfig cluster;
};

Built build(const Options& opts) {
  Built built;
  if (opts.workload == kF0d4Workload) {
    built.stream = redstar::build_workload(redstar::make_f0d4()).stream;
    built.cluster.num_devices = 8;
    // Floored so one task's working set always fits, as in
    // bench_oversubscription.
    built.cluster.device_capacity_bytes = capacity_for_oversubscription(
        built.stream, built.cluster.num_devices, 2.0,
        8 * built.stream.vectors[0].tasks[0].a.bytes());
  } else {
    SyntheticConfig config;
    config.num_vectors = 40;
    config.vector_size = 256;
    config.tensor_extent = 384;
    config.batch = 16;
    config.repeated_rate = 0.5;
    config.distribution = DataDistribution::kUniform;
    config.seed = opts.seed;
    built.stream = generate_synthetic(config);
    built.cluster.num_devices = 64;  // 32 GiB each: the stream fits
  }
  return built;
}

}  // namespace

void run_batch(const Options& opts, Result& result) {
  SetupTimes setup;
  std::unique_ptr<RegressionBoundsProvider> model;
  std::string first_model;
  WorkloadStream stream;
  Job job;
  job.scheduler = SchedulerKind::kMiccoOptimal;
  setup.probe.sample(10);
  for (int rep = 0; rep < setup_reps(opts); ++rep) {
    Stopwatch total;
    ModelTiming timing;
    std::string model_text;
    model = train_model(opts, opts.run_dir + "/model.mm", &timing,
                        &model_text);
    result.check(model != nullptr, "model trains, saves and loads");
    if (model == nullptr) return;
    if (rep == 0) first_model = model_text;
    result.check(model_text == first_model,
                 "model file identical across set-ups");

    Stopwatch watch;
    Built built = build(opts);
    setup.build_ms.push_back(watch.elapsed_ms());
    watch.restart();
    std::ostringstream text;
    save_stream(built.stream, text);
    setup.save_ms.push_back(watch.elapsed_ms());
    // The program receives only the generated inputs: the stream is
    // scheduled as read back from its text.
    job.text = text.str();
    stream = load_checked(job.text, result);
    if (count_pairs(stream) == 0) return;
    job.stream = &stream;
    job.cluster = built.cluster;
    job.bounds = model.get();

    // Untimed warm-up run, kept as the reference every later run must
    // reproduce bit for bit.
    const std::unique_ptr<Scheduler> scheduler = make_scheduler(job.scheduler);
    RunResult warm = run_stream(stream, *scheduler, job.cluster, job.bounds);
    setup.total_s.push_back(total.elapsed_ms() / 1e3);
    setup.sweep_s.push_back(timing.sweep_s);
    setup.fit_s.push_back(timing.fit_s);
    setup.probe_after_setup();
    if (rep > 0) {
      result.check(same_metrics(warm.metrics, job.reference.metrics),
                   "reference run identical across set-ups");
    }
    job.reference = std::move(warm);
  }
  check_run(job.reference, stream, "reference run", result);
  add_setup(setup, opts.traced, result);
  const double setup_rss_mb = peak_rss_mb();

  if (opts.traced) {
    const double rss_kb = current_rss_kb();
    const TraceSummary trace = trace_job(opts, opts.seconds, job, result);
    result.add("attribution_coverage", "fraction", trace.coverage);
    result.add("job_p99_ms", "ms", trace.run_stream_ms.p99,
               trace.run_stream_ms.n);
    result.add("rss_growth_kb_per_job", "KB",
               (current_rss_kb() - rss_kb) /
                   static_cast<double>(result.attempted()),
               result.attempted());
    add_service_ledger(ServiceLedger{}, result);
    return;
  }

  const PipelineTiming timing = time_pipeline(opts.seconds, job, result);
  const Distribution latency = distribution(timing.wall_ms);
  result.note_slowdown("window", timing.probe);
  result.add("pairs_per_s", "pairs/s", timing.pairs_per_s.p50,
             timing.pairs_per_s.n);
  result.add("jobs_per_s", "jobs/s", timing.jobs_per_s, latency.n);
  result.add("job_p50_ms", "ms", latency.p50, latency.n);
  result.add("sim_gflops", "GFLOPS", job.reference.metrics.gflops());
  result.add("sim_transfer_gb", "GB", transfer_gb(job.reference.metrics));
  result.add("peak_rss_mb", "MB", setup_rss_mb);
  result.describe("pairs_per_s", "pairs/s", timing.pairs_per_s);
  result.describe("job_ms", "ms", latency);
  result.describe("job_ms_raw", "ms", distribution(timing.raw_wall_ms));
}

}  // namespace micco::e2e
