// Fig. 9 — Scalability: Groute vs MICCO-optimal GFLOPS while growing the
// cluster from 1 to 8 GPUs. Tensor size 384, vector size 64, repeated rate
// 50 %, both distributions.
#include <cstdio>

#include "bench_common.hpp"

namespace micco::bench {
namespace {

int run(const CliArgs& args) {
  Env env = parse_env(args);
  // The scalability story needs the working set to fit a single device, so
  // the 1-GPU baseline measures reuse hardness rather than capacity thrash;
  // a lighter batch than the other figures' default accomplishes that.
  if (!args.has("batch")) env.batch = env.quick ? 8 : 16;
  check_flags(args);
  print_header("Scalability", "Fig. 9");

  CsvWriter csv;
  for (const char* column : {"distribution", "gpus", "groute_gflops",
                             "micco_gflops", "speedup"}) {
    csv.add_column(column);
  }

  for (const DataDistribution dist :
       {DataDistribution::kUniform, DataDistribution::kGaussian}) {
    std::printf("-- %s distribution --\n", to_string(dist));
    TextTable table;
    table.add_column("GPUs");
    table.add_column("Groute GFLOPS");
    table.add_column("MICCO GFLOPS");
    table.add_column("speedup");
    table.add_column("MICCO scaling vs 1 GPU");

    double gflops_at_one = 0.0;
    for (int gpus = 1; gpus <= env.gpus; gpus *= 2) {
      Env local = env;
      local.gpus = gpus;
      // The model must be trained for the cluster size it schedules.
      TrainedBoundsModel model = train_model(local);

      SyntheticConfig cfg = base_synth(env);
      cfg.distribution = dist;
      const WorkloadStream stream = generate_synthetic(cfg);

      const auto entries = compare_schedulers(
          stream, local.cluster(),
          {SchedulerKind::kGroute, SchedulerKind::kMiccoOptimal},
          model.provider.get());
      const double groute = entries[0].gflops();
      const double micco = entries[1].gflops();
      if (gpus == 1) gflops_at_one = micco;

      csv.add_row({to_string(dist), std::to_string(gpus),
                   fmt_gflops(groute), fmt_gflops(micco),
                   stats::format(micco / groute, 4)});
      table.add_row({std::to_string(gpus), fmt_gflops(groute),
                     fmt_gflops(micco), fmt_speedup(micco / groute),
                     fmt_speedup(micco / gflops_at_one)});
    }
    std::printf("%s\n", table.render().c_str());
  }
  maybe_write_csv(env, "fig9_scalability", csv);
  std::printf(
      "paper shape: GFLOPS grows sublinearly with GPU count (more devices "
      "-> harder reuse, memory ops dominate small tensors); the MICCO/Groute "
      "speedup widens with the GPU count (1.18x at 2 -> 1.68x at 8; equal at "
      "1 GPU where placement is trivial).\n");
  return 0;
}

}  // namespace
}  // namespace micco::bench

int main(int argc, char** argv) {
  return micco::bench::run(micco::CliArgs(argc, argv));
}
