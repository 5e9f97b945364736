// Fig. 10 — Impact of tensor size: Groute vs MICCO-optimal across tensor
// sizes {128, 256, 384, 768}. Vector size 64, repeated rate 50 %, both
// distributions, eight GPUs.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"

namespace micco::bench {
namespace {

int run(const CliArgs& args) {
  Env env = parse_env(args);
  check_flags(args);
  print_header("Impact of Tensor Size", "Fig. 10");

  TrainedBoundsModel model = train_model(env);
  CsvWriter csv;
  for (const char* column : {"distribution", "tensor_size", "groute_gflops",
                             "micco_gflops", "speedup"}) {
    csv.add_column(column);
  }
  const std::vector<std::int64_t> extents{128, 256, 384, 768};

  for (const DataDistribution dist :
       {DataDistribution::kUniform, DataDistribution::kGaussian}) {
    std::printf("-- %s distribution --\n", to_string(dist));
    TextTable table;
    table.add_column("tensor size");
    table.add_column("Groute GFLOPS");
    table.add_column("MICCO GFLOPS");
    table.add_column("speedup");

    for (const std::int64_t extent : extents) {
      SyntheticConfig cfg = base_synth(env);
      cfg.tensor_extent = extent;
      cfg.distribution = dist;
      const WorkloadStream stream = generate_synthetic(cfg);

      const auto entries = compare_schedulers(
          stream, env.cluster(),
          {SchedulerKind::kGroute, SchedulerKind::kMiccoOptimal},
          model.provider.get());
      const double speedup = speedup_of(entries, SchedulerKind::kMiccoOptimal,
                                        SchedulerKind::kGroute);
      csv.add_row({to_string(dist), std::to_string(extent),
                   fmt_gflops(entries[0].gflops()),
                   fmt_gflops(entries[1].gflops()),
                   stats::format(speedup, 4)});
      table.add_row({std::to_string(extent), fmt_gflops(entries[0].gflops()),
                     fmt_gflops(entries[1].gflops()), fmt_speedup(speedup)});
    }
    std::printf("%s\n", table.render().c_str());
  }
  maybe_write_csv(env, "fig10_tensor_size", csv);
  std::printf(
      "paper shape: absolute GFLOPS rises with tensor size (kernels get "
      "more efficient); MICCO wins at every size, 1.35x-1.92x.\n");
  return 0;
}

}  // namespace
}  // namespace micco::bench

int main(int argc, char** argv) {
  return micco::bench::run(micco::CliArgs(argc, argv));
}
