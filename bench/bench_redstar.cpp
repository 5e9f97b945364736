// Table VI — Real many-body correlation functions in the mini-Redstar
// frontend: a1_rhopi (a1 system), f0d2 and f0d4 (f0 system), each a mix of
// single- and two-particle meson constructions over sixteen time slices.
// Reports tensor size, total device-memory footprint and the MICCO speedup
// over Groute on eight GPUs.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "redstar/correlator.hpp"

namespace micco::bench {
namespace {

int run(const CliArgs& args) {
  Env env = parse_env(args);
  check_flags(args);
  print_header("Real Correlation Functions (Redstar)", "Table VI");

  TrainedBoundsModel model = train_model(env);

  TextTable table;
  table.add_column("Function", Align::kLeft);
  table.add_column("Tensor Size");
  table.add_column("Memory Cost");
  table.add_column("diagrams");
  table.add_column("contractions");
  table.add_column("dedup");
  table.add_column("Groute GFLOPS");
  table.add_column("MICCO GFLOPS");
  table.add_column("Speedup");

  // Table VI's three meson functions, plus the two baryon-system
  // demonstrators (rank-3 hadron nodes; extension beyond the paper's table).
  for (const std::string name :
       {"a1_rhopi", "f0d2", "f0d4", "nucleon_2pt", "nn_system"}) {
    redstar::CorrelatorSpec spec = redstar::real_function(name);
    if (env.quick) {
      spec.time_slices = 4;
      spec.batch = std::max<std::int64_t>(1, spec.batch / 8);
    }
    const redstar::CorrelatorWorkload workload =
        redstar::build_workload(spec);

    const auto entries = compare_schedulers(
        workload.stream, env.cluster(),
        {SchedulerKind::kGroute, SchedulerKind::kMiccoOptimal},
        model.provider.get());

    table.add_row(
        {name, std::to_string(spec.extent),
         fmt_bytes_gb(workload.stats.total_bytes),
         std::to_string(workload.stats.diagrams),
         std::to_string(workload.stats.contractions),
         std::to_string(workload.stats.deduplicated),
         fmt_gflops(entries[0].gflops()), fmt_gflops(entries[1].gflops()),
         fmt_speedup(speedup_of(entries, SchedulerKind::kMiccoOptimal,
                                SchedulerKind::kGroute))});
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\npaper: a1_rhopi (tensor 128, 56.05G) 1.49x; f0d2 (256, 4645G) "
      "1.41x; f0d4 (256, 4064G) 1.36x. The claim under reproduction: MICCO "
      "beats the load-balance-only baseline on the three Table VI meson "
      "functions. The baryon rows are demonstrators beyond the paper's "
      "table; nn_system's hot set is tiny (36 tensors on 8 GPUs), the "
      "replicas converge quickly, and balance-only scheduling matches or "
      "beats reuse-aware placement - the small-hot-set boundary of MICCO's "
      "advantage.\n");
  return 0;
}

}  // namespace
}  // namespace micco::bench

int main(int argc, char** argv) {
  return micco::bench::run(micco::CliArgs(argc, argv));
}
