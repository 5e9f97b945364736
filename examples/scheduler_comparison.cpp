// Side-by-side comparison of the Groute-style earliest-available baseline
// and MICCO on a user-configurable workload, with the full metric
// breakdown.
//
//   ./scheduler_comparison [--gpus=8] [--vector-size=64] [--repeat=0.5]
//                          [--gaussian] [--oversub=1.0] [--tensor=384]
#include <cstdio>

#include "common/cli.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/experiment.hpp"
#include "workload/synthetic.hpp"

int main(int argc, char** argv) {
  using namespace micco;
  const CliArgs args(argc, argv);

  SyntheticConfig workload;
  workload.num_vectors = args.get_int("vectors", 10);
  workload.vector_size = args.get_int("vector-size", 64);
  workload.tensor_extent = args.get_int("tensor", 384);
  workload.batch = args.get_int("batch", 32);
  workload.repeated_rate = args.get_double("repeat", 0.5);
  workload.distribution = args.get_bool("gaussian", false)
                              ? DataDistribution::kGaussian
                              : DataDistribution::kUniform;
  workload.seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
  const WorkloadStream stream = generate_synthetic(workload);

  ClusterConfig cluster;
  cluster.num_devices = static_cast<int>(args.get_int("gpus", 8));
  const double oversub = args.get_double("oversub", 0.0);
  if (oversub > 0.0) {
    cluster.device_capacity_bytes = capacity_for_oversubscription(
        stream, cluster.num_devices, oversub,
        8 * stream.vectors[0].tasks[0].a.bytes());
  }

  std::printf("workload: %lld vectors x %lld tensors, tensor size %lld, "
              "%.0f%% repeats, %s; %d GPUs",
              static_cast<long long>(workload.num_vectors),
              static_cast<long long>(workload.vector_size),
              static_cast<long long>(workload.tensor_extent),
              workload.repeated_rate * 100, to_string(workload.distribution),
              cluster.num_devices);
  if (oversub > 0.0) std::printf(", %.0f%% oversubscribed", oversub * 100);
  std::printf("\n\n");

  const auto entries = compare_schedulers(
      stream, cluster,
      {SchedulerKind::kGroute, SchedulerKind::kMiccoNaive});

  TextTable table;
  table.add_column("scheduler", Align::kLeft);
  table.add_column("GFLOPS");
  table.add_column("makespan (ms)");
  table.add_column("reuse hits");
  table.add_column("fetches");
  table.add_column("evictions");
  table.add_column("barrier idle (ms)");
  table.add_column("vs Groute");

  for (const ComparisonEntry& e : entries) {
    const ExecutionMetrics& m = e.result.metrics;
    table.add_row(
        {e.name, stats::format(m.gflops(), 0),
         stats::format(m.makespan_s * 1e3, 1),
         std::to_string(m.reused_operands), std::to_string(m.fetched_operands),
         std::to_string(m.evictions),
         stats::format(m.barrier_idle_s * 1e3, 1),
         stats::format(speedup_of(entries, e.kind, SchedulerKind::kGroute),
                       2) +
             "x"});
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nGroute keeps devices busy but re-fetches repeated tensors (case 2 "
      "of Fig. 2); MICCO trades reuse against balance (case 3).\n");
  return 0;
}
