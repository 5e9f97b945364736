// Extensions and ablations beyond the paper's evaluated system — the
// future-work directions Section VII names (asynchronous data copy,
// peer-to-peer communication, multi-node clusters) plus two design-choice
// ablations (pair visit order, and the stronger StarPU-style data-aware
// baseline the related-work section discusses).
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "sched/oracle.hpp"

namespace micco::bench {
namespace {

SyntheticConfig workload_for(const Env& env, DataDistribution dist) {
  SyntheticConfig cfg = base_synth(env);
  cfg.repeated_rate = 0.5;
  cfg.distribution = dist;
  return cfg;
}

double gflops_of(const WorkloadStream& stream, const ClusterConfig& cluster,
                 SchedulerKind kind, BoundsProvider* bounds,
                 PairOrdering ordering = PairOrdering::kAsGiven) {
  const std::unique_ptr<Scheduler> sched = make_scheduler(kind);
  RunOptions options;
  options.bounds = kind == SchedulerKind::kMiccoOptimal ? bounds : nullptr;
  options.ordering = ordering;
  return run_stream(stream, *sched, cluster, options).metrics.gflops();
}

int run(const CliArgs& args) {
  Env env = parse_env(args);
  check_flags(args);
  print_header("Extensions & Ablations", "Sec. VII future work");

  TrainedBoundsModel model = train_model(env);

  for (const DataDistribution dist :
       {DataDistribution::kUniform, DataDistribution::kGaussian}) {
    const WorkloadStream stream = generate_synthetic(workload_for(env, dist));
    std::printf("-- %s distribution (vector 64, tensor 384, 50%% repeats) "
                "--\n",
                to_string(dist));

    // (1) Communication extensions: P2P replica fetches and asynchronous
    //     copy (dual-engine overlap), separately and together.
    {
      TextTable table;
      table.add_column("configuration", Align::kLeft);
      table.add_column("Groute GFLOPS");
      table.add_column("MICCO GFLOPS");
      table.add_column("speedup");
      struct Variant {
        const char* label;
        bool p2p;
        bool overlap;
      };
      for (const Variant v :
           {Variant{"baseline (host staging, sync copy)", false, false},
            Variant{"+ P2P replica fetches", true, false},
            Variant{"+ async copy (overlap)", false, true},
            Variant{"+ both", true, true}}) {
        ClusterConfig cluster = env.cluster();
        cluster.p2p_enabled = v.p2p;
        cluster.overlap_transfers = v.overlap;
        const double groute = gflops_of(stream, cluster,
                                        SchedulerKind::kGroute, nullptr);
        const double micco =
            gflops_of(stream, cluster, SchedulerKind::kMiccoOptimal,
                      model.provider.get());
        table.add_row({v.label, fmt_gflops(groute), fmt_gflops(micco),
                       fmt_speedup(micco / groute)});
      }
      std::printf("%s", table.render().c_str());
    }

    // (2) Multi-node topologies at a constant total GPU count.
    if (env.gpus >= 4) {
      TextTable table;
      table.add_column("topology", Align::kLeft);
      table.add_column("MICCO GFLOPS");
      table.add_column("internode transfers");
      for (const int per_node : {env.gpus, env.gpus / 2, env.gpus / 4}) {
        if (per_node < 1) continue;
        ClusterConfig cluster = env.cluster();
        cluster.p2p_enabled = true;
        cluster.devices_per_node = per_node;
        MiccoScheduler sched;
        RunOptions options;
        options.bounds = model.provider.get();
        const RunResult r = run_stream(stream, sched, cluster, options);
        const int nodes = (env.gpus + per_node - 1) / per_node;
        table.add_row({std::to_string(nodes) + " node(s) x " +
                           std::to_string(per_node) + " GPUs",
                       fmt_gflops(r.metrics.gflops()),
                       std::to_string(r.metrics.internode_transfers)});
      }
      std::printf("%s", table.render().c_str());
    }

    // (3) Pair visit-order ablation (the paper processes pairs as given).
    {
      TextTable table;
      table.add_column("pair ordering", Align::kLeft);
      table.add_column("MICCO GFLOPS");
      for (const PairOrdering ordering :
           {PairOrdering::kAsGiven, PairOrdering::kReuseTierFirst}) {
        table.add_row(
            {to_string(ordering),
             fmt_gflops(gflops_of(stream, env.cluster(),
                                  SchedulerKind::kMiccoOptimal,
                                  model.provider.get(), ordering))});
      }
      std::printf("%s", table.render().c_str());
    }

    // (4) The stronger data-aware baseline from the related work.
    {
      TextTable table;
      table.add_column("scheduler", Align::kLeft);
      table.add_column("GFLOPS");
      for (const SchedulerKind kind :
           {SchedulerKind::kGroute, SchedulerKind::kDmda,
            SchedulerKind::kMiccoNaive, SchedulerKind::kMiccoOptimal}) {
        table.add_row(
            {to_string(kind),
             fmt_gflops(gflops_of(stream, env.cluster(), kind,
                                  model.provider.get()))});
      }
      std::printf("%s\n", table.render().c_str());
    }
  }
  // (5) Optimality gap: per-vector exhaustive/beam oracle vs the greedy
  //     heuristic on a small stream (the search the paper rules out as NP).
  {
    SyntheticConfig small = base_synth(env);
    small.vector_size = 8;
    small.num_vectors = 6;
    small.repeated_rate = 0.75;
    const WorkloadStream stream = generate_synthetic(small);
    ClusterConfig cluster = env.cluster();
    cluster.num_devices = std::min(env.gpus, 4);

    MiccoSchedulerOptions opts;
    opts.bounds = ReuseBounds{1, 1, 1};
    MiccoScheduler sched(opts);
    const RunResult micco = run_stream(stream, sched, cluster);
    const ExecutionMetrics oracle = run_oracle(stream, cluster);
    std::printf(
        "optimality gap (vector size 8, %d GPUs): MICCO %.2f ms vs "
        "per-vector oracle %.2f ms -> %.1f%% above optimal\n\n",
        cluster.num_devices, micco.metrics.makespan_s * 1e3,
        oracle.makespan_s * 1e3,
        100.0 * (micco.metrics.makespan_s / oracle.makespan_s - 1.0));
  }

  std::printf(
      "expected: P2P and async copy lift both schedulers and narrow (but do "
      "not erase) MICCO's lead; splitting the node raises internode traffic "
      "and lowers throughput; dmda closes part of the Groute-MICCO gap by "
      "seeing locality but still lacks reuse bounds and eviction "
      "awareness.\n");
  return 0;
}

}  // namespace
}  // namespace micco::bench

int main(int argc, char** argv) {
  return micco::bench::run(micco::CliArgs(argc, argv));
}
