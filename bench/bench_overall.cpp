// Fig. 7 — Overall performance: Groute vs MICCO-naive vs MICCO-optimal
// throughput across two repeated-data distributions (Uniform, Gaussian),
// vector sizes {8, 16, 32, 64} and repeated rates {25, 50, 75, 100}%.
// Tensor size 384, eight GPUs; blue-star speedups are MICCO-optimal/Groute.
#include <cstdio>
#include <utility>
#include <vector>

#include "bench_common.hpp"

namespace micco::bench {
namespace {

int run(const CliArgs& args) {
  Env env = parse_env(args);
  // The evaluated system stages tensors through host memory; peer-to-peer
  // replica fetches are the asynchronous-copy extension (--p2p=on ablation).
  const bool p2p = args.get_bool("p2p", false);
  check_flags(args);
  print_header("Overall Performance", "Fig. 7");

  TrainedBoundsModel model = train_model(env);

  CsvWriter csv;
  for (const char* column :
       {"distribution", "vector_size", "repeat_rate", "groute_gflops",
        "micco_naive_gflops", "micco_optimal_gflops", "speedup"}) {
    csv.add_column(column);
  }

  const std::vector<std::int64_t> vector_sizes =
      env.quick ? std::vector<std::int64_t>{8, 16}
                : std::vector<std::int64_t>{8, 16, 32, 64};
  const std::vector<double> rates{0.25, 0.50, 0.75, 1.00};

  for (const DataDistribution dist :
       {DataDistribution::kUniform, DataDistribution::kGaussian}) {
    std::printf("-- %s distribution (tensor size 384, %d GPUs)%s --\n",
                to_string(dist), env.gpus, p2p ? "" : " [P2P off]");
    TextTable table;
    table.add_column("vector", Align::kLeft);
    table.add_column("repeat");
    table.add_column("Groute GFLOPS");
    table.add_column("MICCO-naive GFLOPS");
    table.add_column("MICCO-optimal GFLOPS");
    table.add_column("speedup*");

    // Each (vector size, repeated rate) point is an independent measurement
    // (its own stream, its own fresh clusters); fan the grid out over the
    // worker pool and fill the table serially in grid order afterwards.
    std::vector<std::pair<std::int64_t, double>> grid;
    for (const std::int64_t vec_size : vector_sizes) {
      for (const double rate : rates) grid.emplace_back(vec_size, rate);
    }
    const auto results = run_trials(
        static_cast<std::int64_t>(grid.size()), [&](std::size_t i) {
          SyntheticConfig cfg = base_synth(env);
          cfg.vector_size = grid[i].first;
          cfg.repeated_rate = grid[i].second;
          cfg.distribution = dist;
          const WorkloadStream stream = generate_synthetic(cfg);

          ClusterConfig cluster = env.cluster();
          cluster.p2p_enabled = p2p;
          return compare_schedulers(
              stream, cluster,
              {SchedulerKind::kGroute, SchedulerKind::kMiccoNaive,
               SchedulerKind::kMiccoOptimal},
              model.provider.get());
        });

    std::vector<double> speedups;
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const auto& entries = results[i];
      const std::int64_t vec_size = grid[i].first;
      const double rate = grid[i].second;
      const double speedup = speedup_of(entries, SchedulerKind::kMiccoOptimal,
                                        SchedulerKind::kGroute);
      speedups.push_back(speedup);
      csv.add_row({to_string(dist), std::to_string(vec_size),
                   stats::format(rate, 2), fmt_gflops(entries[0].gflops()),
                   fmt_gflops(entries[1].gflops()),
                   fmt_gflops(entries[2].gflops()),
                   stats::format(speedup, 4)});
      table.add_row({std::to_string(vec_size),
                     stats::format(rate * 100, 0) + "%",
                     fmt_gflops(entries[0].gflops()),
                     fmt_gflops(entries[1].gflops()),
                     fmt_gflops(entries[2].gflops()),
                     fmt_speedup(speedup)});
      if (rate == rates.back()) table.add_rule();
    }
    std::printf("%s", table.render().c_str());
    std::printf("geomean speedup (MICCO-optimal / Groute): %s   max: %s\n\n",
                fmt_speedup(stats::geomean(speedups)).c_str(),
                fmt_speedup(stats::max(speedups)).c_str());
  }
  maybe_write_csv(env, "fig7_overall", csv);
  {
    // Telemetry deep-dive on the paper's headline point (Uniform, vector
    // size 64, 50 % repeated): full decision counters + device rollups.
    SyntheticConfig cfg = base_synth(env);
    ClusterConfig cluster = env.cluster();
    cluster.p2p_enabled = p2p;
    maybe_write_report(env, "fig7_overall_micco", generate_synthetic(cfg),
                       cluster, SchedulerKind::kMiccoOptimal,
                       model.provider.get());
  }
  std::printf(
      "paper shape: MICCO-optimal wins everywhere; geomean 1.57x (Uniform) "
      "and 1.65x (Gaussian), max 2.25x;\nbest repeated rate 75%% for "
      "Uniform, 50%% for Gaussian; large Gaussian vectors sag.\n");
  return 0;
}

}  // namespace
}  // namespace micco::bench

int main(int argc, char** argv) {
  return micco::bench::run(micco::CliArgs(argc, argv));
}
