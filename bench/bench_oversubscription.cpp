// Fig. 11 — Memory oversubscription: Groute vs MICCO-optimal while device
// capacity shrinks so the working set is 125 % to 200 % of aggregate device
// memory. Vector size 64, tensor size 384, repeated rate 50 %, both
// distributions. Includes the eviction-sensitive-policy ablation (MICCO
// with the memory policy disabled).
//
// Second half: the eviction-policy sweep (mem/, DESIGN.md §11) over the
// Table VI f0d2/f0d4 functions at 200 % oversubscription. Per policy and
// scheduler it reports eviction-caused transfer bytes — write-backs of
// evicted tensors plus re-fetches of tensors a policy evicted — and writes
// BENCH_mem.json. Flags:
//   --out=FILE  JSON destination (default BENCH_mem.json)
//   --gate      fail (exit 1) when reuse-distance pays more eviction-caused
//               transfer bytes than LRU on either function, or when a
//               policy flips the Groute-vs-MICCO GFLOPS ranking.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "mem/policy.hpp"
#include "obs/report.hpp"
#include "redstar/correlator.hpp"

namespace micco::bench {
namespace {

/// One policy × scheduler measurement of the sweep.
struct PolicyRun {
  double gflops = 0.0;
  std::uint64_t evictions = 0;
  std::uint64_t writeback_bytes = 0;
  std::uint64_t refetch_bytes = 0;

  std::uint64_t transfer_bytes() const {
    return writeback_bytes + refetch_bytes;
  }
};

PolicyRun run_with_policy(const WorkloadStream& stream,
                          const ClusterConfig& cluster, SchedulerKind kind,
                          mem::EvictPolicyKind policy_kind,
                          BoundsProvider* bounds) {
  const std::unique_ptr<Scheduler> scheduler = make_scheduler(kind);
  RunOptions options;
  options.bounds = bounds;
  options.evict_policy = policy_kind;
  const RunResult result = run_stream(stream, *scheduler, cluster, options);
  PolicyRun out;
  out.gflops = result.metrics.gflops();
  out.evictions = result.metrics.evictions;
  out.writeback_bytes = result.metrics.writeback_bytes;
  out.refetch_bytes = result.metrics.eviction_refetch_bytes;
  return out;
}

int run(const CliArgs& args) {
  Env env = parse_env(args);
  const std::string out = args.get("out", "BENCH_mem.json");
  const bool gate = args.get_bool("gate", false);
  check_flags(args);
  print_header("Memory Oversubscription", "Fig. 11");

  TrainedBoundsModel model = train_model(env);
  CsvWriter csv;
  for (const char* column :
       {"distribution", "oversub_rate", "groute_gflops", "micco_gflops",
        "speedup", "groute_evictions", "micco_evictions"}) {
    csv.add_column(column);
  }
  const std::vector<double> rates{1.25, 1.50, 1.75, 2.00};

  for (const DataDistribution dist :
       {DataDistribution::kUniform, DataDistribution::kGaussian}) {
    std::printf("-- %s distribution --\n", to_string(dist));
    TextTable table;
    table.add_column("oversub");
    table.add_column("Groute GFLOPS");
    table.add_column("MICCO GFLOPS");
    table.add_column("speedup");
    table.add_column("Groute evict");
    table.add_column("MICCO evict");
    table.add_column("no-mem-policy GFLOPS");

    std::vector<double> speedups;
    for (const double rate : rates) {
      SyntheticConfig cfg = base_synth(env);
      cfg.distribution = dist;
      const WorkloadStream stream = generate_synthetic(cfg);

      ClusterConfig cluster = env.cluster();
      // Floor: one task's working set (3 tensors) plus slack must fit.
      const std::uint64_t floor_bytes =
          8 * stream.vectors[0].tasks[0].a.bytes();
      cluster.device_capacity_bytes = capacity_for_oversubscription(
          stream, env.gpus, rate, floor_bytes);

      const auto entries = compare_schedulers(
          stream, cluster,
          {SchedulerKind::kGroute, SchedulerKind::kMiccoOptimal},
          model.provider.get());

      // Ablation: same bounds pipeline, memory-eviction policy off.
      MiccoSchedulerOptions no_mem;
      no_mem.eviction_sensitive = false;
      MiccoScheduler ablated(no_mem);
      const RunResult ablated_run =
          run_stream(stream, ablated, cluster, model.provider.get());

      const double speedup = speedup_of(entries, SchedulerKind::kMiccoOptimal,
                                        SchedulerKind::kGroute);
      speedups.push_back(speedup);
      csv.add_row({to_string(dist), stats::format(rate, 2),
                   fmt_gflops(entries[0].gflops()),
                   fmt_gflops(entries[1].gflops()), stats::format(speedup, 4),
                   std::to_string(entries[0].result.metrics.evictions),
                   std::to_string(entries[1].result.metrics.evictions)});
      table.add_row({stats::format(rate * 100, 0) + "%",
                     fmt_gflops(entries[0].gflops()),
                     fmt_gflops(entries[1].gflops()), fmt_speedup(speedup),
                     std::to_string(entries[0].result.metrics.evictions),
                     std::to_string(entries[1].result.metrics.evictions),
                     fmt_gflops(ablated_run.metrics.gflops())});
    }
    std::printf("%s", table.render().c_str());
    std::printf("geomean speedup: %s\n\n",
                fmt_speedup(stats::geomean(speedups)).c_str());
  }
  maybe_write_csv(env, "fig11_oversubscription", csv);
  std::printf(
      "paper shape: GFLOPS decays as oversubscription grows (evictions "
      "dominate); MICCO stays ahead, up to 1.9x, geomean 1.2x (Uniform) / "
      "1.4x (Gaussian).\n");

  // -- Eviction-policy sweep (mem/, DESIGN.md §11) ------------------------
  std::printf("\n-- eviction-policy sweep: f0d2/f0d4 at 200%% "
              "oversubscription --\n");
  obs::JsonValue report = obs::JsonValue::object();
  report.set("bench", "mem_policies");
  report.set("gpus", env.gpus);
  report.set("oversub_rate", 2.0);

  CsvWriter policy_csv;
  for (const char* column :
       {"function", "policy", "groute_gflops", "micco_gflops", "evictions",
        "writeback_bytes", "refetch_bytes", "transfer_bytes"}) {
    policy_csv.add_column(column);
  }

  bool gate_failed = false;
  obs::JsonValue functions = obs::JsonValue::object();
  for (const std::string name : {"f0d2", "f0d4"}) {
    redstar::CorrelatorSpec spec = redstar::real_function(name);
    if (env.quick) {
      spec.time_slices = 4;
      spec.batch = std::max<std::int64_t>(1, spec.batch / 8);
    }
    const WorkloadStream stream = redstar::build_workload(spec).stream;
    ClusterConfig cluster = env.cluster();
    const std::uint64_t floor_bytes = 8 * stream.vectors[0].tasks[0].a.bytes();
    cluster.device_capacity_bytes =
        capacity_for_oversubscription(stream, env.gpus, 2.0, floor_bytes);

    TextTable table;
    table.add_column("policy", Align::kLeft);
    table.add_column("Groute GFLOPS");
    table.add_column("MICCO GFLOPS");
    table.add_column("MICCO evict");
    table.add_column("writeback MB");
    table.add_column("refetch MB");
    table.add_column("transfer MB");

    obs::JsonValue policies = obs::JsonValue::object();
    // Gate baselines, filled on the LRU row (the first swept policy).
    std::uint64_t lru_transfer = 0;
    double lru_speedup = 1.0;
    for (const mem::EvictPolicyKind kind : mem::all_evict_policies()) {
      const PolicyRun groute = run_with_policy(
          stream, cluster, SchedulerKind::kGroute, kind, nullptr);
      // Transfer accounting is read off the MICCO run — the paper's
      // scheduler is the one the policies co-design with.
      const PolicyRun micco =
          run_with_policy(stream, cluster, SchedulerKind::kMiccoOptimal, kind,
                          model.provider.get());
      const char* policy_name = mem::to_string(kind);
      const double speedup =
          groute.gflops > 0.0 ? micco.gflops / groute.gflops : 0.0;
      if (kind == mem::EvictPolicyKind::kLru) {
        lru_transfer = micco.transfer_bytes();
        lru_speedup = speedup;
      } else if (gate && ((lru_speedup >= 1.0 && speedup < 0.98) ||
                          (lru_speedup < 1.0 && speedup > 1.02))) {
        // A *material* ranking flip: a swing past 2 % in the other
        // direction. Policies lift both schedulers, so hairline lead
        // changes around 1.0x are expected and carry no signal.
        std::fprintf(stderr,
                     "GATE FAIL: %s flips the Groute-vs-MICCO GFLOPS "
                     "ranking on %s (MICCO/Groute %.3f vs %.3f under LRU)\n",
                     policy_name, name.c_str(), speedup, lru_speedup);
        gate_failed = true;
      }
      if (gate && kind == mem::EvictPolicyKind::kReuseDistance &&
          micco.transfer_bytes() > lru_transfer) {
        std::fprintf(stderr,
                     "GATE FAIL: reuse_distance eviction-caused transfer "
                     "bytes %llu exceed LRU's %llu on %s\n",
                     static_cast<unsigned long long>(micco.transfer_bytes()),
                     static_cast<unsigned long long>(lru_transfer),
                     name.c_str());
        gate_failed = true;
      }

      obs::JsonValue row = obs::JsonValue::object();
      row.set("groute_gflops", groute.gflops);
      row.set("micco_gflops", micco.gflops);
      row.set("evictions", micco.evictions);
      row.set("writeback_bytes", micco.writeback_bytes);
      row.set("refetch_bytes", micco.refetch_bytes);
      row.set("transfer_bytes", micco.transfer_bytes());
      policies.set(policy_name, std::move(row));

      const auto mb = [](std::uint64_t bytes) {
        return stats::format(static_cast<double>(bytes) / (1024.0 * 1024.0),
                             1);
      };
      policy_csv.add_row({name, policy_name, fmt_gflops(groute.gflops),
                          fmt_gflops(micco.gflops),
                          std::to_string(micco.evictions),
                          std::to_string(micco.writeback_bytes),
                          std::to_string(micco.refetch_bytes),
                          std::to_string(micco.transfer_bytes())});
      table.add_row({policy_name, fmt_gflops(groute.gflops),
                     fmt_gflops(micco.gflops),
                     std::to_string(micco.evictions),
                     mb(micco.writeback_bytes), mb(micco.refetch_bytes),
                     mb(micco.transfer_bytes())});
    }
    std::printf("%s: %s", name.c_str(), table.render().c_str());
    functions.set(name, std::move(policies));
  }
  report.set("functions", std::move(functions));
  report.set("gate", gate);
  if (gate) report.set("gate_passed", !gate_failed);
  maybe_write_csv(env, "mem_policy_sweep", policy_csv);
  obs::write_report_file(report, out);
  std::printf("results written to %s\n", out.c_str());
  if (gate && !gate_failed) {
    std::printf("gate passed: reuse_distance transfer bytes <= LRU on "
                "f0d2/f0d4, GFLOPS ranking stable across policies\n");
  }
  return gate_failed ? 1 : 0;
}

}  // namespace
}  // namespace micco::bench

int main(int argc, char** argv) {
  return micco::bench::run(micco::CliArgs(argc, argv));
}
