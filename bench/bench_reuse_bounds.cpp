// Fig. 8 — Impact of reuse bounds: GFLOPS across the thirteen measured
// bound triples for the paper's three cases:
//   Case (1) vector size 64, repeated rate 50 %
//   Case (2) vector size 16, repeated rate 25 %
//   Case (3) vector size 32, repeated rate 75 %
// Tensor size 384, both distributions. Also reports the collapsed-bound
// ablation (one shared slack value instead of three per-tier bounds).
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/tuner.hpp"

namespace micco::bench {
namespace {

struct Case {
  const char* label;
  std::int64_t vector_size;
  double repeated_rate;
};

int run(const CliArgs& args) {
  Env env = parse_env(args);
  warn_unused(args);
  print_header("Impact of Reuse Bounds", "Fig. 8");

  const std::vector<Case> cases{{"Case(1) v=64 r=50%", 64, 0.50},
                                {"Case(2) v=16 r=25%", 16, 0.25},
                                {"Case(3) v=32 r=75%", 32, 0.75}};

  // Each case's stream is generated once and swept over the Fig. 8 triples,
  // then the ablation's shared-slack triples; sweep_bound_grid simulates
  // only the triples an earlier run's bound interval does not cover.
  const auto& fig8 = fig8_bound_sweep();
  std::vector<ReuseBounds> triples(fig8.begin(), fig8.end());
  for (std::int64_t b = 0; b <= 2; ++b) {
    triples.push_back(ReuseBounds{b, b, b});
  }

  for (const DataDistribution dist :
       {DataDistribution::kUniform, DataDistribution::kGaussian}) {
    std::printf("-- %s distribution --\n", to_string(dist));
    std::vector<BoundSweep> sweeps;
    for (const Case& c : cases) {
      SyntheticConfig cfg = base_synth(env);
      cfg.vector_size = c.vector_size;
      cfg.repeated_rate = c.repeated_rate;
      cfg.distribution = dist;
      sweeps.push_back(
          sweep_bound_grid(generate_synthetic(cfg), triples, env.cluster()));
    }

    TextTable table;
    table.add_column("bounds", Align::kLeft);
    for (const Case& c : cases) table.add_column(c.label);

    struct Best {
      double gflops = 0.0;
      ReuseBounds bounds;
    };
    std::vector<Best> best(cases.size());

    for (std::size_t t = 0; t < fig8.size(); ++t) {
      std::vector<std::string> row{fig8[t].to_string()};
      for (std::size_t i = 0; i < cases.size(); ++i) {
        const double gflops = sweeps[i].gflops[t];
        row.push_back(fmt_gflops(gflops));
        if (gflops > best[i].gflops) best[i] = Best{gflops, fig8[t]};
      }
      table.add_row(std::move(row));
    }
    std::printf("%s", table.render().c_str());
    for (std::size_t i = 0; i < cases.size(); ++i) {
      std::printf("best %s: %s at %s\n", cases[i].label,
                  fmt_gflops(best[i].gflops).c_str(),
                  best[i].bounds.to_string().c_str());
    }

    // Ablation: collapse the three per-tier bounds into one shared value.
    std::printf("ablation - single shared bound (b,b,b):\n");
    for (std::size_t b = 0; b <= 2; ++b) {
      std::printf("  b=%zu:", b);
      for (const BoundSweep& sweep : sweeps) {
        std::printf(" %s", fmt_gflops(sweep.gflops[fig8.size() + b]).c_str());
      }
      std::printf("\n");
    }
    std::printf("\n");
  }
  std::printf(
      "paper shape: the best triple shifts with the data characteristics "
      "(e.g. (0,2,0) for Case(1) vs (0,2,2) for Case(3)), motivating the "
      "regression model; per-tier bounds dominate a single shared slack.\n");
  return 0;
}

}  // namespace
}  // namespace micco::bench

int main(int argc, char** argv) {
  return micco::bench::run(micco::CliArgs(argc, argv));
}
