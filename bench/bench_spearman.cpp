// Fig. 5 — Heatmap of Spearman rank-correlation coefficients among the four
// data characteristics (distribution bias, vector size, repeated rate,
// tensor size), the three reuse bounds, and GFLOPS, computed over the
// offline tuning corpus (every (configuration, bound-triple) measurement).
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/tuner.hpp"

namespace micco::bench {
namespace {

int run(const CliArgs& args) {
  Env env = parse_env(args);
  check_flags(args);
  print_header("Spearman Correlation Heatmap", "Fig. 5");

  TunerConfig tuner;
  tuner.samples = env.samples;
  tuner.num_vectors = env.vectors;
  tuner.batch = env.batch;
  tuner.num_devices = env.gpus;
  tuner.seed = env.seed;
  if (env.quick) {
    tuner.vector_sizes = {8, 16};
    tuner.tensor_extents = {128, 384};
  }
  std::printf("sweeping %d configurations x 27 bound triples...\n\n",
              tuner.samples);
  const TuningData data = generate_tuning_data(tuner);

  // Column series over all records, in the paper's heatmap order.
  const std::vector<std::string> names{
      "DataDist", "VectorSize", "RepeatRate", "TensorSize",
      "Bound1",   "Bound2",     "Bound3",     "GFLOPS"};
  std::vector<std::vector<double>> series(names.size());
  for (const TuningRecord& r : data.records) {
    series[0].push_back(r.characteristics.distribution_bias);
    series[1].push_back(r.characteristics.vector_size);
    series[2].push_back(r.characteristics.repeated_rate);
    series[3].push_back(r.characteristics.tensor_extent);
    series[4].push_back(static_cast<double>(r.bounds[0]));
    series[5].push_back(static_cast<double>(r.bounds[1]));
    series[6].push_back(static_cast<double>(r.bounds[2]));
    series[7].push_back(r.gflops);
  }

  TextTable table;
  table.add_column("", Align::kLeft);
  for (const std::string& n : names) table.add_column(n);
  for (std::size_t i = 0; i < names.size(); ++i) {
    std::vector<std::string> row{names[i]};
    for (std::size_t j = 0; j < names.size(); ++j) {
      row.push_back(stats::format(stats::spearman(series[i], series[j]), 2));
    }
    table.add_row(std::move(row));
  }
  std::printf("%s", table.render().c_str());

  // The sweep holds the bounds grid orthogonal to the characteristics, so
  // the bound rows correlate with GFLOPS only conditionally; also report
  // the per-configuration correlation between each *optimal* bound label
  // and the characteristics (the relationships the model learns).
  std::printf("\noptimal-bound labels vs characteristics (Spearman):\n");
  std::vector<std::vector<double>> label_series(7);
  for (const TrainingSample& s : data.samples) {
    label_series[0].push_back(s.characteristics.distribution_bias);
    label_series[1].push_back(s.characteristics.vector_size);
    label_series[2].push_back(s.characteristics.repeated_rate);
    label_series[3].push_back(s.characteristics.tensor_extent);
    label_series[4].push_back(static_cast<double>(s.best_bounds[0]));
    label_series[5].push_back(static_cast<double>(s.best_bounds[1]));
    label_series[6].push_back(static_cast<double>(s.best_bounds[2]));
  }
  TextTable label_table;
  label_table.add_column("", Align::kLeft);
  for (int b = 0; b < 3; ++b) {
    label_table.add_column("opt Bound" + std::to_string(b + 1));
  }
  for (std::size_t i = 0; i < 4; ++i) {
    std::vector<std::string> row{names[i]};
    for (std::size_t b = 0; b < 3; ++b) {
      row.push_back(stats::format(
          stats::spearman(label_series[i], label_series[4 + b]), 2));
    }
    label_table.add_row(std::move(row));
  }
  std::printf("%s", label_table.render().c_str());
  std::printf(
      "\npaper shape: all four characteristics correlate positively with "
      "GFLOPS; repeat rate and distribution bias push the optimal bounds up "
      "(reuse pays), vector and tensor size push them down (imbalance "
      "costs); the relationships are monotone but non-linear.\n");
  return 0;
}

}  // namespace
}  // namespace micco::bench

int main(int argc, char** argv) {
  return micco::bench::run(micco::CliArgs(argc, argv));
}
