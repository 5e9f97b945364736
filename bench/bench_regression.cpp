// Table IV — R^2 score of the three reuse-bound regression models (Linear
// Regression, Gradient Boosting, Random Forest) on the held-out 20 % of the
// offline corpus, with the paper's hyperparameters (150 boosting stages /
// 150 trees, learning rate 0.1). Also reports training and inference cost.
#include <cstdio>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/tuner.hpp"

namespace micco::bench {
namespace {

int run(const CliArgs& args) {
  Env env = parse_env(args);
  check_flags(args);
  print_header("Regression Model Comparison", "Table IV");

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
  std::printf("building offline corpus: %d samples, 20%% held out...\n\n",
              tuner.samples);
  const TuningData data = generate_tuning_data(tuner);

  const std::vector<std::pair<ml::RegressorFactory, std::string>> models{
      {linear_regression_factory(), "LinearRegression"},
      {gradient_boosting_factory(), "GradientBoosting"},
      {random_forest_factory(), "RandomForest"}};

  TextTable table;
  table.add_column("model", Align::kLeft);
  table.add_column("R^2 (mean)");
  table.add_column("R^2 bound1");
  table.add_column("R^2 bound2");
  table.add_column("R^2 bound3");
  table.add_column("train (ms)");
  table.add_column("inference (us)");

  for (const auto& [factory, name] : models) {
    const TrainedBoundsModel trained =
        train_bounds_model(data.samples, factory, name, tuner.max_bound,
                           env.seed);
    table.add_row({name, stats::format(trained.report.mean_r2, 2),
                   stats::format(trained.report.per_bound_r2[0], 2),
                   stats::format(trained.report.per_bound_r2[1], 2),
                   stats::format(trained.report.per_bound_r2[2], 2),
                   stats::format(trained.report.train_ms, 1),
                   stats::format(trained.report.inference_us, 1)});
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\npaper: LinearRegression 0.57, GradientBoosting 0.91, RandomForest "
      "0.95. The claim under reproduction is the ordering - the "
      "characteristics->bounds surface is non-linear, so tree ensembles "
      "far outscore the linear baseline, and inference stays in the "
      "microsecond range.\n");
  return 0;
}

}  // namespace
}  // namespace micco::bench

int main(int argc, char** argv) {
  return micco::bench::run(micco::CliArgs(argc, argv));
}
