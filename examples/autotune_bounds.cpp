// Autotuning walkthrough: generate the offline tuning corpus, train the
// Random-Forest reuse-bound model, inspect its predictions across the
// data-characteristics space, and run MICCO-naive vs MICCO-optimal online.
//
//   ./autotune_bounds [--samples=120] [--gpus=8]
#include <cstdio>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/bounds_model.hpp"
#include "core/experiment.hpp"
#include "workload/synthetic.hpp"

int main(int argc, char** argv) {
  using namespace micco;
  const CliArgs args(argc, argv);
  const int gpus = static_cast<int>(args.get_int("gpus", 8));

  // 1. Offline phase: sweep reuse-bound triples across sampled workload
  //    configurations and label each with its measured optimum.
  TunerConfig tuner;
  tuner.samples = static_cast<int>(args.get_int("samples", 120));
  tuner.num_devices = gpus;
  tuner.batch = 32;
  // The model is scored on a held-out fifth (train_bounds_model).
  if (tuner.samples < 5) {
    std::fprintf(stderr, "autotune_bounds: --samples must be >= 5\n");
    return 2;
  }
  std::printf("offline sweep: %d samples x 27 bound triples...\n",
              tuner.samples);
  const TuningData data = generate_tuning_data(tuner);

  // 2. Train the production model and report held-out quality.
  const TrainedBoundsModel model = train_bounds_model(
      data.samples, random_forest_factory(), "RandomForest", tuner.max_bound);
  std::printf("RandomForest held-out R^2 = %.2f (train %.1f ms, inference "
              "%.1f us)\n\n",
              model.report.mean_r2, model.report.train_ms,
              model.report.inference_us);

  // 3. Inspect what the model learned: predicted bounds across the space.
  TextTable table;
  table.add_column("vector", Align::kRight);
  table.add_column("tensor");
  table.add_column("bias");
  table.add_column("repeat");
  table.add_column("predicted bounds");
  for (const double vec : {16.0, 64.0}) {
    for (const double bias : {0.0, 0.4}) {
      for (const double rate : {0.25, 0.9}) {
        DataCharacteristics c;
        c.vector_size = vec;
        c.tensor_extent = 384;
        c.distribution_bias = bias;
        c.repeated_rate = rate;
        table.add_row({std::to_string(static_cast<int>(vec)), "384",
                       bias == 0.0 ? "uniform" : "biased",
                       std::to_string(static_cast<int>(rate * 100)) + "%",
                       model.provider->bounds_for(c).to_string()});
      }
    }
  }
  std::printf("%s\n", table.render().c_str());

  // 4. Online phase: the pipeline extracts per-vector characteristics and
  //    queries the model before scheduling each vector (Fig. 6).
  SyntheticConfig workload;
  workload.num_vectors = 10;
  workload.vector_size = 64;
  workload.tensor_extent = 384;
  workload.batch = 32;
  workload.repeated_rate = 0.75;
  workload.distribution = DataDistribution::kGaussian;
  workload.seed = 3;
  const WorkloadStream stream = generate_synthetic(workload);

  ClusterConfig cluster;
  cluster.num_devices = gpus;

  MiccoScheduler naive;
  const RunResult naive_run = run_stream(stream, naive, cluster);
  MiccoScheduler tuned;
  const RunResult tuned_run = run_stream(
      stream, tuned, cluster,
      const_cast<RegressionBoundsProvider*>(model.provider.get()));

  std::printf("MICCO-naive   : %8.0f GFLOPS\n", naive_run.metrics.gflops());
  std::printf("MICCO-optimal : %8.0f GFLOPS (%.2fx, scheduling overhead "
              "%.2f ms incl. inference)\n",
              tuned_run.metrics.gflops(),
              naive_run.metrics.makespan_s / tuned_run.metrics.makespan_s,
              tuned_run.scheduling_overhead_ms);
  return 0;
}
