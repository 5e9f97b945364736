// Offline reuse-bound tuning (Section IV-C).
//
// Generates the regression model's training corpus: sample synthetic
// configurations across the data-characteristics space, sweep the reuse
// bound grid for each, measure GFLOPS on the simulated cluster and label
// the sample with the best-performing triple. Every individual measurement
// is kept as a TuningRecord so the Spearman analysis of Fig. 5 can run on
// the same corpus. A grid point whose schedule another run of the same
// stream provably repeats takes that run's GFLOPS instead of a simulation,
// and one that repeats another run up to some decision resumes from that
// run's checkpoint there (sweep_bound_grid); the corpus is bit-identical
// either way.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "sched/reuse_bounds.hpp"
#include "workload/characteristics.hpp"
#include "workload/synthetic.hpp"

namespace micco {

/// One labelled training sample: configuration features -> optimal bounds.
struct TrainingSample {
  DataCharacteristics characteristics;
  ReuseBounds best_bounds;
  double best_gflops = 0.0;
  double worst_gflops = 0.0;  ///< spread diagnostic (how much tuning buys)
};

/// One (configuration, bounds) measurement — a row of the Fig. 5 corpus.
struct TuningRecord {
  DataCharacteristics characteristics;
  ReuseBounds bounds;
  double gflops = 0.0;
};

struct TunerConfig {
  int samples = 300;  ///< the paper's offline corpus size
  std::vector<std::int64_t> vector_sizes{8, 16, 32, 64};
  std::vector<std::int64_t> tensor_extents{128, 256, 384, 768};
  std::vector<double> repeated_rates{0.25, 0.5, 0.75, 1.0};
  std::int64_t num_vectors = 10;
  std::int64_t batch = 16;
  int num_devices = 8;
  std::uint64_t device_capacity_bytes = 32ULL << 30;
  /// Bound-grid half-width searched for labels: all triples in
  /// [0, max_bound]^3 (the paper sweeps 0..2 in Fig. 8).
  std::int64_t max_bound = 2;
  /// Independent workload seeds averaged per sample: labels reflect the
  /// expected optimum of the configuration, not one stream's noise.
  int seeds_per_sample = 5;
  std::uint64_t seed = 2022;

  /// Empty string when generate_tuning_data accepts the config, else a
  /// complaint: every configuration the sweep can draw must be a valid
  /// synthetic config on a valid cluster.
  std::string validate() const;
};

struct TuningData {
  std::vector<TrainingSample> samples;
  std::vector<TuningRecord> records;
  /// Grid runs (sample x stream x triple) the sweep simulated, and those it
  /// took from another run's bound interval instead (sweep_bound_grid).
  std::uint64_t grid_runs_simulated = 0;
  std::uint64_t grid_runs_reused = 0;
  /// Of the simulated runs: those resumed from another run's checkpoint, the
  /// pairs the sweep simulated, and the pairs the runs hold from vector 0.
  std::uint64_t grid_runs_forked = 0;
  std::uint64_t grid_pairs_simulated = 0;
  std::uint64_t grid_pairs = 0;
};

/// Runs the offline sweep. Deterministic in `config.seed`.
TuningData generate_tuning_data(const TunerConfig& config);

/// The streams the sweep measures: seeds_per_sample configurations per
/// sample, sample-major (stream k of sample s sits at s * seeds_per_sample
/// + k). A sample's records are its streams' GFLOPS averaged per triple.
std::vector<SyntheticConfig> tuning_stream_configs(const TunerConfig& config);

/// Measures GFLOPS of one stream under MICCO with fixed bounds on a fresh
/// cluster (the tuner's inner evaluation).
double measure_gflops(const WorkloadStream& stream, ReuseBounds bounds,
                      const ClusterConfig& cluster);

/// GFLOPS of one stream at each of a list of bound triples.
struct BoundSweep {
  std::vector<double> gflops;  ///< parallel to the triples
  std::size_t simulated = 0;   ///< triples that took a simulation
  std::size_t reused = 0;      ///< triples answered by another run
  std::size_t forked = 0;      ///< simulated runs resumed from a checkpoint
  /// Pairs the simulated runs assigned and executed themselves, and the
  /// pairs those runs hold from vector 0 (the first pair that does not
  /// complete included): forked runs take their checkpoint's prefix.
  std::uint64_t pairs_simulated = 0;
  std::uint64_t pairs = 0;
  /// The first triple's run's per-vector characteristics.
  std::vector<DataCharacteristics> first_run_characteristics;
};

/// measure_gflops at every triple, bit for bit — but only the first triple
/// runs from vector 0: a triple inside the recorded bound interval of a run
/// on this stream takes that run's GFLOPS instead of simulating, and a
/// triple that left a run's box resumes from that run's checkpoint at the
/// decision where it left (DESIGN.md §5d). The simulated runs skip what
/// run_stream does beyond the GFLOPS (clock reads, the RunResult). Requires
/// `cluster.validate()` to pass and a stream that produces each output once
/// (validate_stream_structure), as every generated stream does.
BoundSweep sweep_bound_grid(const WorkloadStream& stream,
                            std::span<const ReuseBounds> triples,
                            const ClusterConfig& cluster);

}  // namespace micco
