// Synthetic workload generator reproducing Section V's evaluation setup:
// streams of tensor-pair vectors with controlled vector size, tensor size,
// repeated rate and repeated-data selection distribution (Uniform or
// Gaussian-biased), all driven by a deterministic seed.
#pragma once

#include <cstdint>
#include <string>

#include "common/rng.hpp"
#include "workload/task.hpp"

namespace micco {

struct SyntheticConfig {
  std::int64_t num_vectors = 10;   ///< Table V uses a sum of 10 vectors
  std::int64_t vector_size = 64;   ///< tensors per vector (even, >= 2)
  std::int64_t tensor_extent = 384;
  std::int64_t batch = 16;
  int rank = 2;                    ///< 2 = meson workload, 3 = baryon
  double repeated_rate = 0.5;      ///< fraction of slots drawn from history
  DataDistribution distribution = DataDistribution::kUniform;

  /// Width of the Gaussian used to pick repeated tensors, as a fraction of
  /// the history length. Smaller values concentrate the repeats on fewer
  /// tensors (more bias, more load-imbalance pressure).
  double gaussian_sigma_fraction = 0.12;

  std::uint64_t seed = 42;

  /// Empty string when the config is well formed, else a complaint.
  std::string validate() const;
};

/// Generates a reproducible stream. Repeated slots of each vector are drawn
/// from the tensors of *previous* vectors (the paper: "the selection of
/// repeated data from the previous data follows two distributions"); the
/// first vector is therefore all-new. Fresh tensors get new TensorIds.
WorkloadStream generate_synthetic(const SyntheticConfig& config);

/// Validates a config, aborting with SyntheticConfig::validate()'s message
/// on nonsensical values (odd vector size, repeated_rate outside [0,1], ...).
void validate(const SyntheticConfig& config);

}  // namespace micco
