// Scheduling-level task model.
//
// After Redstar's dependency analysis, a correlation function reaches the
// scheduler as a sequence of *vectors*: each vector holds independent tensor
// pairs, every pair is one hadron contraction, and vectors execute with a
// barrier between them (they correspond to the stages of Fig. 1). These are
// the types the workload generators emit, the schedulers consume, and the
// GPU simulator executes.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_set>
#include <vector>

#include "common/assert.hpp"
#include "tensor/contraction.hpp"

namespace micco {

/// Globally unique logical tensor identity. Two tasks referencing the same
/// TensorId reference the same data, which is exactly what creates the data
/// reuse opportunities MICCO exploits.
using TensorId = std::uint64_t;

constexpr TensorId kInvalidTensor = ~TensorId{0};

/// Metadata of one hadron-node tensor (a batch of matrices or rank-3
/// tensors). Only metadata flows through the scheduler; payloads live in
/// the numeric path (tensor::Tensor) or are priced by the cost model.
struct TensorDesc {
  TensorId id = kInvalidTensor;
  int rank = 2;               ///< 2 = meson node, 3 = baryon node
  std::int64_t extent = 0;    ///< the paper's "tensor size"
  std::int64_t batch = 1;     ///< batched kernel width

  /// Device-memory footprint of the payload.
  std::uint64_t bytes() const {
    MICCO_EXPECTS(extent > 0 && batch > 0);
    std::uint64_t per_entry = 1;
    for (int i = 0; i < rank; ++i) {
      per_entry *= static_cast<std::uint64_t>(extent);
    }
    return per_entry * static_cast<std::uint64_t>(batch) * sizeof(cplx);
  }

  /// bytes() without its silent wrap: nullopt when the payload exceeds
  /// 2^64 - 1 bytes (validate_stream_structure rejects such descriptors).
  /// Requires extent and batch >= 1 and loops `rank` times, so untrusted
  /// descriptors need their rank checked first.
  std::optional<std::uint64_t> checked_bytes() const;

  bool valid() const { return id != kInvalidTensor; }
  bool operator==(const TensorDesc& other) const = default;
};

/// One hadron contraction: reduce the edge between hadron nodes `a` and `b`,
/// producing `out`. FLOPs are fixed by the operand shapes.
struct ContractionTask {
  TensorDesc a;
  TensorDesc b;
  TensorDesc out;

  std::uint64_t flops() const {
    return hadron_contraction_flops(a.rank, b.rank, a.batch, a.extent);
  }

  /// Bytes the kernel touches (roofline traffic term).
  std::uint64_t kernel_bytes() const {
    return hadron_contraction_bytes(a.rank, b.rank, a.batch, a.extent);
  }

  /// False when flops() or kernel_bytes() exceeds 2^64 - 1, where both
  /// would wrap silently (validate_stream_structure rejects such tasks).
  /// Requires operand ranks of 2 or 3.
  bool counts_fit() const;
};

/// How the generator selects which historical tensors repeat.
enum class DataDistribution { kUniform, kGaussian };

const char* to_string(DataDistribution d);

/// A stage's worth of independent contractions (one "vector" in the paper's
/// vocabulary). `tensor_count()` counts tensor *slots* (2 per task), which
/// is the quantity balanceNum divides.
struct VectorWorkload {
  std::vector<ContractionTask> tasks;

  /// Number of input tensor slots (the paper's "vector size").
  std::int64_t tensor_count() const {
    return static_cast<std::int64_t>(tasks.size()) * 2;
  }

  /// Distinct input TensorIds in this vector.
  std::unordered_set<TensorId> unique_inputs() const;

  /// Total FLOPs over all contractions in the vector; the sum must fit in
  /// 64 bits (it does in every stream that passes
  /// validate_stream_structure).
  std::uint64_t total_flops() const;
};

/// A full workload: an ordered sequence of vectors with barriers between
/// them, plus the generator-level ground truth used by the regression model
/// experiments.
struct WorkloadStream {
  std::vector<VectorWorkload> vectors;

  // Generator parameters (ground truth; the online path re-derives its own
  // estimates via DataCharacteristics).
  std::int64_t vector_size = 0;    ///< tensors per vector
  std::int64_t tensor_extent = 0;  ///< the paper's "tensor size"
  std::int64_t batch = 1;
  double repeated_rate = 0.0;      ///< requested repeat fraction
  DataDistribution distribution = DataDistribution::kUniform;

  /// FLOPs over all contractions. Aborts when the sum exceeds 2^64 - 1:
  /// run it on a stream that passed validate_stream_structure, which
  /// rejects such streams (SyntheticConfig::validate such configurations).
  std::uint64_t total_flops() const;

  /// Peak footprint if every distinct tensor (inputs + outputs) stayed
  /// resident: the denominator for oversubscription-rate sizing. Same
  /// precondition as total_flops().
  std::uint64_t total_distinct_bytes() const;
};

}  // namespace micco
