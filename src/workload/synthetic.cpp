#include "workload/synthetic.hpp"

#include <algorithm>
#include <cmath>

namespace micco {

namespace {

/// Slots of each vector after the first that repeat an earlier tensor (the
/// first vector has no history, so all of its slots are fresh).
std::uint64_t repeated_slots(const SyntheticConfig& config) {
  return static_cast<std::uint64_t>(std::llround(
      config.repeated_rate * static_cast<double>(config.vector_size)));
}

}  // namespace

std::string SyntheticConfig::validate() const {
  if (num_vectors < 1) return "need at least one vector";
  if (vector_size < 2 || vector_size % 2 != 0) {
    return "vector size must be even and >= 2";
  }
  if (tensor_extent < 1) return "tensor extent must be >= 1";
  if (batch < 1) return "batch must be >= 1";
  if (rank != 2 && rank != 3) return "rank must be 2 (meson) or 3 (baryon)";
  const TensorDesc input{0, rank, tensor_extent, batch};
  if (!input.checked_bytes().has_value() ||
      !ContractionTask{input, input, input}.counts_fit()) {
    return "tensor extent and batch overflow 64-bit byte or FLOP counts";
  }
  if (!(repeated_rate >= 0.0 && repeated_rate <= 1.0)) {
    return "repeated rate must lie in [0, 1]";
  }
  // The stream totals validate_stream_structure checks, in closed form: every
  // pair has one shape and one rank-2 output, and the distinct inputs are
  // the first vector's slots plus each later vector's unrepeated slots.
  const auto vectors = static_cast<std::uint64_t>(num_vectors);
  const auto slots = static_cast<std::uint64_t>(vector_size);
  const std::uint64_t pair_flops = ContractionTask{input, input, input}.flops();
  const std::uint64_t output_bytes =
      TensorDesc{0, 2, tensor_extent, batch}.bytes();
  std::uint64_t pairs = 0, fresh = 0, flops = 0, bytes = 0, out_bytes = 0;
  if (__builtin_mul_overflow(vectors, slots / 2, &pairs) ||
      __builtin_mul_overflow(vectors - 1, slots - repeated_slots(*this),
                             &fresh) ||
      __builtin_add_overflow(fresh, slots, &fresh) ||
      __builtin_mul_overflow(pairs, pair_flops, &flops) ||
      __builtin_mul_overflow(fresh, input.bytes(), &bytes) ||
      __builtin_mul_overflow(pairs, output_bytes, &out_bytes) ||
      __builtin_add_overflow(bytes, out_bytes, &bytes)) {
    return "stream total FLOPs or distinct bytes overflow 64 bits";
  }
  return {};
}

void validate(const SyntheticConfig& config) {
  const std::string problem = config.validate();
  MICCO_EXPECTS_MSG(problem.empty(), problem.c_str());
}

namespace {

/// Width of the Gaussian used to pick repeated tensors, as a fraction of
/// the history length. Smaller values concentrate the repeats on fewer
/// tensors (more bias, more load-imbalance pressure).
constexpr double kGaussianSigmaFraction = 0.12;

/// Picks the history index of a repeated tensor. Uniform treats all previous
/// tensors alike; Gaussian folds a normal deviate onto the low indices so a
/// small "hot set" of early tensors dominates the repeats (the biased
/// distribution of Table I).
std::size_t pick_history_index(const SyntheticConfig& config,
                               std::size_t history_size, Pcg32& rng) {
  MICCO_EXPECTS(history_size > 0);
  if (config.distribution == DataDistribution::kUniform) {
    return rng.uniform_below(static_cast<std::uint32_t>(history_size));
  }
  const double sigma = std::max(
      1.0, kGaussianSigmaFraction * static_cast<double>(history_size));
  for (;;) {
    const double draw = std::abs(rng.gaussian(0.0, sigma));
    const auto idx = static_cast<std::size_t>(draw);
    if (idx < history_size) return idx;
    // Out-of-range tail: redraw (keeps the distribution a proper folded
    // normal truncated to the history, rather than clumping at the end).
  }
}

}  // namespace

WorkloadStream generate_synthetic(const SyntheticConfig& config) {
  validate(config);

  WorkloadStream stream;
  stream.vector_size = config.vector_size;
  stream.tensor_extent = config.tensor_extent;
  stream.batch = config.batch;
  stream.repeated_rate = config.repeated_rate;
  stream.distribution = config.distribution;
  stream.vectors.reserve(static_cast<std::size_t>(config.num_vectors));

  Pcg32 rng(config.seed, /*stream=*/0x9e3779b97f4a7c15ULL);
  TensorId next_id = 0;
  std::vector<TensorDesc> history;  // inputs in order of first appearance

  const auto make_input = [&](TensorId id) {
    TensorDesc d;
    d.id = id;
    d.rank = config.rank;
    d.extent = config.tensor_extent;
    d.batch = config.batch;
    return d;
  };

  for (std::int64_t v = 0; v < config.num_vectors; ++v) {
    const auto slots = static_cast<std::size_t>(config.vector_size);
    std::vector<TensorDesc> inputs(slots);

    // Decide which slots hold repeats. The first vector has no history, so
    // all of its slots are fresh regardless of the requested rate.
    std::size_t num_repeats = 0;
    if (!history.empty()) num_repeats = repeated_slots(config);
    const std::vector<std::size_t> repeat_slots =
        rng.sample_without_replacement(slots, num_repeats);
    std::vector<bool> is_repeat(slots, false);
    for (const std::size_t s : repeat_slots) is_repeat[s] = true;

    for (std::size_t s = 0; s < slots; ++s) {
      if (is_repeat[s]) {
        inputs[s] = history[pick_history_index(config, history.size(), rng)];
      } else {
        inputs[s] = make_input(next_id++);
      }
    }

    // Fresh tensors enter the history once, after the whole vector is built,
    // so repeats always reference strictly earlier vectors.
    for (std::size_t s = 0; s < slots; ++s) {
      if (!is_repeat[s]) history.push_back(inputs[s]);
    }

    VectorWorkload vec;
    vec.tasks.reserve(slots / 2);
    for (std::size_t s = 0; s + 1 < slots; s += 2) {
      ContractionTask task;
      task.a = inputs[s];
      task.b = inputs[s + 1];
      // Outputs are always rank-2 (both kernels emit matrices) and never
      // collide with input ids.
      task.out = TensorDesc{next_id++, 2, config.tensor_extent, config.batch};
      vec.tasks.push_back(task);
    }
    stream.vectors.push_back(std::move(vec));
  }

  return stream;
}

}  // namespace micco
