#include "workload/task.hpp"

namespace micco {

namespace {

/// acc * factor, or nullopt once the product leaves the 64-bit range.
std::optional<std::uint64_t> times(std::optional<std::uint64_t> acc,
                                   std::uint64_t factor) {
  std::uint64_t product = 0;
  if (!acc.has_value() || __builtin_mul_overflow(*acc, factor, &product)) {
    return std::nullopt;
  }
  return product;
}

/// extent^rank entries per batch element, checked.
std::optional<std::uint64_t> entries(int rank, std::int64_t extent) {
  std::optional<std::uint64_t> acc = 1;
  for (int i = 0; i < rank; ++i) {
    acc = times(acc, static_cast<std::uint64_t>(extent));
  }
  return acc;
}

/// acc + term, or nullopt once the sum leaves the 64-bit range.
std::optional<std::uint64_t> plus(std::optional<std::uint64_t> acc,
                                  std::optional<std::uint64_t> term) {
  std::uint64_t sum = 0;
  if (!acc.has_value() || !term.has_value() ||
      __builtin_add_overflow(*acc, *term, &sum)) {
    return std::nullopt;
  }
  return sum;
}

/// A total that must fit: a stream that passed validate_stream_structure,
/// or one generated from a valid SyntheticConfig, has totals that do.
std::uint64_t fitting(std::optional<std::uint64_t> total) {
  MICCO_EXPECTS_MSG(total.has_value(),
                    "stream total exceeds 2^64-1 (see "
                    "validate_stream_structure)");
  return *total;
}

}  // namespace

std::optional<std::uint64_t> TensorDesc::checked_bytes() const {
  MICCO_EXPECTS(extent > 0 && batch > 0);
  return times(times(entries(rank, extent), static_cast<std::uint64_t>(batch)),
               sizeof(cplx));
}

bool ContractionTask::counts_fit() const {
  const auto batch = static_cast<std::uint64_t>(a.batch);
  // hadron_contraction_flops: 8 flops per complex MAC, extent^3 MACs per
  // batch element for a meson GEMM and extent^4 otherwise.
  const int mac_rank = a.rank == 2 && b.rank == 2 ? 3 : 4;
  if (!times(times(entries(mac_rank, a.extent), batch), 8).has_value()) {
    return false;
  }
  // hadron_contraction_bytes: both operands and the result.
  std::uint64_t sum = 0;
  for (const int rank :
       {a.rank, b.rank, contraction_result_rank(a.rank, b.rank)}) {
    const std::optional<std::uint64_t> n = entries(rank, a.extent);
    if (!n.has_value() || __builtin_add_overflow(sum, *n, &sum)) return false;
  }
  return times(times(sum, batch), sizeof(cplx)).has_value();
}

const char* to_string(DataDistribution d) {
  switch (d) {
    case DataDistribution::kUniform: return "Uniform";
    case DataDistribution::kGaussian: return "Gaussian";
  }
  return "?";
}

std::unordered_set<TensorId> VectorWorkload::unique_inputs() const {
  std::unordered_set<TensorId> ids;
  ids.reserve(tasks.size() * 2);
  for (const ContractionTask& t : tasks) {
    ids.insert(t.a.id);
    ids.insert(t.b.id);
  }
  return ids;
}

std::uint64_t VectorWorkload::total_flops() const {
  std::optional<std::uint64_t> acc = 0;
  for (const ContractionTask& t : tasks) acc = plus(acc, t.flops());
  return fitting(acc);
}

std::uint64_t WorkloadStream::total_flops() const {
  std::optional<std::uint64_t> acc = 0;
  for (const VectorWorkload& v : vectors) acc = plus(acc, v.total_flops());
  return fitting(acc);
}

std::uint64_t WorkloadStream::total_distinct_bytes() const {
  std::unordered_set<TensorId> seen;
  std::optional<std::uint64_t> acc = 0;
  for (const VectorWorkload& v : vectors) {
    for (const ContractionTask& t : v.tasks) {
      for (const TensorDesc* d : {&t.a, &t.b, &t.out}) {
        if (seen.insert(d->id).second) acc = plus(acc, d->bytes());
      }
    }
  }
  return fitting(acc);
}

}  // namespace micco
