// Numeric verification path.
//
// Executes a workload stream with real tensor data through the executing
// contraction kernels, independent of any device assignment. Because hadron
// contractions are pure functions of their operands, every schedule MICCO
// (or any baseline) emits must reproduce exactly the digest this reference
// produces — the property tests and the meson_spectroscopy example rely on
// this to show scheduling is numerically transparent.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "tensor/contraction.hpp"
#include "workload/task.hpp"

namespace micco {

/// The one acceptance check of a workload stream; the reader
/// (workload/serialize.hpp) checks syntax only. Per task, in stream order:
/// every id is a real one (not kInvalidTensor); every descriptor has rank
/// 2 or 3, extent and batch >= 1 and a payload within 2^64 - 1 bytes; the
/// operands are contractable and the output has the contraction's rank;
/// the task's FLOPs and kernel bytes fit 64 bits. Over the stream, in one
/// map keyed by tensor id: each output is produced once, every operand is
/// an original (never produced) or produced in a strictly earlier stage,
/// and the total FLOPs and distinct payload bytes fit 64 bits. Returns an
/// empty string when valid, else a description of the first violation.
/// Nothing may read a loaded stream's sizes before this passes.
std::string validate_stream_structure(const WorkloadStream& stream);

struct NumericResult {
  /// Sum of Frobenius norms over all produced tensors (schedule-invariant
  /// digest of the whole computation).
  double digest = 0.0;
  std::size_t tasks_executed = 0;
  std::uint64_t peak_bytes = 0;  ///< live tensor bytes at the high-water mark
};

/// Executes every task of the stream in stage order with real data.
/// Original inputs are materialised deterministically from their TensorId
/// (same id -> same data, mirroring how repeated hadron nodes share
/// payloads). Aborts if the live working set would exceed `byte_limit`
/// (keep verification workloads small; see DESIGN.md).
NumericResult execute_numerically(const WorkloadStream& stream,
                                  std::uint64_t byte_limit = 1ULL << 30);

/// Deterministic payload for an original tensor (exposed so tests can
/// cross-check individual contractions).
Tensor materialize_original(const TensorDesc& desc);

}  // namespace micco
