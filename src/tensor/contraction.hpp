// Hadron contraction kernels.
//
// Reducing an edge of a contraction graph contracts the two incident hadron
// nodes: a batched complex matrix multiplication for meson systems, or a
// batched two-index tensor contraction for baryon systems. Both kernels and
// their exact FLOP counts live here; the FLOP counts also calibrate the
// gpusim cost model so the simulated GFLOPS figures in the benches use the
// same arithmetic the paper's hipBLAS kernels perform.
#pragma once

#include <cstdint>

#include "tensor/tensor.hpp"

namespace micco {

/// Batched matrix product C[b] = A[b] * B[b] (meson hadron contraction).
/// A: [batch; m x k], B: [batch; k x n] -> C: [batch; m x n].
Tensor contract_meson(const Tensor& a, const Tensor& b);

/// Batched baryon contraction over two shared indices:
/// C[b](i, l) = sum_{j,k} A[b](i, j, k) * B[b](k, j, l).
/// Reducing a baryon edge contracts the two quark indices the edge carries,
/// leaving a rank-2 node.
Tensor contract_baryon(const Tensor& a, const Tensor& b);

/// Mixed-rank contraction arising while reducing baryon diagrams: a rank-2
/// intermediate against a rank-3 baryon node over one shared index,
/// C[b](i, k, l) = sum_j M[b](i, j) * T[b](j, k, l). The result stays
/// rank 3 (two quark lines of the baryon remain open).
Tensor contract_mixed(const Tensor& m, const Tensor& t);

/// Result rank of contracting hadron nodes of the given ranks:
/// 2x2 -> 2 (meson), 3x3 -> 2 (double contraction), 2x3 / 3x2 -> 3.
int contraction_result_rank(int rank_a, int rank_b);

/// Exact complex-FLOP counts (a complex multiply-accumulate = 8 real flops)
/// for each kernel, given the operand shapes. Used by both the executing
/// kernels' tests and the analytic cost model.
std::uint64_t meson_contraction_flops(std::int64_t batch, std::int64_t m,
                                      std::int64_t k, std::int64_t n);
std::uint64_t baryon_contraction_flops(std::int64_t batch,
                                       std::int64_t extent);

std::uint64_t mixed_contraction_flops(std::int64_t batch,
                                      std::int64_t extent);

/// FLOPs for contracting two hadron nodes of the given extent and ranks
/// (square operands, the shape the workloads use): 2x2 meson GEMM, 3x3
/// baryon double contraction, 2x3 mixed single contraction.
std::uint64_t hadron_contraction_flops(int rank_a, int rank_b,
                                       std::int64_t batch,
                                       std::int64_t extent);

/// Same-rank convenience used by the synthetic generators.
std::uint64_t hadron_contraction_flops(int rank, std::int64_t batch,
                                       std::int64_t extent);

/// Bytes read+written by the contraction (operands + result), used by the
/// roofline term of the cost model.
std::uint64_t hadron_contraction_bytes(int rank_a, int rank_b,
                                       std::int64_t batch,
                                       std::int64_t extent);
std::uint64_t hadron_contraction_bytes(int rank, std::int64_t batch,
                                       std::int64_t extent);

}  // namespace micco
