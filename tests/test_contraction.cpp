#include "tensor/contraction.hpp"

#include <gtest/gtest.h>

namespace micco {
namespace {

TEST(MesonContraction, IdentityIsNeutral) {
  constexpr std::int64_t kN = 6;
  Pcg32 rng(1);
  const Tensor a = Tensor::random(Shape::matrix(2, kN), rng);
  Tensor identity(Shape::matrix(2, kN));
  for (std::int64_t b = 0; b < 2; ++b) {
    for (std::int64_t i = 0; i < kN; ++i) {
      identity.at(b, i, i) = cplx{1.0, 0.0};
    }
  }
  const Tensor right = contract_meson(a, identity);
  const Tensor left = contract_meson(identity, a);
  EXPECT_LT(a.max_abs_diff(right), 1e-12);
  EXPECT_LT(a.max_abs_diff(left), 1e-12);
}

TEST(MesonContraction, Known2x2Product) {
  Tensor a(Shape::matrix(1, 2));
  Tensor b(Shape::matrix(1, 2));
  // a = [[1, 2], [3, 4]], b = [[5, 6], [7, 8]] (real parts only)
  a.at(0, 0, 0) = {1, 0}; a.at(0, 0, 1) = {2, 0};
  a.at(0, 1, 0) = {3, 0}; a.at(0, 1, 1) = {4, 0};
  b.at(0, 0, 0) = {5, 0}; b.at(0, 0, 1) = {6, 0};
  b.at(0, 1, 0) = {7, 0}; b.at(0, 1, 1) = {8, 0};
  const Tensor c = contract_meson(a, b);
  EXPECT_DOUBLE_EQ(c.at(0, 0, 0).real(), 19.0);
  EXPECT_DOUBLE_EQ(c.at(0, 0, 1).real(), 22.0);
  EXPECT_DOUBLE_EQ(c.at(0, 1, 0).real(), 43.0);
  EXPECT_DOUBLE_EQ(c.at(0, 1, 1).real(), 50.0);
}

TEST(MesonContraction, ComplexArithmetic) {
  Tensor a(Shape::matrix(1, 1));
  Tensor b(Shape::matrix(1, 1));
  a.at(0, 0, 0) = {1.0, 2.0};
  b.at(0, 0, 0) = {3.0, -1.0};
  const Tensor c = contract_meson(a, b);
  // (1+2i)(3-i) = 3 - i + 6i - 2i^2 = 5 + 5i
  EXPECT_DOUBLE_EQ(c.at(0, 0, 0).real(), 5.0);
  EXPECT_DOUBLE_EQ(c.at(0, 0, 0).imag(), 5.0);
}

TEST(MesonContraction, BatchEntriesIndependent) {
  Pcg32 rng(2);
  const Tensor a = Tensor::random(Shape::matrix(3, 4), rng);
  const Tensor b = Tensor::random(Shape::matrix(3, 4), rng);
  const Tensor c = contract_meson(a, b);

  // Recompute batch 1 alone and compare.
  Tensor a1(Shape::matrix(1, 4)), b1(Shape::matrix(1, 4));
  for (std::int64_t i = 0; i < 4; ++i) {
    for (std::int64_t j = 0; j < 4; ++j) {
      a1.at(0, i, j) = a.at(1, i, j);
      b1.at(0, i, j) = b.at(1, i, j);
    }
  }
  const Tensor c1 = contract_meson(a1, b1);
  for (std::int64_t i = 0; i < 4; ++i) {
    for (std::int64_t j = 0; j < 4; ++j) {
      EXPECT_EQ(c.at(1, i, j), c1.at(0, i, j));
    }
  }
}

TEST(MesonContraction, Associativity) {
  Pcg32 rng(5);
  const Tensor a = Tensor::random(Shape::matrix(2, 5), rng);
  const Tensor b = Tensor::random(Shape::matrix(2, 5), rng);
  const Tensor c = Tensor::random(Shape::matrix(2, 5), rng);
  const Tensor ab_c = contract_meson(contract_meson(a, b), c);
  const Tensor a_bc = contract_meson(a, contract_meson(b, c));
  EXPECT_LT(ab_c.max_abs_diff(a_bc), 1e-10);
}

TEST(BaryonContraction, MatchesManualSum) {
  constexpr std::int64_t kE = 3;
  Pcg32 rng(7);
  const Tensor a = Tensor::random(Shape::rank3(1, kE), rng);
  const Tensor b = Tensor::random(Shape::rank3(1, kE), rng);
  const Tensor c = contract_baryon(a, b);
  ASSERT_EQ(c.shape(), Shape::matrix(1, kE));

  for (std::int64_t i = 0; i < kE; ++i) {
    for (std::int64_t l = 0; l < kE; ++l) {
      cplx acc{0.0, 0.0};
      for (std::int64_t j = 0; j < kE; ++j) {
        for (std::int64_t k = 0; k < kE; ++k) {
          acc += a.at(0, i, j, k) * b.at(0, k, j, l);
        }
      }
      EXPECT_NEAR(std::abs(c.at(0, i, l) - acc), 0.0, 1e-12);
    }
  }
}

TEST(BaryonContraction, OutputIsRank2) {
  Pcg32 rng(8);
  const Tensor a = Tensor::random(Shape::rank3(2, 4), rng);
  const Tensor b = Tensor::random(Shape::rank3(2, 4), rng);
  const Tensor c = contract_baryon(a, b);
  EXPECT_EQ(c.shape().rank(), 2);
  EXPECT_EQ(c.shape().batch(), 2);
}

TEST(Flops, MesonCountMatchesFormula) {
  EXPECT_EQ(meson_contraction_flops(1, 2, 3, 4), 8ull * 2 * 3 * 4);
  EXPECT_EQ(meson_contraction_flops(10, 384, 384, 384),
            8ull * 10 * 384 * 384 * 384);
}

TEST(Flops, BaryonCountMatchesFormula) {
  EXPECT_EQ(baryon_contraction_flops(2, 5), 8ull * 2 * 5 * 5 * 5 * 5);
}

TEST(Flops, HadronDispatchesOnRank) {
  EXPECT_EQ(hadron_contraction_flops(2, 4, 16),
            meson_contraction_flops(4, 16, 16, 16));
  EXPECT_EQ(hadron_contraction_flops(3, 4, 16),
            baryon_contraction_flops(4, 16));
}

TEST(Bytes, MesonTrafficCountsThreeMatrices) {
  // 2 operands + 1 output, each extent^2 complex doubles per batch entry.
  EXPECT_EQ(hadron_contraction_bytes(2, 1, 10), 3ull * 100 * sizeof(cplx));
}

TEST(Bytes, BaryonTrafficCountsRank3OperandsRank2Output) {
  EXPECT_EQ(hadron_contraction_bytes(3, 1, 10),
            (2ull * 1000 + 100) * sizeof(cplx));
}

}  // namespace
}  // namespace micco
