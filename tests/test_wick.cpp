#include "redstar/wick.hpp"

#include <gtest/gtest.h>

namespace micco::redstar {
namespace {

MesonOp pi_plus() { return MesonOp{"pi+", Flavor::kUp, Flavor::kDown, 0}; }
MesonOp pi_minus() { return MesonOp{"pi-", Flavor::kDown, Flavor::kUp, 0}; }
MesonOp pi_zero() { return MesonOp{"pi0", Flavor::kUp, Flavor::kUp, 0}; }
MesonOp kaon() { return MesonOp{"K+", Flavor::kUp, Flavor::kStrange, 0}; }

Construction single(const MesonOp& op) {
  Construction c;
  c.hadrons = {op};
  return c;
}

Construction pair_of(const MesonOp& a, const MesonOp& b) {
  Construction c;
  c.hadrons = {a, b};
  return c;
}

TEST(Flavor, Names) {
  EXPECT_STREQ(to_string(Flavor::kUp), "u");
  EXPECT_STREQ(to_string(Flavor::kStrange), "s");
}

TEST(MesonOp, KeyEncodesContentMomentumAndTime) {
  MesonOp op = pi_plus();
  op.momentum = 2;
  EXPECT_EQ(op.key(3), "pi+(ud,p=2,t=3)");
  EXPECT_NE(op.key(3), op.key(4));
}

TEST(FlavorBalance, ChargedMesonAgainstItselfBalances) {
  // <pi+(t) pi+^dagger(0)>: the conjugated source supplies the matching
  // antiquarks.
  EXPECT_TRUE(flavor_balanced(single(pi_plus()), single(pi_plus())));
}

TEST(FlavorBalance, MismatchedFlavorsRejected) {
  EXPECT_FALSE(flavor_balanced(single(kaon()), single(pi_plus())));
}

TEST(FlavorBalance, TwoParticleAgainstSingle) {
  // <pi+ pi- | pi0^dagger>: quarks u,d + conj(u,u) vs antiquarks d,u + u,u
  // -> balanced only if each flavor's quark/antiquark counts agree.
  EXPECT_TRUE(
      flavor_balanced(single(pi_zero()), pair_of(pi_plus(), pi_minus())));
}

TEST(Wick, SinglePionCorrelatorHasOneDiagram) {
  NodeRegistry reg(16, 1);
  const auto diagrams =
      enumerate_diagrams(single(pi_plus()), single(pi_plus()), 1, reg, 100);
  ASSERT_EQ(diagrams.size(), 1u);
  EXPECT_EQ(diagrams[0].node_count(), 2u);
  EXPECT_EQ(diagrams[0].edge_count(), 2u);  // quark + antiquark propagators
  EXPECT_TRUE(diagrams[0].connected());
}

TEST(Wick, UnbalancedFlavorsYieldNothing) {
  NodeRegistry reg(16, 1);
  EXPECT_TRUE(
      enumerate_diagrams(single(kaon()), single(pi_plus()), 1, reg, 100)
          .empty());
}

TEST(Wick, TadpolePairingsExcluded) {
  // pi0 = (u, ubar) could self-contract; those pairings must be skipped, so
  // <pi0 | pi0> still has exactly one (connected) diagram.
  NodeRegistry reg(16, 1);
  const auto diagrams =
      enumerate_diagrams(single(pi_zero()), single(pi_zero()), 1, reg, 100);
  ASSERT_EQ(diagrams.size(), 1u);
  EXPECT_TRUE(diagrams[0].connected());
}

TEST(Wick, TwoParticleCorrelatorHasMultipleDiagrams) {
  NodeRegistry reg(16, 1);
  const Construction pipi = pair_of(pi_plus(), pi_minus());
  const auto diagrams = enumerate_diagrams(pipi, pipi, 1, reg, 100);
  // Direct and quark-exchange topologies at least.
  EXPECT_GE(diagrams.size(), 2u);
  for (const ContractionGraph& g : diagrams) {
    EXPECT_EQ(g.node_count(), 4u);
    EXPECT_EQ(g.edge_count(), 4u);
  }
}

TEST(Wick, SharedHadronNodesAcrossDiagrams) {
  // All diagrams of one correlator at one time slice reference the same
  // interned hadron tensors - the data-reuse source.
  NodeRegistry reg(16, 1);
  const Construction pipi = pair_of(pi_plus(), pi_minus());
  const auto diagrams = enumerate_diagrams(pipi, pipi, 1, reg, 100);
  ASSERT_GE(diagrams.size(), 2u);
  EXPECT_EQ(reg.original_count(), 4u);  // 2 source + 2 sink hadrons only
}

TEST(Wick, SourceNodesSharedAcrossTimeSlices) {
  NodeRegistry reg(16, 1);
  const auto t1 =
      enumerate_diagrams(single(pi_plus()), single(pi_plus()), 1, reg, 100);
  const auto t2 =
      enumerate_diagrams(single(pi_plus()), single(pi_plus()), 2, reg, 100);
  ASSERT_EQ(t1.size(), 1u);
  ASSERT_EQ(t2.size(), 1u);
  // 1 source node + 2 sink nodes (t=1, t=2) = 3 originals: the source is
  // shared.
  EXPECT_EQ(reg.original_count(), 3u);
}

TEST(Wick, DiagramCapRespected) {
  NodeRegistry reg(16, 1);
  const Construction big =
      pair_of(pi_plus(), pi_minus());
  Construction bigger = big;
  bigger.hadrons.push_back(pi_zero());
  const auto diagrams = enumerate_diagrams(bigger, bigger, 1, reg, 2);
  EXPECT_LE(diagrams.size(), 2u);
}

TEST(Wick, DiagramCountGrowsWithParticleNumber) {
  const Construction one = single(pi_zero());
  const Construction two = pair_of(pi_plus(), pi_minus());
  Construction three = two;
  three.hadrons.push_back(pi_zero());
  NodeRegistry reg(16, 1);
  const auto count = [&](const Construction& c) {
    return enumerate_diagrams(c, c, 1, reg, 1000).size();
  };
  EXPECT_LT(count(one), count(two));
  EXPECT_LT(count(two), count(three));
}

}  // namespace
}  // namespace micco::redstar
