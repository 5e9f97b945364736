// Baryon-system coverage: mixed-rank contraction kernels, rank propagation
// through the registry/planner, baryon Wick contraction, and end-to-end
// numeric execution of nucleon correlators.
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "core/verify.hpp"
#include "redstar/correlator.hpp"
#include "tensor/contraction.hpp"

namespace micco {
namespace {

using redstar::BaryonOp;
using redstar::Construction;
using redstar::Flavor;

Construction nucleon_construction(int momentum = 0) {
  Construction c;
  c.baryons = {BaryonOp{"N+", {Flavor::kUp, Flavor::kUp, Flavor::kDown},
                        momentum}};
  return c;
}

TEST(MixedContraction, MatchesManualSum) {
  constexpr std::int64_t kE = 3;
  Pcg32 rng(1);
  const Tensor m = Tensor::random(Shape::matrix(2, kE), rng);
  const Tensor t = Tensor::random(Shape::rank3(2, kE), rng);
  const Tensor c = contract_mixed(m, t);
  ASSERT_EQ(c.shape(), Shape::rank3(2, kE));
  for (std::int64_t b = 0; b < 2; ++b) {
    for (std::int64_t i = 0; i < kE; ++i) {
      for (std::int64_t k = 0; k < kE; ++k) {
        for (std::int64_t l = 0; l < kE; ++l) {
          cplx acc{0.0, 0.0};
          for (std::int64_t j = 0; j < kE; ++j) {
            acc += m.at(b, i, j) * t.at(b, j, k, l);
          }
          EXPECT_NEAR(std::abs(c.at(b, i, k, l) - acc), 0.0, 1e-12);
        }
      }
    }
  }
}

TEST(MixedContraction, IdentityMatrixIsNeutral) {
  Pcg32 rng(2);
  const Tensor t = Tensor::random(Shape::rank3(2, 4), rng);
  Tensor identity(Shape::matrix(2, 4));
  for (std::int64_t b = 0; b < 2; ++b) {
    for (std::int64_t i = 0; i < 4; ++i) identity.at(b, i, i) = {1.0, 0.0};
  }
  EXPECT_LT(contract_mixed(identity, t).max_abs_diff(t), 1e-12);
}

TEST(ContractionRules, ResultRanks) {
  EXPECT_EQ(contraction_result_rank(2, 2), 2);
  EXPECT_EQ(contraction_result_rank(3, 3), 2);
  EXPECT_EQ(contraction_result_rank(2, 3), 3);
  EXPECT_EQ(contraction_result_rank(3, 2), 3);
}

TEST(ContractionRules, MixedFlopsAndBytes) {
  EXPECT_EQ(mixed_contraction_flops(2, 5), 8ull * 2 * 5 * 5 * 5 * 5);
  EXPECT_EQ(hadron_contraction_flops(2, 3, 2, 5), mixed_contraction_flops(2, 5));
  // Mixed traffic: rank-2 + rank-3 operands, rank-3 output.
  EXPECT_EQ(hadron_contraction_bytes(2, 3, 1, 4),
            (16ull + 64 + 64) * sizeof(cplx));
}

TEST(NodeRegistry, MixedIntermediateRanks) {
  NodeRegistry reg(8, 1);
  const TensorDesc meson = reg.original("m", 2);
  const TensorDesc baryon = reg.original("b", 3);
  EXPECT_EQ(reg.rank_of(meson.id), 2);
  EXPECT_EQ(reg.rank_of(baryon.id), 3);

  const TensorDesc mixed = reg.intermediate(meson.id, baryon.id);
  EXPECT_EQ(mixed.rank, 3);
  const TensorDesc double_contraction = reg.intermediate(baryon.id,
                                                         reg.original("b2", 3).id);
  EXPECT_EQ(double_contraction.rank, 2);
}

TEST(NodeRegistry, RankConflictAborts) {
  NodeRegistry reg(8, 1);
  (void)reg.original("x", 2);
  EXPECT_DEATH((void)reg.original("x", 3), "different rank");
}

TEST(BaryonWick, NucleonTwoPointHasDirectAndExchange) {
  NodeRegistry reg(8, 1);
  const auto diagrams = redstar::enumerate_diagrams(
      nucleon_construction(), nucleon_construction(), 1, reg, 64);
  // uud vs conj(uud): the two u-quark pairings give direct + exchange, but
  // both collapse to the same 2-node 3-edge propagator multiset.
  ASSERT_GE(diagrams.size(), 1u);
  for (const ContractionGraph& g : diagrams) {
    EXPECT_EQ(g.node_count(), 2u);
    EXPECT_EQ(g.edge_count(), 3u);  // three quark propagators
    for (const TensorDesc& n : g.nodes()) EXPECT_EQ(n.rank, 3);
  }
}

TEST(BaryonWick, TwoNucleonSystemGrowsFactorially) {
  Construction one = nucleon_construction();
  Construction two;
  two.baryons = {BaryonOp{"N+", {Flavor::kUp, Flavor::kUp, Flavor::kDown}, 1},
                 BaryonOp{"N+", {Flavor::kUp, Flavor::kUp, Flavor::kDown},
                          -1}};
  NodeRegistry reg(8, 1);
  EXPECT_GT(redstar::enumerate_diagrams(two, two, 1, reg, 10000).size(),
            3 * redstar::enumerate_diagrams(one, one, 1, reg, 10000).size());
}

TEST(BaryonWick, MesonBaryonMixBalancesWhenFlavorsMatch) {
  // <N pi+ | N pi+>: quarks u,u,d (N) + u (pi) at sink; conjugated source
  // supplies the matching antiquarks.
  Construction npi = nucleon_construction();
  npi.hadrons = {redstar::MesonOp{"pi+", Flavor::kUp, Flavor::kDown, 0}};
  EXPECT_TRUE(redstar::flavor_balanced(npi, npi));
  NodeRegistry reg(8, 1);
  const auto diagrams =
      redstar::enumerate_diagrams(npi, npi, 1, reg, 256);
  EXPECT_GE(diagrams.size(), 2u);
  // Mixed node ranks appear in one diagram.
  bool saw_rank2 = false, saw_rank3 = false;
  for (const TensorDesc& n : diagrams[0].nodes()) {
    saw_rank2 |= n.rank == 2;
    saw_rank3 |= n.rank == 3;
  }
  EXPECT_TRUE(saw_rank2);
  EXPECT_TRUE(saw_rank3);
}

TEST(BaryonCorrelator, NucleonTwoPointBuildsAndValidates) {
  redstar::CorrelatorSpec spec = redstar::make_nucleon_2pt();
  spec.time_slices = 3;
  spec.extent = 6;
  spec.batch = 1;
  const auto workload = redstar::build_workload(spec);
  EXPECT_GT(workload.stats.contractions, 0u);
  EXPECT_EQ(validate_stream_structure(workload.stream), "");
}

TEST(BaryonCorrelator, NucleonTwoPointExecutesNumerically) {
  redstar::CorrelatorSpec spec = redstar::make_nucleon_2pt();
  spec.time_slices = 2;
  spec.extent = 4;
  spec.batch = 1;
  const auto workload = redstar::build_workload(spec);
  const NumericResult r = execute_numerically(workload.stream);
  EXPECT_EQ(r.tasks_executed, workload.stats.contractions);
  EXPECT_GT(r.digest, 0.0);
}

TEST(BaryonCorrelator, NnSystemSchedulesOnCluster) {
  redstar::CorrelatorSpec spec = redstar::make_nn_system();
  spec.time_slices = 2;
  spec.extent = 8;
  spec.batch = 1;
  const auto workload = redstar::build_workload(spec);
  ASSERT_GT(workload.stats.contractions, 0u);

  ClusterConfig cluster;
  cluster.num_devices = 4;
  const auto entries = compare_schedulers(
      workload.stream, cluster,
      {SchedulerKind::kGroute, SchedulerKind::kMiccoNaive});
  for (const ComparisonEntry& e : entries) {
    EXPECT_EQ(e.result.metrics.total_flops, workload.stream.total_flops());
  }
}

TEST(BaryonCorrelator, MixedRankStreamSurvivesSerialization) {
  redstar::CorrelatorSpec spec = redstar::make_nucleon_2pt();
  spec.time_slices = 2;
  spec.extent = 4;
  spec.batch = 1;
  const auto workload = redstar::build_workload(spec);
  // Some tasks must involve rank-3 operands.
  bool saw_rank3_operand = false;
  for (const VectorWorkload& v : workload.stream.vectors) {
    for (const ContractionTask& t : v.tasks) {
      saw_rank3_operand |= t.a.rank == 3 || t.b.rank == 3;
    }
  }
  EXPECT_TRUE(saw_rank3_operand);
}

TEST(BaryonCorrelator, LookupByName) {
  EXPECT_EQ(redstar::real_function("nucleon_2pt").name, "nucleon_2pt");
  EXPECT_EQ(redstar::real_function("nn_system").name, "nn_system");
}

}  // namespace
}  // namespace micco
