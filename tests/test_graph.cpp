#include "graph/contraction_graph.hpp"

#include <gtest/gtest.h>

namespace micco {
namespace {

TEST(NodeRegistry, OriginalInterning) {
  NodeRegistry reg(16, 2);
  const TensorDesc a = reg.original("pi(t=0)");
  const TensorDesc b = reg.original("pi(t=0)");
  const TensorDesc c = reg.original("pi(t=1)");
  EXPECT_EQ(a.id, b.id);
  EXPECT_NE(a.id, c.id);
  EXPECT_EQ(reg.original_count(), 2u);
  EXPECT_EQ(a.extent, 16);
  EXPECT_EQ(a.batch, 2);
}

TEST(NodeRegistry, IntermediateCommutative) {
  NodeRegistry reg(16, 2);
  const TensorDesc a = reg.original("a");
  const TensorDesc b = reg.original("b");
  const TensorDesc ab = reg.intermediate(a.id, b.id);
  const TensorDesc ba = reg.intermediate(b.id, a.id);
  EXPECT_EQ(ab.id, ba.id);
  EXPECT_EQ(reg.intermediate_count(), 1u);
  EXPECT_TRUE(reg.has_intermediate(a.id, b.id));
  EXPECT_TRUE(reg.has_intermediate(b.id, a.id));
  EXPECT_FALSE(reg.has_intermediate(a.id, ab.id));
}

TEST(NodeRegistry, IntermediatesAreRank2) {
  NodeRegistry reg(16, 2, /*rank=*/3);
  const TensorDesc a = reg.original("a");
  EXPECT_EQ(a.rank, 3);
  const TensorDesc ab = reg.intermediate(a.id, reg.original("b").id);
  EXPECT_EQ(ab.rank, 2);
}

TEST(ContractionGraph, NodeAndEdgeBookkeeping) {
  NodeRegistry reg(16, 2);
  ContractionGraph g;
  const std::size_t u = g.add_node(reg.original("a"));
  const std::size_t v = g.add_node(reg.original("b"));
  g.add_edge(u, v);
  EXPECT_EQ(g.node_count(), 2u);
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(ContractionGraph, SelfLoopAborts) {
  NodeRegistry reg(16, 2);
  ContractionGraph g;
  const std::size_t u = g.add_node(reg.original("a"));
  EXPECT_DEATH(g.add_edge(u, u), "self-loop");
}

TEST(ContractionGraph, ConnectivityCheck) {
  NodeRegistry reg(16, 2);
  ContractionGraph g;
  const std::size_t a = g.add_node(reg.original("a"));
  const std::size_t b = g.add_node(reg.original("b"));
  const std::size_t c = g.add_node(reg.original("c"));
  g.add_edge(a, b);
  EXPECT_FALSE(g.connected());
  g.add_edge(b, c);
  EXPECT_TRUE(g.connected());
}

TEST(ContractionGraph, SignatureIdentifiesContent) {
  NodeRegistry reg(16, 2);
  const TensorDesc a = reg.original("a");
  const TensorDesc b = reg.original("b");

  ContractionGraph g1;
  g1.add_edge(g1.add_node(a), g1.add_node(b));
  ContractionGraph g2;  // same content, nodes added in opposite order
  const std::size_t nb = g2.add_node(b);
  const std::size_t na = g2.add_node(a);
  g2.add_edge(nb, na);
  EXPECT_EQ(g1.signature(), g2.signature());

  ContractionGraph g3;  // different content
  g3.add_edge(g3.add_node(a), g3.add_node(reg.original("c")));
  EXPECT_NE(g1.signature(), g3.signature());
}

TEST(Planner, TwoNodeGraphYieldsOneContraction) {
  NodeRegistry reg(16, 2);
  ContractionPlanner planner(reg);
  ContractionGraph g;
  g.add_edge(g.add_node(reg.original("a")), g.add_node(reg.original("b")));
  planner.add_graph(g);
  EXPECT_EQ(planner.task_count(), 1u);
  const auto stages = planner.stages();
  ASSERT_EQ(stages.size(), 1u);
  EXPECT_EQ(stages[0].tasks.size(), 1u);
}

TEST(Planner, ChainGraphBuildsStagedDependencies) {
  // a - b - c: reduce (a,b) first, then (ab, c) in the next stage.
  NodeRegistry reg(16, 2);
  ContractionPlanner planner(reg);
  ContractionGraph g;
  const std::size_t a = g.add_node(reg.original("a"));
  const std::size_t b = g.add_node(reg.original("b"));
  const std::size_t c = g.add_node(reg.original("c"));
  g.add_edge(a, b);
  g.add_edge(b, c);
  planner.add_graph(g);

  EXPECT_EQ(planner.task_count(), 2u);
  const auto stages = planner.stages();
  ASSERT_EQ(stages.size(), 2u);
  // Stage 1's task consumes stage 0's output.
  const TensorId intermediate = stages[0].tasks[0].out.id;
  const ContractionTask& final_task = stages[1].tasks[0];
  EXPECT_TRUE(final_task.a.id == intermediate ||
              final_task.b.id == intermediate);
}

TEST(Planner, ParallelEdgesCollapseInOneContraction) {
  // Two propagators between the same hadrons reduce in a single hadron
  // contraction.
  NodeRegistry reg(16, 2);
  ContractionPlanner planner(reg);
  ContractionGraph g;
  const std::size_t a = g.add_node(reg.original("a"));
  const std::size_t b = g.add_node(reg.original("b"));
  g.add_edge(a, b);
  g.add_edge(a, b);
  planner.add_graph(g);
  EXPECT_EQ(planner.task_count(), 1u);
}

TEST(Planner, SharedSubReductionDeduplicatedAcrossGraphs) {
  NodeRegistry reg(16, 2);
  ContractionPlanner planner(reg);
  const TensorDesc a = reg.original("a");
  const TensorDesc b = reg.original("b");

  ContractionGraph g1;
  {
    const auto na = g1.add_node(a);
    const auto nb = g1.add_node(b);
    const auto nc = g1.add_node(reg.original("c"));
    g1.add_edge(na, nb);
    g1.add_edge(nb, nc);
  }
  ContractionGraph g2;  // shares the (a, b) reduction
  {
    const auto na = g2.add_node(a);
    const auto nb = g2.add_node(b);
    const auto nd = g2.add_node(reg.original("d"));
    g2.add_edge(na, nb);
    g2.add_edge(nb, nd);
  }
  planner.add_graph(g1);
  planner.add_graph(g2);

  // 4 reductions total, but (a, b) is planned once.
  EXPECT_EQ(planner.task_count(), 3u);
  EXPECT_EQ(planner.deduplicated(), 1u);
}

TEST(Planner, StagesRespectCrossGraphAvailability) {
  // Graph 2 consumes the intermediate of graph 1; its final contraction
  // must land in a stage after the producing one.
  NodeRegistry reg(16, 2);
  ContractionPlanner planner(reg);
  const TensorDesc a = reg.original("a");
  const TensorDesc b = reg.original("b");

  ContractionGraph g1;
  g1.add_edge(g1.add_node(a), g1.add_node(b));
  planner.add_graph(g1);  // produces ab at stage 0

  ContractionGraph g2;
  {
    const auto na = g2.add_node(a);
    const auto nb = g2.add_node(b);
    const auto nc = g2.add_node(reg.original("c"));
    g2.add_edge(na, nb);  // deduplicated to graph 1's intermediate
    g2.add_edge(nb, nc);
  }
  planner.add_graph(g2);

  const auto stages = planner.stages();
  ASSERT_GE(stages.size(), 2u);
  const TensorId ab = reg.intermediate(a.id, b.id).id;
  bool found = false;
  for (const ContractionTask& t : stages[1].tasks) {
    if (t.a.id == ab || t.b.id == ab) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Planner, TriangleGraphReducesCompletely) {
  // a - b - c - a: three edges; two contractions fully reduce it (the
  // third edge collapses into the final contraction as a parallel edge).
  NodeRegistry reg(16, 2);
  ContractionPlanner planner(reg);
  ContractionGraph g;
  const std::size_t a = g.add_node(reg.original("a"));
  const std::size_t b = g.add_node(reg.original("b"));
  const std::size_t c = g.add_node(reg.original("c"));
  g.add_edge(a, b);
  g.add_edge(b, c);
  g.add_edge(c, a);
  planner.add_graph(g);
  EXPECT_EQ(planner.task_count(), 2u);
}

TEST(Planner, DisconnectedComponentsEachReduce) {
  NodeRegistry reg(16, 2);
  ContractionPlanner planner(reg);
  ContractionGraph g;
  const std::size_t a = g.add_node(reg.original("a"));
  const std::size_t b = g.add_node(reg.original("b"));
  const std::size_t c = g.add_node(reg.original("c"));
  const std::size_t d = g.add_node(reg.original("d"));
  g.add_edge(a, b);
  g.add_edge(c, d);
  planner.add_graph(g);
  EXPECT_EQ(planner.task_count(), 2u);
  EXPECT_EQ(planner.stages().size(), 1u);  // both are independent, stage 0
}

TEST(Planner, DeterministicOrder) {
  const auto build = [] {
    NodeRegistry reg(16, 2);
    ContractionPlanner planner(reg);
    ContractionGraph g;
    std::vector<std::size_t> nodes;
    for (int i = 0; i < 5; ++i) {
      std::string name = "n";
      name += std::to_string(i);
      nodes.push_back(g.add_node(reg.original(name)));
    }
    for (int i = 0; i < 4; ++i) {
      g.add_edge(nodes[static_cast<std::size_t>(i)],
                 nodes[static_cast<std::size_t>(i + 1)]);
    }
    planner.add_graph(g);
    std::vector<TensorId> order;
    for (const PlannedContraction& p : planner.planned()) {
      order.push_back(p.task.out.id);
    }
    return order;
  };
  EXPECT_EQ(build(), build());
}

}  // namespace
}  // namespace micco
