// Contraction graphs (Section II-B, Fig. 1).
//
// A quark propagation diagram is an undirected multigraph whose vertices are
// hadron nodes (batched tensors) and whose edges are quark propagations;
// evaluating the diagram reduces one edge after another — each reduction a
// hadron contraction — until only two nodes remain. Hadron nodes are shared
// *across* graphs through the NodeRegistry, which is what creates the data
// reuse MICCO schedules around: the same TensorId appearing in many graphs,
// and identical sub-reductions deduplicated into a single intermediate.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "workload/task.hpp"

namespace micco {

using NodeKey = std::string;

/// Interns hadron nodes and memoises intermediates so that equal content
/// receives equal TensorIds across all graphs of a correlation function.
class NodeRegistry {
 public:
  explicit NodeRegistry(std::int64_t extent, std::int64_t batch, int rank = 2);

  /// Returns the tensor for a named original hadron node (e.g.
  /// "pi(p=0,t=0)"), creating it on first use with the registry's default
  /// rank (mesons) or an explicit rank (3 for baryon nodes).
  TensorDesc original(const NodeKey& key);
  TensorDesc original(const NodeKey& key, int rank);

  /// Returns the tensor for the contraction of two nodes, creating it on
  /// first use. Commutative: (a, b) and (b, a) intern to the same tensor.
  /// The result rank follows the contraction rules (2x2 and 3x3 give rank 2,
  /// mixed 2x3 keeps rank 3).
  TensorDesc intermediate(TensorId a, TensorId b);

  /// Rank of an interned node (original or intermediate).
  int rank_of(TensorId id) const;

  /// True when `intermediate(a, b)` has been interned already (its producing
  /// task exists somewhere and need not be emitted twice).
  bool has_intermediate(TensorId a, TensorId b) const;

  std::size_t original_count() const { return originals_.size(); }
  std::size_t intermediate_count() const { return intermediates_.size(); }

  std::int64_t extent() const { return extent_; }
  std::int64_t batch() const { return batch_; }
  int rank() const { return rank_; }

 private:
  std::int64_t extent_;
  std::int64_t batch_;
  int rank_;
  TensorId next_id_ = 0;
  std::unordered_map<NodeKey, TensorDesc> originals_;
  std::map<std::pair<TensorId, TensorId>, TensorDesc> intermediates_;
  std::unordered_map<TensorId, int> node_ranks_;
};

/// One quark propagation diagram: hadron nodes plus propagation edges.
class ContractionGraph {
 public:
  /// Adds a hadron node (by its interned tensor); returns its local index.
  std::size_t add_node(TensorDesc desc);

  /// Adds a propagation edge between two local node indices (multi-edges
  /// allowed; self-loops are not, a quark cannot propagate to itself within
  /// one hadron in this representation).
  void add_edge(std::size_t u, std::size_t v);

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t edge_count() const { return edges_.size(); }

  const std::vector<TensorDesc>& nodes() const { return nodes_; }
  const std::vector<std::pair<std::size_t, std::size_t>>& edges() const {
    return edges_;
  }

  /// True when every edge references valid nodes and the graph is connected
  /// (a correlator diagram is a single connected trace).
  bool connected() const;

  /// Canonical content signature used to deduplicate isomorphic-by-content
  /// graphs produced by Wick enumeration.
  std::string signature() const;

 private:
  std::vector<TensorDesc> nodes_;
  std::vector<std::pair<std::size_t, std::size_t>> edges_;
};

/// A planned contraction: the task plus the stage (dependency level) it
/// belongs to.
struct PlannedContraction {
  ContractionTask task;
  int stage = 0;
};

/// Reduces a set of contraction graphs into a staged task plan:
///  * within each graph, edges reduce in a deterministic greedy order;
///  * the stage of a contraction is one past the deepest stage of its
///    operands (original nodes are stage 0 inputs);
///  * identical sub-reductions (same operand pair) are emitted exactly once
///    across the whole set — later graphs reuse the interned intermediate.
/// The resulting stages map one-to-one onto the scheduler's vectors.
class ContractionPlanner {
 public:
  explicit ContractionPlanner(NodeRegistry& registry) : registry_(&registry) {}

  /// Plans one graph, appending its new contractions to the plan.
  void add_graph(const ContractionGraph& graph);

  /// Stages as scheduler-ready vectors (stage i = vectors[i]).
  std::vector<VectorWorkload> stages() const;

  std::size_t task_count() const { return planned_.size(); }
  const std::vector<PlannedContraction>& planned() const { return planned_; }

  /// How many reductions were skipped because an identical intermediate
  /// already existed (cross-graph deduplication).
  std::size_t deduplicated() const { return deduplicated_; }

 private:
  NodeRegistry* registry_;
  std::vector<PlannedContraction> planned_;
  /// Stage at which each tensor becomes available (originals: 0).
  std::unordered_map<TensorId, int> ready_stage_;
  std::size_t deduplicated_ = 0;
};

}  // namespace micco
