#include "graph/contraction_graph.hpp"

#include <algorithm>
#include <queue>
#include <sstream>

#include "common/assert.hpp"

namespace micco {

// ---------------------------------------------------------- NodeRegistry --

NodeRegistry::NodeRegistry(std::int64_t extent, std::int64_t batch, int rank)
    : extent_(extent), batch_(batch), rank_(rank) {
  MICCO_EXPECTS(extent >= 1);
  MICCO_EXPECTS(batch >= 1);
  MICCO_EXPECTS(rank == 2 || rank == 3);
}

TensorDesc NodeRegistry::original(const NodeKey& key) {
  return original(key, rank_);
}

TensorDesc NodeRegistry::original(const NodeKey& key, int rank) {
  MICCO_EXPECTS(rank == 2 || rank == 3);
  const auto it = originals_.find(key);
  if (it != originals_.end()) {
    MICCO_EXPECTS_MSG(it->second.rank == rank,
                      "hadron node re-interned with a different rank");
    return it->second;
  }
  const TensorDesc desc{next_id_++, rank, extent_, batch_};
  originals_.emplace(key, desc);
  node_ranks_.emplace(desc.id, rank);
  return desc;
}

int NodeRegistry::rank_of(TensorId id) const {
  const auto it = node_ranks_.find(id);
  MICCO_EXPECTS_MSG(it != node_ranks_.end(), "rank_of: unknown tensor");
  return it->second;
}

TensorDesc NodeRegistry::intermediate(TensorId a, TensorId b) {
  const auto key = std::minmax(a, b);
  const auto it = intermediates_.find(key);
  if (it != intermediates_.end()) return it->second;
  // The result rank follows the contraction rules: meson x meson and the
  // baryon double contraction emit matrices; mixed contractions keep one
  // baryon line open.
  const int rank = contraction_result_rank(rank_of(a), rank_of(b));
  const TensorDesc desc{next_id_++, rank, extent_, batch_};
  intermediates_.emplace(key, desc);
  node_ranks_.emplace(desc.id, rank);
  return desc;
}

bool NodeRegistry::has_intermediate(TensorId a, TensorId b) const {
  return intermediates_.contains(std::minmax(a, b));
}

// ------------------------------------------------------ ContractionGraph --

std::size_t ContractionGraph::add_node(TensorDesc desc) {
  MICCO_EXPECTS(desc.valid());
  nodes_.push_back(desc);
  return nodes_.size() - 1;
}

void ContractionGraph::add_edge(std::size_t u, std::size_t v) {
  MICCO_EXPECTS(u < nodes_.size() && v < nodes_.size());
  MICCO_EXPECTS_MSG(u != v, "self-loop edges are not representable");
  edges_.emplace_back(std::min(u, v), std::max(u, v));
}

bool ContractionGraph::connected() const {
  if (nodes_.empty()) return false;
  if (nodes_.size() == 1) return true;
  std::vector<std::vector<std::size_t>> adj(nodes_.size());
  for (const auto& [u, v] : edges_) {
    adj[u].push_back(v);
    adj[v].push_back(u);
  }
  std::vector<bool> seen(nodes_.size(), false);
  std::queue<std::size_t> frontier;
  frontier.push(0);
  seen[0] = true;
  std::size_t reached = 1;
  while (!frontier.empty()) {
    const std::size_t u = frontier.front();
    frontier.pop();
    for (const std::size_t v : adj[u]) {
      if (!seen[v]) {
        seen[v] = true;
        ++reached;
        frontier.push(v);
      }
    }
  }
  return reached == nodes_.size();
}

std::string ContractionGraph::signature() const {
  std::vector<std::pair<TensorId, TensorId>> edge_ids;
  edge_ids.reserve(edges_.size());
  for (const auto& [u, v] : edges_) {
    edge_ids.push_back(std::minmax(nodes_[u].id, nodes_[v].id));
  }
  std::sort(edge_ids.begin(), edge_ids.end());

  std::vector<TensorId> node_ids;
  node_ids.reserve(nodes_.size());
  for (const TensorDesc& n : nodes_) node_ids.push_back(n.id);
  std::sort(node_ids.begin(), node_ids.end());

  std::ostringstream os;
  os << "N:";
  for (const TensorId id : node_ids) os << id << ",";
  os << "E:";
  for (const auto& [a, b] : edge_ids) os << a << "-" << b << ",";
  return os.str();
}

// ---------------------------------------------------- ContractionPlanner --

void ContractionPlanner::add_graph(const ContractionGraph& graph) {
  // Live reduction state: tensor + the stage from which it is usable.
  struct Live {
    TensorDesc desc;
    int usable_from = 0;
  };
  std::vector<Live> live;
  live.reserve(graph.node_count());
  for (const TensorDesc& n : graph.nodes()) {
    const auto it = ready_stage_.find(n.id);
    live.push_back(Live{n, it == ready_stage_.end() ? 0 : it->second});
    ready_stage_.try_emplace(n.id, 0);
  }
  // Edges over live-node indices; multi-edges collapse on contraction.
  std::vector<std::pair<std::size_t, std::size_t>> edges = graph.edges();

  // Reduce edges until the diagram is fully evaluated. The final
  // contraction of the last two nodes is the correlator-producing hadron
  // contraction and is planned like any other.
  while (live.size() >= 2 && !edges.empty()) {
    // Deterministic greedy pick: the edge whose contraction becomes ready
    // earliest; ties break on the smaller (then larger) operand TensorId.
    std::size_t best_edge = 0;
    auto edge_key = [&](std::size_t e) {
      const auto& [u, v] = edges[e];
      const int stage = std::max(live[u].usable_from, live[v].usable_from);
      const auto ids = std::minmax(live[u].desc.id, live[v].desc.id);
      return std::tuple<int, TensorId, TensorId>(stage, ids.first,
                                                 ids.second);
    };
    for (std::size_t e = 1; e < edges.size(); ++e) {
      if (edge_key(e) < edge_key(best_edge)) best_edge = e;
    }

    const auto [u, v] = edges[best_edge];
    const Live node_u = live[u];
    const Live node_v = live[v];
    const int task_stage = std::max(node_u.usable_from, node_v.usable_from);

    const bool duplicate =
        registry_->has_intermediate(node_u.desc.id, node_v.desc.id);
    const TensorDesc out =
        registry_->intermediate(node_u.desc.id, node_v.desc.id);

    int out_ready;
    if (duplicate) {
      // The producing task was planned by an earlier graph; reuse its
      // availability stage rather than emitting the contraction again.
      out_ready = ready_stage_.at(out.id);
      ++deduplicated_;
    } else {
      ContractionTask task;
      task.a = node_u.desc;
      task.b = node_v.desc;
      task.out = out;
      planned_.push_back(PlannedContraction{task, task_stage});
      out_ready = task_stage + 1;
      ready_stage_[out.id] = out_ready;
    }

    // Merge: the new node replaces u and v; every edge incident to either
    // re-attaches to it, and all parallel (u, v) edges vanish with the
    // contraction.
    const std::size_t merged = live.size();
    live.push_back(Live{out, out_ready});
    std::vector<std::pair<std::size_t, std::size_t>> next_edges;
    next_edges.reserve(edges.size());
    for (const auto& [a, b] : edges) {
      const bool touches_a = (a == u || a == v);
      const bool touches_b = (b == u || b == v);
      if (touches_a && touches_b) continue;  // contracted away
      const std::size_t na = touches_a ? merged : a;
      const std::size_t nb = touches_b ? merged : b;
      next_edges.emplace_back(std::min(na, nb), std::max(na, nb));
    }
    edges = std::move(next_edges);

    // Compact: drop u and v from the live set (stable order, fix indices).
    std::vector<Live> compact;
    compact.reserve(live.size() - 2);
    std::vector<std::size_t> remap(live.size(), SIZE_MAX);
    for (std::size_t i = 0; i < live.size(); ++i) {
      if (i == u || i == v) continue;
      remap[i] = compact.size();
      compact.push_back(live[i]);
    }
    for (auto& [a, b] : edges) {
      MICCO_ASSERT(remap[a] != SIZE_MAX && remap[b] != SIZE_MAX);
      a = remap[a];
      b = remap[b];
      if (a > b) std::swap(a, b);
    }
    live = std::move(compact);
  }
}

std::vector<VectorWorkload> ContractionPlanner::stages() const {
  int max_stage = -1;
  for (const PlannedContraction& p : planned_) {
    max_stage = std::max(max_stage, p.stage);
  }
  std::vector<VectorWorkload> result(
      static_cast<std::size_t>(max_stage + 1));
  for (const PlannedContraction& p : planned_) {
    result[static_cast<std::size_t>(p.stage)].tasks.push_back(p.task);
  }
  return result;
}

}  // namespace micco
