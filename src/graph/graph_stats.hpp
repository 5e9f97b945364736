// Workload characterisation for contraction-graph sets: the structural
// statistics (sharing factors, degree and stage-width distributions) that
// determine how much reuse a scheduler can hope to find. `micco generate`
// and `micco inspect` print the stream statistics; tests use the graph-set
// statistics to pin the generators' structural properties.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "graph/contraction_graph.hpp"
#include "workload/task.hpp"

namespace micco {

/// Statistics over a set of contraction graphs.
struct GraphSetStats {
  std::size_t graphs = 0;
  std::size_t total_nodes = 0;     ///< node slots summed over graphs
  std::size_t distinct_tensors = 0;
  std::size_t total_edges = 0;

  /// Average number of graphs each distinct tensor appears in (>= 1); the
  /// cross-graph sharing factor that creates reuse opportunities.
  double sharing_factor = 0.0;
  /// Largest number of graphs any single tensor appears in.
  std::size_t max_sharing = 0;

  double mean_nodes_per_graph = 0.0;
  double mean_edges_per_graph = 0.0;
  /// Node-degree histogram (degree -> count) over all graphs.
  std::map<std::size_t, std::size_t> degree_histogram;
};

GraphSetStats analyze_graphs(const std::vector<ContractionGraph>& graphs);

/// Statistics over a staged workload stream.
struct StreamStats {
  std::size_t stages = 0;
  std::size_t tasks = 0;
  std::size_t distinct_inputs = 0;

  /// Average times each distinct input tensor is consumed (>= 1): the
  /// intra-run reuse factor.
  double input_reuse_factor = 0.0;

  std::vector<std::size_t> stage_widths;  ///< tasks per stage, in order
  std::size_t widest_stage = 0;

  /// Fraction of operand slots whose tensor was produced by an earlier
  /// stage (intermediate reuse, as opposed to original inputs).
  double intermediate_operand_fraction = 0.0;
};

StreamStats analyze_stream(const WorkloadStream& stream);

/// Human-readable one-block summary (bench/debug output).
std::string to_string(const GraphSetStats& stats);
std::string to_string(const StreamStats& stats);

}  // namespace micco
