// Wick contraction enumeration (Section II-A).
//
// Expanding <sink(t) | source(0)> pairs every quark field with an antiquark
// field of the same flavor; each complete pairing is one quark propagation
// diagram, drawn as a contraction graph whose vertices are the hadron nodes
// and whose edges are the propagators. The number of diagrams grows
// factorially with the quark count, which is why correlation functions reach
// thousands of graphs; enumeration here is exhaustive up to a configurable
// cap, with duplicate (content-identical) graphs removed.
#pragma once

#include <vector>

#include "graph/contraction_graph.hpp"
#include "redstar/operators.hpp"

namespace micco::redstar {

/// All distinct Wick diagrams for one (source construction, sink
/// construction) pair at a given sink time slice. Hadron-node tensors are
/// interned through `registry`, so identical operators at identical times
/// share TensorIds across diagrams and across calls. Returns an empty set
/// when the flavors cannot balance. Pairings internal to one hadron
/// (tadpole self-loops) are skipped.
std::vector<ContractionGraph> enumerate_diagrams(
    const Construction& source, const Construction& sink, int sink_time,
    NodeRegistry& registry, std::size_t max_diagrams);

}  // namespace micco::redstar
