#include "redstar/wick.hpp"

#include <algorithm>
#include <functional>
#include <set>
#include <string>

#include "common/assert.hpp"

namespace micco::redstar {

namespace {

struct QuarkSlot {
  Flavor flavor;
  std::size_t hadron;  // index into the combined hadron list
};

struct Hadrons {
  // Interning keys and ranks per hadron node (mesons: rank 2, baryons: 3).
  std::vector<std::string> keys;
  std::vector<int> ranks;
  std::vector<QuarkSlot> quarks;
  std::vector<QuarkSlot> antiquarks;
};

Hadrons collect(const Construction& source, const Construction& sink,
                int sink_time) {
  Hadrons h;
  const auto add_meson = [&](const MesonOp& op, int t, bool conjugate) {
    const std::size_t idx = h.keys.size();
    h.keys.push_back(op.key(t));
    h.ranks.push_back(2);
    // Source operators enter as creation operators (conjugated), flipping
    // their quark content: <sink(t) source^dagger(0)>.
    h.quarks.push_back(QuarkSlot{conjugate ? op.antiquark : op.quark, idx});
    h.antiquarks.push_back(
        QuarkSlot{conjugate ? op.quark : op.antiquark, idx});
  };
  const auto add_baryon = [&](const BaryonOp& op, int t, bool conjugate) {
    const std::size_t idx = h.keys.size();
    h.keys.push_back(op.key(t));
    h.ranks.push_back(3);
    // A conjugated baryon (antibaryon) contributes three antiquark lines.
    for (const Flavor f : op.quarks) {
      (conjugate ? h.antiquarks : h.quarks).push_back(QuarkSlot{f, idx});
    }
  };
  for (const MesonOp& op : source.hadrons) {
    add_meson(op, 0, /*conjugate=*/true);
  }
  for (const BaryonOp& op : source.baryons) {
    add_baryon(op, 0, /*conjugate=*/true);
  }
  for (const MesonOp& op : sink.hadrons) {
    add_meson(op, sink_time, /*conjugate=*/false);
  }
  for (const BaryonOp& op : sink.baryons) {
    add_baryon(op, sink_time, /*conjugate=*/false);
  }
  return h;
}

/// Enumerates flavor-respecting, tadpole-free perfect matchings between
/// quarks and antiquarks, invoking `emit` with the pairing (quark i ->
/// antiquark assignment[i]). Returns the number of matchings emitted, at
/// most `cap`.
std::size_t for_each_matching(
    const Hadrons& h, std::size_t cap,
    const std::function<void(const std::vector<std::size_t>&)>& emit) {
  const std::size_t n = h.quarks.size();
  if (h.antiquarks.size() != n) return 0;  // cannot balance: no matchings
  std::vector<std::size_t> assignment(n, SIZE_MAX);
  std::vector<bool> used(n, false);
  std::size_t emitted = 0;

  const std::function<void(std::size_t)> recurse = [&](std::size_t qi) {
    if (emitted >= cap) return;
    if (qi == n) {
      emit(assignment);
      ++emitted;
      return;
    }
    for (std::size_t ai = 0; ai < n; ++ai) {
      if (used[ai]) continue;
      if (h.antiquarks[ai].flavor != h.quarks[qi].flavor) continue;
      if (h.antiquarks[ai].hadron == h.quarks[qi].hadron) continue;  // tadpole
      used[ai] = true;
      assignment[qi] = ai;
      recurse(qi + 1);
      used[ai] = false;
      assignment[qi] = SIZE_MAX;
      if (emitted >= cap) return;
    }
  };
  recurse(0);
  return emitted;
}

/// Content key of a matching: the sorted multiset of hadron-index edges.
std::string matching_signature(const Hadrons& h,
                               const std::vector<std::size_t>& assignment) {
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  edges.reserve(assignment.size());
  for (std::size_t qi = 0; qi < assignment.size(); ++qi) {
    const std::size_t hu = h.quarks[qi].hadron;
    const std::size_t hv = h.antiquarks[assignment[qi]].hadron;
    edges.emplace_back(std::min(hu, hv), std::max(hu, hv));
  }
  std::sort(edges.begin(), edges.end());
  std::string sig;
  for (const auto& [u, v] : edges) {
    sig += std::to_string(u) + "-" + std::to_string(v) + ";";
  }
  return sig;
}

}  // namespace

std::vector<ContractionGraph> enumerate_diagrams(const Construction& source,
                                                 const Construction& sink,
                                                 int sink_time,
                                                 NodeRegistry& registry,
                                                 std::size_t max_diagrams) {
  MICCO_EXPECTS(sink_time >= 1);
  std::vector<ContractionGraph> result;
  if (!flavor_balanced(source, sink)) return result;
  if (source.hadron_count() == 0 && sink.hadron_count() == 0) return result;

  const Hadrons h = collect(source, sink, sink_time);
  std::set<std::string> seen;

  for_each_matching(h, max_diagrams,
                    [&](const std::vector<std::size_t>& assignment) {
    // Drop content-duplicates: distinct pairings of identical quark lines
    // produce the same propagator multiset.
    if (!seen.insert(matching_signature(h, assignment)).second) return;

    ContractionGraph graph;
    std::vector<std::size_t> node_index(h.keys.size());
    for (std::size_t i = 0; i < h.keys.size(); ++i) {
      node_index[i] =
          graph.add_node(registry.original(h.keys[i], h.ranks[i]));
    }
    for (std::size_t qi = 0; qi < assignment.size(); ++qi) {
      const std::size_t hu = h.quarks[qi].hadron;
      const std::size_t hv = h.antiquarks[assignment[qi]].hadron;
      graph.add_edge(node_index[hu], node_index[hv]);
    }
    result.push_back(std::move(graph));
  });
  return result;
}

}  // namespace micco::redstar
