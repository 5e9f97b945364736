// Hadron operator descriptions for the mini-Redstar frontend.
//
// A meson operator interpolates a quark-antiquark pair with definite flavor
// content and momentum. Correlation functions are built from operator
// constructions (single-particle, or multi-particle products of mesons) at a
// source time slice and a range of sink time slices; Wick's theorem then
// expands <sink | source> into quark propagation diagrams (see wick.hpp).
//
// Simplifications vs. full Redstar, documented in DESIGN.md: spin/colour
// structure is folded into the batched tensor; self-contractions within one
// hadron (tadpoles) are dropped. Mesons carry rank-2 hadron nodes; baryons
// (three quark lines) carry rank-3 nodes.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace micco::redstar {

enum class Flavor : std::uint8_t { kUp, kDown, kStrange, kCharm };

const char* to_string(Flavor f);

/// One interpolating meson field: quark content q qbar' at momentum p.
struct MesonOp {
  std::string name;   ///< e.g. "pi+", "rho0", "f0"
  Flavor quark;       ///< the quark line
  Flavor antiquark;   ///< the antiquark line
  int momentum = 0;   ///< 1-D momentum label (distinguishes tensors)

  /// Unique key for tensor interning: same operator at the same time slice
  /// is the same hadron node.
  std::string key(int time_slice) const;
};

/// One interpolating baryon field: three quark lines (e.g. proton = uud).
/// Baryon hadron nodes carry rank-3 tensors; at the source the operator is
/// conjugated into an antibaryon (three antiquark lines).
struct BaryonOp {
  std::string name;  ///< e.g. "N+", "Delta++"
  std::array<Flavor, 3> quarks;
  int momentum = 0;

  std::string key(int time_slice) const;
};

/// One term of an operator basis: a product of meson and/or baryon fields
/// created or annihilated together (single-particle: one hadron;
/// multi-particle: several).
struct Construction {
  std::vector<MesonOp> hadrons;   ///< meson fields (historical name)
  std::vector<BaryonOp> baryons;  ///< baryon fields

  std::size_t hadron_count() const {
    return hadrons.size() + baryons.size();
  }
};

/// An operator basis at one end of the correlator (several constructions,
/// e.g. { a1 } and { rho(p) pi(-p) } variants).
struct OperatorBasis {
  std::vector<Construction> constructions;
};

/// A full correlation-function specification.
struct CorrelatorSpec {
  std::string name;
  OperatorBasis source;    ///< creation operators at t = 0
  OperatorBasis sink;      ///< annihilation operators at t = 1..time_slices
  int time_slices = 16;    ///< Table VI: "sum of sixteen time slices"
  std::int64_t extent = 256;  ///< tensor size of every hadron node
  std::int64_t batch = 64;    ///< batched-kernel width per node
  /// Cap on Wick diagrams per (source construction, sink construction,
  /// time slice) triple, guarding the factorial blow-up.
  std::size_t max_diagrams_per_pair = 256;
};

/// Flavor balance check: a construction pair can contract only when, jointly,
/// every flavor has as many quarks as antiquarks.
bool flavor_balanced(const Construction& a, const Construction& b);

}  // namespace micco::redstar
