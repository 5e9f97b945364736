// Text serialization for trained regressors, so the offline phase (corpus
// sweep + training) runs once and ships a model file with the application —
// exactly how MICCO's "pre-trained lightweight regression model" is meant
// to be deployed.
//
// The format is a line-oriented, versioned text format:
//   micco-model v1 forest <tree count>
//   ... one node table per tree ...
// Doubles round-trip through max_digits10 so a save/load cycle reproduces
// bit-identical predictions.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>

#include "ml/random_forest.hpp"
#include "ml/regressor.hpp"

namespace micco::ml {

/// Writes a fitted regressor to a stream. Only Random Forests are ever
/// written (`micco train`, the benches); aborts on an unfitted forest and
/// on any other concrete type.
void save_regressor(const Regressor& model, std::ostream& out);

/// Reads a forest back. Returns nullptr (and sets `error`) on malformed
/// input or any other model type; never aborts on bad data - model files
/// are external input.
std::unique_ptr<Regressor> load_regressor(std::istream& in,
                                          std::string* error = nullptr);

}  // namespace micco::ml
