#include "ml/serialize.hpp"

#include <iomanip>
#include <limits>
#include <sstream>

#include "common/assert.hpp"

namespace micco::ml {

namespace {

constexpr const char* kMagic = "micco-model";
constexpr const char* kVersion = "v1";

std::ostream& full_precision(std::ostream& out) {
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  return out;
}

void write_tree_body(const RegressionTree& tree, std::ostream& out) {
  const auto nodes = tree.export_nodes();
  out << "tree " << nodes.size() << "\n";
  for (const auto& n : nodes) {
    full_precision(out) << n.feature << " " << n.threshold << " " << n.value
                        << " " << n.left << " " << n.right << "\n";
  }
}

bool read_tree_body(std::istream& in, RegressionTree* tree,
                    std::string* error) {
  std::string tag;
  std::size_t count = 0;
  if (!(in >> tag >> count) || tag != "tree") {
    if (error) *error = "expected tree header";
    return false;
  }
  if (count == 0 || count > 10'000'000) {
    if (error) *error = "implausible tree node count";
    return false;
  }
  std::vector<RegressionTree::ExportedNode> nodes(count);
  for (std::size_t i = 0; i < count; ++i) {
    auto& n = nodes[i];
    if (!(in >> n.feature >> n.threshold >> n.value >> n.left >> n.right)) {
      if (error) *error = "truncated tree body";
      return false;
    }
    // Trees are written parent first, so a child's index exceeds its
    // parent's: an index at or before the node's own would close a cycle
    // that predict() never leaves.
    if (n.feature >= 0 &&
        (n.left <= static_cast<std::int64_t>(i) ||
         n.right <= static_cast<std::int64_t>(i) ||
         static_cast<std::size_t>(n.left) >= count ||
         static_cast<std::size_t>(n.right) >= count)) {
      if (error) *error = "tree child index out of range";
      return false;
    }
  }
  *tree = RegressionTree::import_nodes(nodes);
  return true;
}

}  // namespace

void save_regressor(const Regressor& model, std::ostream& out) {
  const auto* forest = dynamic_cast<const RandomForest*>(&model);
  MICCO_EXPECTS_MSG(forest != nullptr,
                    "only RandomForest models can be serialized");
  MICCO_EXPECTS_MSG(forest->tree_count() > 0,
                    "cannot save an unfitted forest");
  out << kMagic << " " << kVersion << " forest " << forest->tree_count()
      << "\n";
  for (std::size_t i = 0; i < forest->tree_count(); ++i) {
    write_tree_body(forest->tree_at(i), out);
  }
}

std::unique_ptr<Regressor> load_regressor(std::istream& in,
                                          std::string* error) {
  std::string magic, version, type;
  if (!(in >> magic >> version >> type) || magic != kMagic) {
    if (error) *error = "not a micco model file";
    return nullptr;
  }
  if (version != kVersion) {
    if (error) *error = "unsupported model version: " + version;
    return nullptr;
  }
  if (type != "forest") {
    if (error) *error = "unknown model type: " + type;
    return nullptr;
  }
  std::size_t count = 0;
  if (!(in >> count) || count == 0 || count > 100'000) {
    if (error) *error = "bad forest tree count";
    return nullptr;
  }
  std::vector<RegressionTree> trees;
  trees.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    RegressionTree tree;
    if (!read_tree_body(in, &tree, error)) return nullptr;
    trees.push_back(std::move(tree));
  }
  return std::make_unique<RandomForest>(
      RandomForest::from_trees(std::move(trees)));
}

}  // namespace micco::ml
