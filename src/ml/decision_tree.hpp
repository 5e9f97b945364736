// CART regression tree: variance-reduction splits, depth/leaf-size limits,
// and optional per-split feature subsampling (the randomisation Random
// Forest layers on top).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "ml/regressor.hpp"

namespace micco::ml {

struct TreeConfig {
  int max_depth = 8;
  std::size_t min_samples_split = 2;
  std::size_t min_samples_leaf = 1;
  /// Features examined per split; 0 means all features.
  std::size_t max_features = 0;
  std::uint64_t seed = 1;
};

class RegressionTree final : public Regressor {
 public:
  explicit RegressionTree(TreeConfig config = {});

  std::string name() const override { return "RegressionTree"; }
  void fit(const Dataset& data) override;
  double predict(std::span<const double> features) const override;

  /// Number of nodes in the fitted tree (tests assert growth limits).
  std::size_t node_count() const { return nodes_.size(); }
  int depth() const;

  /// Flat node view for serialization. Leaves have feature == -1.
  struct ExportedNode {
    int feature = -1;
    double threshold = 0.0;
    double value = 0.0;
    std::int32_t left = -1;
    std::int32_t right = -1;
  };

  /// Serializable snapshot of the fitted tree (index 0 is the root).
  std::vector<ExportedNode> export_nodes() const;

  /// Rebuilds a tree from exported nodes. Aborts on structurally invalid
  /// input (a split's child index at or before its own, or past the end:
  /// nodes are stored parent first); callers validate untrusted data first.
  static RegressionTree import_nodes(const std::vector<ExportedNode>& nodes,
                                     TreeConfig config = {});

 private:
  struct Node {
    // Leaf when feature < 0.
    int feature = -1;
    double threshold = 0.0;
    double value = 0.0;  // leaf prediction (mean of samples)
    std::int32_t left = -1;
    std::int32_t right = -1;
  };

  struct SplitChoice {
    std::size_t feature = 0;
    double threshold = 0.0;
    double score = 0.0;  // impurity decrease
  };

  std::int32_t build(const Dataset& data, std::vector<std::size_t>& indices,
                     int depth);
  std::optional<SplitChoice> best_split(
      const Dataset& data, const std::vector<std::size_t>& indices);

  TreeConfig config_;
  Pcg32 rng_;
  std::vector<Node> nodes_;
};

}  // namespace micco::ml
