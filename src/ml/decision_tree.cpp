#include "ml/decision_tree.hpp"

#include <algorithm>
#include <functional>

namespace micco::ml {

RegressionTree::RegressionTree(TreeConfig config)
    : config_(config), rng_(config.seed) {
  MICCO_EXPECTS(config.max_depth >= 1);
  MICCO_EXPECTS(config.min_samples_split >= 2);
  MICCO_EXPECTS(config.min_samples_leaf >= 1);
}

void RegressionTree::fit(const Dataset& data) {
  MICCO_EXPECTS(!data.empty());
  nodes_.clear();
  std::vector<std::size_t> indices(data.size());
  for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  (void)build(data, indices, 0);
}

namespace {

double mean_of(const Dataset& data, const std::vector<std::size_t>& indices) {
  double acc = 0.0;
  for (const std::size_t i : indices) acc += data.target(i);
  return acc / static_cast<double>(indices.size());
}

}  // namespace

std::optional<RegressionTree::SplitChoice> RegressionTree::best_split(
    const Dataset& data, const std::vector<std::size_t>& indices) {
  const std::size_t n = indices.size();
  const std::size_t p = data.n_features();

  // Candidate features, optionally subsampled per split (Random Forest
  // style decorrelation).
  std::vector<std::size_t> features;
  if (config_.max_features == 0 || config_.max_features >= p) {
    features.resize(p);
    for (std::size_t j = 0; j < p; ++j) features[j] = j;
  } else {
    features = rng_.sample_without_replacement(p, config_.max_features);
  }

  // Total sums for the parent impurity.
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const std::size_t i : indices) {
    const double y = data.target(i);
    sum += y;
    sum_sq += y * y;
  }
  const double parent_sse = sum_sq - sum * sum / static_cast<double>(n);

  std::optional<SplitChoice> best;
  std::vector<std::size_t> order(indices);

  for (const std::size_t feature : features) {
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return data.row(a)[feature] < data.row(b)[feature];
    });

    // Scan split positions; a split between order[k-1] and order[k] is only
    // valid when the feature values differ (otherwise the threshold could
    // not separate them).
    double left_sum = 0.0;
    double left_sq = 0.0;
    for (std::size_t k = 1; k < n; ++k) {
      const double y = data.target(order[k - 1]);
      left_sum += y;
      left_sq += y * y;

      const double prev = data.row(order[k - 1])[feature];
      const double curr = data.row(order[k])[feature];
      if (prev == curr) continue;
      if (k < config_.min_samples_leaf || n - k < config_.min_samples_leaf) {
        continue;
      }

      const double right_sum = sum - left_sum;
      const double right_sq = sum_sq - left_sq;
      const double left_sse =
          left_sq - left_sum * left_sum / static_cast<double>(k);
      const double right_sse =
          right_sq - right_sum * right_sum / static_cast<double>(n - k);
      const double decrease = parent_sse - left_sse - right_sse;

      if (!best || decrease > best->score) {
        // For adjacent doubles the midpoint can round up to `curr`, which
        // would send order[k] left and apply a partition other than the one
        // just scored; `prev` separates them exactly.
        const double mid = 0.5 * (prev + curr);
        best = SplitChoice{feature, mid < curr ? mid : prev, decrease};
      }
    }
  }

  // Reject splits that do not reduce impurity (all-equal targets, ties).
  if (best && best->score <= 1e-12) return std::nullopt;
  return best;
}

std::int32_t RegressionTree::build(const Dataset& data,
                                   std::vector<std::size_t>& indices,
                                   int depth) {
  const auto node_id = static_cast<std::int32_t>(nodes_.size());
  nodes_.emplace_back();
  nodes_[static_cast<std::size_t>(node_id)].value = mean_of(data, indices);

  if (depth >= config_.max_depth ||
      indices.size() < config_.min_samples_split) {
    return node_id;
  }

  const std::optional<SplitChoice> split = best_split(data, indices);
  if (!split) return node_id;

  std::vector<std::size_t> left_idx;
  std::vector<std::size_t> right_idx;
  left_idx.reserve(indices.size());
  right_idx.reserve(indices.size());
  for (const std::size_t i : indices) {
    if (data.row(i)[split->feature] <= split->threshold) {
      left_idx.push_back(i);
    } else {
      right_idx.push_back(i);
    }
  }
  MICCO_ASSERT(!left_idx.empty() && !right_idx.empty());

  indices.clear();
  indices.shrink_to_fit();  // free before recursing on deep trees

  const std::int32_t left = build(data, left_idx, depth + 1);
  const std::int32_t right = build(data, right_idx, depth + 1);

  Node& node = nodes_[static_cast<std::size_t>(node_id)];
  node.feature = static_cast<int>(split->feature);
  node.threshold = split->threshold;
  node.left = left;
  node.right = right;
  return node_id;
}

double RegressionTree::predict(std::span<const double> features) const {
  MICCO_EXPECTS_MSG(!nodes_.empty(), "predict before fit");
  std::size_t node = 0;
  for (;;) {
    const Node& n = nodes_[node];
    if (n.feature < 0) return n.value;
    MICCO_ASSERT(static_cast<std::size_t>(n.feature) < features.size());
    node = static_cast<std::size_t>(
        features[static_cast<std::size_t>(n.feature)] <= n.threshold
            ? n.left
            : n.right);
  }
}

std::vector<RegressionTree::ExportedNode> RegressionTree::export_nodes()
    const {
  std::vector<ExportedNode> out;
  out.reserve(nodes_.size());
  for (const Node& n : nodes_) {
    out.push_back(ExportedNode{n.feature, n.threshold, n.value, n.left,
                               n.right});
  }
  return out;
}

RegressionTree RegressionTree::import_nodes(
    const std::vector<ExportedNode>& nodes, TreeConfig config) {
  MICCO_EXPECTS(!nodes.empty());
  RegressionTree tree(config);
  tree.nodes_.reserve(nodes.size());
  for (const ExportedNode& n : nodes) {
    if (n.feature >= 0) {
      MICCO_EXPECTS_MSG(
          n.left >= 0 && n.right >= 0 &&
              static_cast<std::size_t>(n.left) < nodes.size() &&
              static_cast<std::size_t>(n.right) < nodes.size(),
          "tree import: child index out of range");
    }
    tree.nodes_.push_back(Node{n.feature, n.threshold, n.value, n.left,
                               n.right});
  }
  return tree;
}

int RegressionTree::depth() const {
  if (nodes_.empty()) return 0;
  const std::function<int(std::size_t)> walk = [&](std::size_t id) -> int {
    const Node& n = nodes_[id];
    if (n.feature < 0) return 1;
    return 1 + std::max(walk(static_cast<std::size_t>(n.left)),
                        walk(static_cast<std::size_t>(n.right)));
  };
  return walk(0);
}

}  // namespace micco::ml
