#include "ml/random_forest.hpp"

#include <utility>

#include "parallel/parallel.hpp"

namespace micco::ml {

RandomForest::RandomForest(ForestConfig config) : config_(config) {
  MICCO_EXPECTS(config.n_trees >= 1);
}

void RandomForest::fit(const Dataset& data) {
  MICCO_EXPECTS(!data.empty());

  Pcg32 rng(config_.seed, /*stream=*/0xf00df00dULL);

  // Regression forests default to considering every feature per split (the
  // scikit-learn convention): with bagging alone decorrelating the trees,
  // this keeps individual trees strong on low-dimensional feature spaces
  // like the 4-feature bounds problem.
  TreeConfig tree_cfg = config_.tree;
  if (tree_cfg.max_features == 0) {
    tree_cfg.max_features = data.n_features();
  }

  // All RNG draws happen serially up front, in the exact order the loop
  // always made them (bootstrap indices, then the tree seed, per tree); the
  // expensive tree fits then fan out across the pool. Fitted forests are
  // bit-identical to the historical serial loop at every thread count.
  struct TreeDraw {
    std::vector<std::size_t> indices;
    std::uint64_t seed = 0;
  };
  const auto num_trees = static_cast<std::size_t>(config_.n_trees);
  std::vector<TreeDraw> draws(num_trees);
  for (TreeDraw& draw : draws) {
    // Bootstrap: n rows sampled with replacement.
    draw.indices.resize(data.size());
    for (std::size_t& index : draw.indices) {
      index = rng.uniform_below(static_cast<std::uint32_t>(data.size()));
    }
    draw.seed = static_cast<std::uint64_t>(rng.uniform_int(0, (1LL << 62)));
  }

  trees_ = parallel::parallel_map(num_trees, [&](std::size_t t) {
    TreeConfig cfg = tree_cfg;
    cfg.seed = draws[t].seed;
    RegressionTree tree(cfg);
    tree.fit(data.subset(draws[t].indices));
    return tree;
  });
}

RandomForest RandomForest::from_trees(std::vector<RegressionTree> trees,
                                      ForestConfig config) {
  MICCO_EXPECTS(!trees.empty());
  config.n_trees = static_cast<int>(trees.size());
  RandomForest forest(config);
  forest.trees_ = std::move(trees);
  return forest;
}

double RandomForest::predict(std::span<const double> features) const {
  MICCO_EXPECTS_MSG(!trees_.empty(), "predict before fit");
  double acc = 0.0;
  for (const RegressionTree& tree : trees_) acc += tree.predict(features);
  return acc / static_cast<double>(trees_.size());
}

}  // namespace micco::ml
