#include "workload/synthetic.hpp"

#include <gtest/gtest.h>

#include <unordered_map>
#include <unordered_set>

namespace micco {
namespace {

SyntheticConfig base_config() {
  SyntheticConfig c;
  c.num_vectors = 6;
  c.vector_size = 16;
  c.tensor_extent = 32;
  c.batch = 2;
  c.repeated_rate = 0.5;
  c.seed = 123;
  return c;
}

TEST(Synthetic, ShapeMatchesConfig) {
  const WorkloadStream s = generate_synthetic(base_config());
  EXPECT_EQ(s.vectors.size(), 6u);
  for (const VectorWorkload& v : s.vectors) {
    EXPECT_EQ(v.tasks.size(), 8u);  // vector_size / 2 pairs
    EXPECT_EQ(v.tensor_count(), 16);
    for (const ContractionTask& t : v.tasks) {
      EXPECT_EQ(t.a.extent, 32);
      EXPECT_EQ(t.b.extent, 32);
      EXPECT_EQ(t.a.batch, 2);
      EXPECT_EQ(t.a.rank, 2);
      EXPECT_EQ(t.out.rank, 2);
    }
  }
}

TEST(Synthetic, DeterministicInSeed) {
  const WorkloadStream a = generate_synthetic(base_config());
  const WorkloadStream b = generate_synthetic(base_config());
  ASSERT_EQ(a.vectors.size(), b.vectors.size());
  for (std::size_t v = 0; v < a.vectors.size(); ++v) {
    ASSERT_EQ(a.vectors[v].tasks.size(), b.vectors[v].tasks.size());
    for (std::size_t t = 0; t < a.vectors[v].tasks.size(); ++t) {
      EXPECT_EQ(a.vectors[v].tasks[t].a.id, b.vectors[v].tasks[t].a.id);
      EXPECT_EQ(a.vectors[v].tasks[t].b.id, b.vectors[v].tasks[t].b.id);
    }
  }
}

TEST(Synthetic, DifferentSeedsDiffer) {
  SyntheticConfig c1 = base_config();
  SyntheticConfig c2 = base_config();
  c2.seed = 999;
  const WorkloadStream a = generate_synthetic(c1);
  const WorkloadStream b = generate_synthetic(c2);
  bool any_difference = false;
  for (std::size_t v = 1; v < a.vectors.size() && !any_difference; ++v) {
    for (std::size_t t = 0; t < a.vectors[v].tasks.size(); ++t) {
      if (a.vectors[v].tasks[t].a.id != b.vectors[v].tasks[t].a.id) {
        any_difference = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(Synthetic, FirstVectorIsAllFresh) {
  SyntheticConfig c = base_config();
  c.repeated_rate = 1.0;
  const WorkloadStream s = generate_synthetic(c);
  std::unordered_set<TensorId> ids;
  for (const ContractionTask& t : s.vectors[0].tasks) {
    ids.insert(t.a.id);
    ids.insert(t.b.id);
  }
  // With no history, all 16 slots are fresh distinct tensors.
  EXPECT_EQ(ids.size(), 16u);
}

TEST(Synthetic, RepeatedRateRespectedInLaterVectors) {
  SyntheticConfig c = base_config();
  c.repeated_rate = 0.5;
  const WorkloadStream s = generate_synthetic(c);

  // Track every tensor seen in earlier vectors; exactly half of each later
  // vector's slots must come from that set.
  std::unordered_set<TensorId> history;
  for (const ContractionTask& t : s.vectors[0].tasks) {
    history.insert(t.a.id);
    history.insert(t.b.id);
  }
  for (std::size_t v = 1; v < s.vectors.size(); ++v) {
    int repeats = 0;
    for (const ContractionTask& t : s.vectors[v].tasks) {
      if (history.contains(t.a.id)) ++repeats;
      if (history.contains(t.b.id)) ++repeats;
    }
    EXPECT_EQ(repeats, 8);  // 50% of 16 slots
    for (const ContractionTask& t : s.vectors[v].tasks) {
      history.insert(t.a.id);
      history.insert(t.b.id);
    }
  }
}

TEST(Synthetic, ZeroRepeatedRateAllFresh) {
  SyntheticConfig c = base_config();
  c.repeated_rate = 0.0;
  const WorkloadStream s = generate_synthetic(c);
  std::unordered_set<TensorId> seen;
  for (const VectorWorkload& v : s.vectors) {
    for (const ContractionTask& t : v.tasks) {
      EXPECT_TRUE(seen.insert(t.a.id).second);
      EXPECT_TRUE(seen.insert(t.b.id).second);
    }
  }
}

TEST(Synthetic, FullRepeatedRateReusesHistoryOnly) {
  SyntheticConfig c = base_config();
  c.repeated_rate = 1.0;
  const WorkloadStream s = generate_synthetic(c);
  std::unordered_set<TensorId> history;
  for (const ContractionTask& t : s.vectors[0].tasks) {
    history.insert(t.a.id);
    history.insert(t.b.id);
  }
  for (std::size_t v = 1; v < s.vectors.size(); ++v) {
    for (const ContractionTask& t : s.vectors[v].tasks) {
      EXPECT_TRUE(history.contains(t.a.id));
      EXPECT_TRUE(history.contains(t.b.id));
    }
  }
}

TEST(Synthetic, OutputIdsNeverCollideWithInputs) {
  const WorkloadStream s = generate_synthetic(base_config());
  std::unordered_set<TensorId> inputs;
  std::unordered_set<TensorId> outputs;
  for (const VectorWorkload& v : s.vectors) {
    for (const ContractionTask& t : v.tasks) {
      inputs.insert(t.a.id);
      inputs.insert(t.b.id);
      EXPECT_TRUE(outputs.insert(t.out.id).second) << "output id reused";
    }
  }
  for (const TensorId out : outputs) {
    EXPECT_FALSE(inputs.contains(out));
  }
}

TEST(Synthetic, GaussianConcentratesRepeats) {
  // Under the Gaussian selection, repeat multiplicity should concentrate on
  // a small hot set: the most-repeated tensor must dominate far more than
  // under Uniform.
  SyntheticConfig uni = base_config();
  uni.num_vectors = 30;
  uni.vector_size = 32;
  uni.repeated_rate = 0.75;
  uni.distribution = DataDistribution::kUniform;
  SyntheticConfig gauss = uni;
  gauss.distribution = DataDistribution::kGaussian;

  const auto max_multiplicity = [](const WorkloadStream& s) {
    std::unordered_map<TensorId, int> counts;
    for (const VectorWorkload& v : s.vectors) {
      for (const ContractionTask& t : v.tasks) {
        ++counts[t.a.id];
        ++counts[t.b.id];
      }
    }
    int best = 0;
    for (const auto& [id, c] : counts) {
      (void)id;
      best = std::max(best, c);
    }
    return best;
  };

  EXPECT_GT(max_multiplicity(generate_synthetic(gauss)),
            2 * max_multiplicity(generate_synthetic(uni)));
}

TEST(Synthetic, StreamMetadataRecorded) {
  SyntheticConfig c = base_config();
  c.distribution = DataDistribution::kGaussian;
  const WorkloadStream s = generate_synthetic(c);
  EXPECT_EQ(s.vector_size, 16);
  EXPECT_EQ(s.tensor_extent, 32);
  EXPECT_EQ(s.batch, 2);
  EXPECT_DOUBLE_EQ(s.repeated_rate, 0.5);
  EXPECT_EQ(s.distribution, DataDistribution::kGaussian);
}

TEST(SyntheticValidate, RejectsBadConfigs) {
  SyntheticConfig c = base_config();
  c.vector_size = 7;  // odd
  EXPECT_DEATH(validate(c), "vector size");

  c = base_config();
  c.repeated_rate = 1.5;
  EXPECT_DEATH(validate(c), "repeated rate");

  c = base_config();
  c.rank = 4;
  EXPECT_DEATH(validate(c), "rank");
}

TEST(SyntheticValidate, ReportsProblemsWithoutAborting) {
  EXPECT_EQ(base_config().validate(), "");
  const auto problem = [](auto edit) {
    SyntheticConfig c = base_config();
    edit(c);
    return c.validate();
  };
  EXPECT_NE(problem([](SyntheticConfig& c) { c.num_vectors = 0; }), "");
  EXPECT_NE(problem([](SyntheticConfig& c) { c.vector_size = 0; }), "");
  EXPECT_NE(problem([](SyntheticConfig& c) { c.vector_size = 3; })
                .find("vector size"),
            std::string::npos);
  EXPECT_NE(problem([](SyntheticConfig& c) { c.tensor_extent = 0; }), "");
  EXPECT_NE(problem([](SyntheticConfig& c) { c.batch = 0; }), "");
  EXPECT_NE(problem([](SyntheticConfig& c) { c.repeated_rate = 2.0; }), "");
  EXPECT_NE(problem([](SyntheticConfig& c) { c.rank = 1; }), "");
  EXPECT_NE(problem([](SyntheticConfig& c) { c.tensor_extent = 1 << 30; })
                .find("overflow"),
            std::string::npos);
}

TEST(Synthetic, Rank3WorkloadsSupported) {
  SyntheticConfig c = base_config();
  c.rank = 3;
  const WorkloadStream s = generate_synthetic(c);
  for (const ContractionTask& t : s.vectors[0].tasks) {
    EXPECT_EQ(t.a.rank, 3);
    EXPECT_EQ(t.b.rank, 3);
    EXPECT_EQ(t.out.rank, 2);  // baryon contraction emits matrices
  }
}

}  // namespace
}  // namespace micco
