#include "workload/serialize.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "core/verify.hpp"
#include "redstar/correlator.hpp"
#include "workload/synthetic.hpp"

namespace micco {
namespace {

WorkloadStream sample_stream() {
  SyntheticConfig cfg;
  cfg.num_vectors = 4;
  cfg.vector_size = 8;
  cfg.tensor_extent = 16;
  cfg.batch = 2;
  cfg.repeated_rate = 0.75;
  cfg.distribution = DataDistribution::kGaussian;
  cfg.seed = 9;
  return generate_synthetic(cfg);
}

void expect_streams_equal(const WorkloadStream& a, const WorkloadStream& b) {
  ASSERT_EQ(a.vectors.size(), b.vectors.size());
  for (std::size_t v = 0; v < a.vectors.size(); ++v) {
    ASSERT_EQ(a.vectors[v].tasks.size(), b.vectors[v].tasks.size());
    for (std::size_t t = 0; t < a.vectors[v].tasks.size(); ++t) {
      EXPECT_EQ(a.vectors[v].tasks[t].a, b.vectors[v].tasks[t].a);
      EXPECT_EQ(a.vectors[v].tasks[t].b, b.vectors[v].tasks[t].b);
      EXPECT_EQ(a.vectors[v].tasks[t].out, b.vectors[v].tasks[t].out);
    }
  }
  EXPECT_EQ(a.vector_size, b.vector_size);
  EXPECT_EQ(a.tensor_extent, b.tensor_extent);
  EXPECT_EQ(a.batch, b.batch);
  EXPECT_DOUBLE_EQ(a.repeated_rate, b.repeated_rate);
  EXPECT_EQ(a.distribution, b.distribution);
}

TEST(WorkloadSerialize, RoundTripPreservesEverything) {
  const WorkloadStream original = sample_stream();
  std::stringstream buffer;
  save_stream(original, buffer);
  std::string error;
  const auto loaded = load_stream(buffer, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  expect_streams_equal(original, *loaded);
}

TEST(WorkloadSerialize, RoundTripPreservesStructuralValidity) {
  const WorkloadStream original = sample_stream();
  std::stringstream buffer;
  save_stream(original, buffer);
  const auto loaded = load_stream(buffer);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(validate_stream_structure(*loaded), "");
}

TEST(WorkloadSerialize, RedstarStreamRoundTrips) {
  redstar::CorrelatorSpec spec = redstar::make_a1_rhopi();
  spec.time_slices = 3;
  spec.extent = 8;
  spec.batch = 1;
  const WorkloadStream original = redstar::build_workload(spec).stream;
  std::stringstream buffer;
  save_stream(original, buffer);
  const auto loaded = load_stream(buffer);
  ASSERT_TRUE(loaded.has_value());
  expect_streams_equal(original, *loaded);
  // Numeric digest survives the round trip (same TensorIds -> same data).
  EXPECT_DOUBLE_EQ(execute_numerically(original).digest,
                   execute_numerically(*loaded).digest);
}

TEST(WorkloadSerialize, RejectsGarbage) {
  std::stringstream buffer("hello world");
  std::string error;
  EXPECT_FALSE(load_stream(buffer, &error).has_value());
  EXPECT_NE(error.find("not a micco workload"), std::string::npos);
}

TEST(WorkloadSerialize, RejectsWrongVersion) {
  std::stringstream buffer("micco-workload v9\n");
  std::string error;
  EXPECT_FALSE(load_stream(buffer, &error).has_value());
  EXPECT_NE(error.find("version"), std::string::npos);
}

TEST(WorkloadSerialize, RejectsTruncatedTask) {
  std::stringstream buffer(
      "micco-workload v1\nmeta 8 16 2 0.5 uniform\nvectors 1\nvector 1\n"
      "task 0 2 16 2 1 2 16\n");
  std::string error;
  EXPECT_FALSE(load_stream(buffer, &error).has_value());
  EXPECT_NE(error.find("truncated"), std::string::npos);
}

TEST(WorkloadSerialize, RejectsBadRank) {
  std::stringstream buffer(
      "micco-workload v1\nmeta 8 16 2 0.5 uniform\nvectors 1\nvector 1\n"
      "task 0 5 16 2 1 2 16 2 2 2 16 2\n");
  std::string error;
  EXPECT_FALSE(load_stream(buffer, &error).has_value());
  EXPECT_NE(error.find("invalid tensor"), std::string::npos);
}

TEST(WorkloadSerialize, RejectsMismatchedOperands) {
  std::stringstream buffer(
      "micco-workload v1\nmeta 8 16 2 0.5 uniform\nvectors 1\nvector 1\n"
      "task 0 2 16 2 1 2 32 2 2 2 16 2\n");
  std::string error;
  EXPECT_FALSE(load_stream(buffer, &error).has_value());
  EXPECT_NE(error.find("contractable"), std::string::npos);
}

TEST(WorkloadSerialize, RejectsSizesPast64Bits) {
  // One task of rank-2 tensors: "<extent> <batch>" per descriptor, and the
  // error (empty: the stream loads).
  struct Case {
    const char* shape;
    const char* error;
  };
  for (const Case& c : {
           // payload 2^60 entries * 16 B = 2^64 bytes
           Case{"1073741824 1", "payload exceeds"},
           // payload 2^46 bytes, FLOPs 8 * 2^63
           Case{"2097152 1", "FLOPs or kernel bytes"},
           // payload 6.4e18 bytes, FLOPs 1.6e19, kernel bytes 1.92e19
           Case{"5 16000000000000000", "FLOPs or kernel bytes"},
           // FLOPs exactly 2^63, kernel bytes 3 * 2^44
           Case{"1048576 1", ""},
       }) {
    const std::string shape = c.shape;
    std::stringstream buffer(
        "micco-workload v1\nmeta 2 1 1 0 uniform\nvectors 1\nvector 1\n"
        "task 0 2 " + shape + " 1 2 " + shape + " 2 2 " + shape + "\n");
    std::string error;
    const std::optional<WorkloadStream> loaded = load_stream(buffer, &error);
    if (*c.error == '\0') {
      ASSERT_TRUE(loaded.has_value()) << shape << ": " << error;
      EXPECT_EQ(loaded->total_flops(), std::uint64_t{1} << 63);
      continue;
    }
    EXPECT_FALSE(loaded.has_value()) << shape;
    EXPECT_NE(error.find(c.error), std::string::npos) << shape << ": " << error;
  }
}

TEST(WorkloadSerialize, RejectsUnknownDistribution) {
  std::stringstream buffer(
      "micco-workload v1\nmeta 8 16 2 0.5 exponential\nvectors 0\n");
  std::string error;
  EXPECT_FALSE(load_stream(buffer, &error).has_value());
  EXPECT_NE(error.find("distribution"), std::string::npos);
}

TEST(WorkloadSerialize, FileRoundTrip) {
  const WorkloadStream original = sample_stream();
  const std::string path = "/tmp/micco_test_workload.mw";
  save_stream_file(original, path);
  std::string error;
  const auto loaded = load_stream_file(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  expect_streams_equal(original, *loaded);
  std::remove(path.c_str());
}

TEST(WorkloadSerialize, MissingFileReportsError) {
  std::string error;
  EXPECT_FALSE(load_stream_file("/nonexistent/w.mw", &error).has_value());
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

TEST(WorkloadSerialize, EmptyStreamRoundTrips) {
  WorkloadStream empty;
  empty.vector_size = 0;
  std::stringstream buffer;
  save_stream(empty, buffer);
  const auto loaded = load_stream(buffer);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->vectors.empty());
}

}  // namespace
}  // namespace micco
