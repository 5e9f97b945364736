#include "workload/task.hpp"

#include <gtest/gtest.h>

namespace micco {
namespace {

TensorDesc make_desc(TensorId id, std::int64_t extent = 8,
                     std::int64_t batch = 2, int rank = 2) {
  return TensorDesc{id, rank, extent, batch};
}

ContractionTask make_task(TensorId a, TensorId b, TensorId out,
                          std::int64_t extent = 8, std::int64_t batch = 2) {
  ContractionTask t;
  t.a = make_desc(a, extent, batch);
  t.b = make_desc(b, extent, batch);
  t.out = make_desc(out, extent, batch);
  return t;
}

TEST(TensorDesc, BytesRank2) {
  EXPECT_EQ(make_desc(0, 8, 2).bytes(), 2u * 64u * sizeof(cplx));
}

TEST(TensorDesc, BytesRank3) {
  EXPECT_EQ(make_desc(0, 8, 2, 3).bytes(), 2u * 512u * sizeof(cplx));
}

TEST(TensorDesc, InvalidByDefault) {
  TensorDesc d;
  EXPECT_FALSE(d.valid());
  EXPECT_TRUE(make_desc(0).valid());
}

TEST(ContractionTask, FlopsUseOperandShape) {
  const ContractionTask t = make_task(0, 1, 2, 8, 2);
  EXPECT_EQ(t.flops(), 8ull * 2 * 8 * 8 * 8);
}

TEST(VectorWorkload, TensorCountIsTwoPerTask) {
  VectorWorkload v;
  v.tasks = {make_task(0, 1, 10), make_task(2, 3, 11)};
  EXPECT_EQ(v.tensor_count(), 4);
}

TEST(VectorWorkload, UniqueInputsDeduplicates) {
  VectorWorkload v;
  v.tasks = {make_task(0, 1, 10), make_task(1, 2, 11), make_task(0, 2, 12)};
  const auto unique = v.unique_inputs();
  EXPECT_EQ(unique.size(), 3u);
  EXPECT_TRUE(unique.contains(0));
  EXPECT_TRUE(unique.contains(1));
  EXPECT_TRUE(unique.contains(2));
}

TEST(VectorWorkload, TotalFlopsSumsTasks) {
  VectorWorkload v;
  v.tasks = {make_task(0, 1, 10), make_task(2, 3, 11)};
  EXPECT_EQ(v.total_flops(), 2 * v.tasks[0].flops());
}

TEST(WorkloadStream, TotalDistinctBytesSpansVectors) {
  WorkloadStream s;
  VectorWorkload v1, v2;
  v1.tasks = {make_task(0, 1, 10)};
  v2.tasks = {make_task(0, 2, 11)};  // tensor 0 repeats, not double-counted
  s.vectors = {v1, v2};
  const std::uint64_t per_tensor = make_desc(0).bytes();
  // Distinct: inputs 0,1,2 + outputs 10,11 = 5 tensors.
  EXPECT_EQ(s.total_distinct_bytes(), 5 * per_tensor);
}

TEST(WorkloadStream, TotalFlopsSpansVectors) {
  WorkloadStream s;
  VectorWorkload v;
  v.tasks = {make_task(0, 1, 10)};
  s.vectors = {v, v};
  EXPECT_EQ(s.total_flops(), 2 * v.tasks[0].flops());
}

TEST(DataDistribution, Names) {
  EXPECT_STREQ(to_string(DataDistribution::kUniform), "Uniform");
  EXPECT_STREQ(to_string(DataDistribution::kGaussian), "Gaussian");
}

}  // namespace
}  // namespace micco
