#include "core/verify.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "workload/synthetic.hpp"

namespace micco {
namespace {

TensorDesc make_desc(TensorId id, std::int64_t extent = 4,
                     std::int64_t batch = 1, int rank = 2) {
  return TensorDesc{id, rank, extent, batch};
}

ContractionTask make_task(TensorId a, TensorId b, TensorId out) {
  ContractionTask t;
  t.a = make_desc(a);
  t.b = make_desc(b);
  t.out = make_desc(out);
  return t;
}

TEST(ValidateStructure, AcceptsSyntheticStreams) {
  SyntheticConfig cfg;
  cfg.num_vectors = 5;
  cfg.vector_size = 8;
  cfg.tensor_extent = 4;
  cfg.batch = 1;
  cfg.repeated_rate = 0.75;
  const WorkloadStream stream = generate_synthetic(cfg);
  EXPECT_EQ(validate_stream_structure(stream), "");
}

TEST(ValidateStructure, RejectsDuplicateOutputs) {
  WorkloadStream s;
  VectorWorkload v;
  v.tasks = {make_task(0, 1, 10), make_task(2, 3, 10)};
  s.vectors = {v};
  EXPECT_NE(validate_stream_structure(s).find("twice"), std::string::npos);
}

TEST(ValidateStructure, RejectsInvalidOutputId) {
  // kInvalidTensor as an output would trip the simulator's precondition on
  // the task's output; the reader takes the decimal spelling 2^64 - 1.
  WorkloadStream s;
  VectorWorkload v;
  v.tasks = {make_task(0, 1, 10), make_task(2, 3, kInvalidTensor)};
  s.vectors = {v};
  EXPECT_EQ(validate_stream_structure(s), "invalid output descriptor");
}

TEST(ValidateStructure, RejectsSameStageDependency) {
  // Task 2 consumes task 1's output inside the same vector: illegal, the
  // stage barrier has not run.
  WorkloadStream s;
  VectorWorkload v;
  v.tasks = {make_task(0, 1, 10), make_task(10, 2, 11)};
  s.vectors = {v};
  EXPECT_NE(validate_stream_structure(s).find("before"), std::string::npos);
}

TEST(ValidateStructure, AcceptsCrossStageDependency) {
  WorkloadStream s;
  VectorWorkload v1, v2;
  v1.tasks = {make_task(0, 1, 10)};
  v2.tasks = {make_task(10, 2, 11)};
  s.vectors = {v1, v2};
  EXPECT_EQ(validate_stream_structure(s), "");
}

TEST(ValidateStructure, RejectsRankMismatch) {
  WorkloadStream s;
  VectorWorkload v;
  ContractionTask t;
  t.a = make_desc(0, 4, 1, 2);
  t.b = make_desc(1, 4, 1, 3);
  t.out = make_desc(10);
  v.tasks = {t};
  s.vectors = {v};
  EXPECT_NE(validate_stream_structure(s).find("rank"), std::string::npos);
}

TEST(ValidateStructure, RejectsShapeMismatch) {
  WorkloadStream s;
  VectorWorkload v;
  ContractionTask t;
  t.a = make_desc(0, 4);
  t.b = make_desc(1, 8);
  t.out = make_desc(10);
  v.tasks = {t};
  s.vectors = {v};
  EXPECT_NE(validate_stream_structure(s).find("contractable"),
            std::string::npos);
}

TEST(Materialize, DeterministicPerTensorId) {
  const Tensor a = materialize_original(make_desc(5));
  const Tensor b = materialize_original(make_desc(5));
  const Tensor c = materialize_original(make_desc(6));
  EXPECT_DOUBLE_EQ(a.max_abs_diff(b), 0.0);
  EXPECT_GT(a.max_abs_diff(c), 0.0);
}

TEST(Materialize, RespectsRank) {
  EXPECT_EQ(materialize_original(make_desc(1, 4, 2, 3)).shape(),
            Shape::rank3(2, 4));
  EXPECT_EQ(materialize_original(make_desc(1, 4, 2, 2)).shape(),
            Shape::matrix(2, 4));
}

TEST(ExecuteNumerically, RunsEveryTask) {
  SyntheticConfig cfg;
  cfg.num_vectors = 4;
  cfg.vector_size = 8;
  cfg.tensor_extent = 6;
  cfg.batch = 1;
  cfg.repeated_rate = 0.5;
  const WorkloadStream stream = generate_synthetic(cfg);
  const NumericResult r = execute_numerically(stream);
  EXPECT_EQ(r.tasks_executed, 4u * 4u);
  EXPECT_GT(r.digest, 0.0);
  EXPECT_GT(r.peak_bytes, 0u);
}

TEST(ExecuteNumerically, DigestIsDeterministic) {
  SyntheticConfig cfg;
  cfg.num_vectors = 3;
  cfg.vector_size = 8;
  cfg.tensor_extent = 5;
  cfg.batch = 1;
  cfg.repeated_rate = 0.75;
  const WorkloadStream stream = generate_synthetic(cfg);
  EXPECT_DOUBLE_EQ(execute_numerically(stream).digest,
                   execute_numerically(stream).digest);
}

TEST(ExecuteNumerically, DigestInvariantUnderTaskOrderWithinStage) {
  // Scheduling permutes execution order within a stage; the digest must not
  // change (the numeric-transparency property).
  SyntheticConfig cfg;
  cfg.num_vectors = 3;
  cfg.vector_size = 8;
  cfg.tensor_extent = 5;
  cfg.batch = 1;
  cfg.repeated_rate = 0.5;
  WorkloadStream stream = generate_synthetic(cfg);
  const double reference = execute_numerically(stream).digest;

  for (VectorWorkload& v : stream.vectors) {
    std::reverse(v.tasks.begin(), v.tasks.end());
  }
  EXPECT_DOUBLE_EQ(execute_numerically(stream).digest, reference);
}

TEST(ExecuteNumerically, ByteLimitEnforced) {
  SyntheticConfig cfg;
  cfg.num_vectors = 2;
  cfg.vector_size = 8;
  cfg.tensor_extent = 32;
  cfg.batch = 4;
  const WorkloadStream stream = generate_synthetic(cfg);
  EXPECT_DEATH((void)execute_numerically(stream, 1024), "byte limit");
}

TEST(ExecuteNumerically, BaryonStreamsExecute) {
  SyntheticConfig cfg;
  cfg.num_vectors = 2;
  cfg.vector_size = 4;
  cfg.tensor_extent = 4;
  cfg.batch = 1;
  cfg.rank = 3;
  const WorkloadStream stream = generate_synthetic(cfg);
  const NumericResult r = execute_numerically(stream);
  EXPECT_EQ(r.tasks_executed, 4u);
  EXPECT_GT(r.digest, 0.0);
}

}  // namespace
}  // namespace micco
