#include "workload/serialize.hpp"

#include <fstream>
#include <iomanip>
#include <limits>
#include <ostream>

#include "common/assert.hpp"

namespace micco {

namespace {

constexpr const char* kMagic = "micco-workload";
constexpr const char* kVersion = "v1";

void write_desc(const TensorDesc& d, std::ostream& out) {
  out << d.id << " " << d.rank << " " << d.extent << " " << d.batch;
}

bool read_desc(std::istream& in, TensorDesc* d, std::string* error) {
  if (!(in >> d->id >> d->rank >> d->extent >> d->batch)) {
    if (error) *error = "truncated tensor descriptor";
    return false;
  }
  if ((d->rank != 2 && d->rank != 3) || d->extent < 1 || d->batch < 1) {
    if (error) *error = "invalid tensor descriptor";
    return false;
  }
  if (!d->checked_bytes().has_value()) {
    if (error) *error = "tensor payload exceeds 2^64-1 bytes";
    return false;
  }
  return true;
}

}  // namespace

void save_stream(const WorkloadStream& stream, std::ostream& out) {
  out << kMagic << " " << kVersion << "\n";
  out << "meta " << stream.vector_size << " " << stream.tensor_extent << " "
      << stream.batch << " "
      << std::setprecision(std::numeric_limits<double>::max_digits10)
      << stream.repeated_rate << " "
      << (stream.distribution == DataDistribution::kGaussian ? "gaussian"
                                                             : "uniform")
      << "\n";
  out << "vectors " << stream.vectors.size() << "\n";
  for (const VectorWorkload& vec : stream.vectors) {
    out << "vector " << vec.tasks.size() << "\n";
    for (const ContractionTask& t : vec.tasks) {
      out << "task ";
      write_desc(t.a, out);
      out << " ";
      write_desc(t.b, out);
      out << " ";
      write_desc(t.out, out);
      out << "\n";
    }
  }
}

std::optional<WorkloadStream> load_stream(std::istream& in,
                                          std::string* error) {
  std::string magic, version;
  if (!(in >> magic >> version) || magic != kMagic) {
    if (error) *error = "not a micco workload file";
    return std::nullopt;
  }
  if (version != kVersion) {
    if (error) *error = "unsupported workload version: " + version;
    return std::nullopt;
  }

  WorkloadStream stream;
  std::string tag, dist;
  if (!(in >> tag >> stream.vector_size >> stream.tensor_extent >>
        stream.batch >> stream.repeated_rate >> dist) ||
      tag != "meta") {
    if (error) *error = "malformed meta line";
    return std::nullopt;
  }
  if (dist == "gaussian") {
    stream.distribution = DataDistribution::kGaussian;
  } else if (dist == "uniform") {
    stream.distribution = DataDistribution::kUniform;
  } else {
    if (error) *error = "unknown distribution: " + dist;
    return std::nullopt;
  }

  std::size_t vector_count = 0;
  if (!(in >> tag >> vector_count) || tag != "vectors" ||
      vector_count > 10'000'000) {
    if (error) *error = "malformed vectors line";
    return std::nullopt;
  }
  stream.vectors.reserve(vector_count);
  for (std::size_t v = 0; v < vector_count; ++v) {
    std::size_t task_count = 0;
    if (!(in >> tag >> task_count) || tag != "vector" ||
        task_count > 100'000'000) {
      if (error) *error = "malformed vector header";
      return std::nullopt;
    }
    VectorWorkload vec;
    vec.tasks.reserve(task_count);
    for (std::size_t t = 0; t < task_count; ++t) {
      if (!(in >> tag) || tag != "task") {
        if (error) *error = "malformed task line";
        return std::nullopt;
      }
      ContractionTask task;
      if (!read_desc(in, &task.a, error) || !read_desc(in, &task.b, error) ||
          !read_desc(in, &task.out, error)) {
        return std::nullopt;
      }
      if (task.a.extent != task.b.extent || task.a.batch != task.b.batch) {
        if (error) *error = "operands are not contractable";
        return std::nullopt;
      }
      if (!task.counts_fit()) {
        if (error) *error = "task FLOPs or kernel bytes exceed 2^64-1";
        return std::nullopt;
      }
      vec.tasks.push_back(task);
    }
    stream.vectors.push_back(std::move(vec));
  }
  return stream;
}

void save_stream_file(const WorkloadStream& stream, const std::string& path) {
  std::ofstream out(path);
  MICCO_EXPECTS_MSG(out.good(), "cannot open workload file for writing");
  save_stream(stream, out);
  out.flush();
  MICCO_EXPECTS_MSG(out.good(), "workload file write failed");
}

std::optional<WorkloadStream> load_stream_file(const std::string& path,
                                               std::string* error) {
  std::ifstream in(path);
  if (!in.good()) {
    if (error) *error = "cannot open workload file: " + path;
    return std::nullopt;
  }
  return load_stream(in, error);
}

}  // namespace micco
