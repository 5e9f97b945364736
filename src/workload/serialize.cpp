#include "workload/serialize.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>

#include "common/assert.hpp"

namespace micco {

namespace {

constexpr std::string_view kMagic = "micco-workload";
constexpr std::string_view kVersion = "v1";

/// The shortest text a record can take, counting the separator before it:
/// "\nvector 0" and a task line of twelve one-digit numbers. A declared
/// count above what the rest of the text can hold reserves no more than
/// that; the loop then fails on the missing records.
constexpr std::size_t kMinVectorBytes = 9;
constexpr std::size_t kMinTaskBytes = 29;

/// The separators `operator>>` skips in the classic locale.
bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// Whitespace-separated tokens of a workload text, read front to back.
class Tokens {
 public:
  explicit Tokens(std::string_view text) : text_(text) {}

  /// The next token; empty at the end of the text.
  std::string_view next() {
    skip_space();
    const std::size_t begin = pos_;
    while (pos_ < text_.size() && !is_space(text_[pos_])) ++pos_;
    return text_.substr(begin, pos_ - begin);
  }

  /// Reads the next token as an unsigned decimal that fits T. False for a
  /// missing token, a sign, a value out of T's range or trailing text.
  template <typename T>
  bool number(T* out) {
    skip_space();
    const char* const begin = text_.data() + pos_;
    const char* const end = text_.data() + text_.size();
    if (begin == end || !is_digit(*begin)) return false;
    const auto [ptr, ec] = std::from_chars(begin, end, *out);
    pos_ = static_cast<std::size_t>(ptr - text_.data());
    return ec == std::errc{} && at_boundary();
  }

  /// Reads the next token as a finite, unsigned decimal double (fraction
  /// and exponent allowed, as `operator>>` reads them). A value too small
  /// for a double reads as the nearest one, 0 included, as `operator>>`
  /// reads it.
  bool rate(double* out) {
    skip_space();
    const char* const begin = text_.data() + pos_;
    const char* const end = text_.data() + text_.size();
    if (begin == end || !(is_digit(*begin) || *begin == '.')) return false;
    auto [ptr, ec] = std::from_chars(begin, end, *out);
    if (ec == std::errc::result_out_of_range) {
      // from_chars refuses underflow and overflow alike; strtod rounds the
      // first to a denormal or 0 and the second to HUGE_VAL.
      *out = std::strtod(std::string(begin, ptr).c_str(), nullptr);
      ec = std::errc{};
    }
    pos_ = static_cast<std::size_t>(ptr - text_.data());
    return ec == std::errc{} && at_boundary() && std::isfinite(*out);
  }

  std::size_t remaining() const { return text_.size() - pos_; }

 private:
  void skip_space() {
    while (pos_ < text_.size() && is_space(text_[pos_])) ++pos_;
  }

  bool at_boundary() const {
    return pos_ == text_.size() || is_space(text_[pos_]);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

void write_desc(const TensorDesc& d, std::ostream& out) {
  out << d.id << " " << d.rank << " " << d.extent << " " << d.batch;
}

bool read_desc(Tokens& in, TensorDesc* d, std::string* error) {
  if (!(in.number(&d->id) && in.number(&d->rank) && in.number(&d->extent) &&
        in.number(&d->batch))) {
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

std::optional<WorkloadStream> load_stream_text(std::string_view text,
                                               std::string* error) {
  Tokens in(text);
  const std::string_view magic = in.next();
  const std::string_view version = in.next();
  if (version.empty() || magic != kMagic) {
    if (error) *error = "not a micco workload file";
    return std::nullopt;
  }
  if (version != kVersion) {
    if (error) {
      *error = "unsupported workload version: " + std::string(version);
    }
    return std::nullopt;
  }

  WorkloadStream stream;
  if (in.next() != "meta" || !in.number(&stream.vector_size) ||
      !in.number(&stream.tensor_extent) || !in.number(&stream.batch) ||
      !in.rate(&stream.repeated_rate)) {
    if (error) *error = "malformed meta line";
    return std::nullopt;
  }
  const std::string_view dist = in.next();
  if (dist == "gaussian") {
    stream.distribution = DataDistribution::kGaussian;
  } else if (dist == "uniform") {
    stream.distribution = DataDistribution::kUniform;
  } else if (dist.empty()) {
    if (error) *error = "malformed meta line";
    return std::nullopt;
  } else {
    if (error) *error = "unknown distribution: " + std::string(dist);
    return std::nullopt;
  }

  std::size_t vector_count = 0;
  if (in.next() != "vectors" || !in.number(&vector_count) ||
      vector_count > 10'000'000) {
    if (error) *error = "malformed vectors line";
    return std::nullopt;
  }
  stream.vectors.reserve(
      std::min(vector_count, in.remaining() / kMinVectorBytes));
  for (std::size_t v = 0; v < vector_count; ++v) {
    std::size_t task_count = 0;
    if (in.next() != "vector" || !in.number(&task_count) ||
        task_count > 100'000'000) {
      if (error) *error = "malformed vector header";
      return std::nullopt;
    }
    VectorWorkload vec;
    vec.tasks.reserve(std::min(task_count, in.remaining() / kMinTaskBytes));
    for (std::size_t t = 0; t < task_count; ++t) {
      if (in.next() != "task") {
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
  if (!stream.totals_fit()) {
    if (error) *error = "stream total FLOPs or distinct bytes exceed 2^64-1";
    return std::nullopt;
  }
  return stream;
}

std::optional<WorkloadStream> load_stream(std::istream& in,
                                          std::string* error) {
  std::string text;
  char chunk[16 * 1024];
  while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0) {
    text.append(chunk, static_cast<std::size_t>(in.gcount()));
  }
  return load_stream_text(text, error);
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
