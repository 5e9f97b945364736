// The workload text reader on hostile input: a verdict table of the inputs
// whose verdict is easy to get wrong (signs, trailing text, non-finite
// rates, the count limits), and a seeded mutation corpus over three real
// texts run through the reader and then validate_stream_structure, as
// every caller runs them. Every mutant must be answered without an abort;
// one the reader refuses must carry a reader message, one it loads must
// survive save_stream -> reader -> save_stream byte for byte, and one the
// validator refuses must carry a validator message.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/verify.hpp"
#include "redstar/correlator.hpp"
#include "workload/serialize.hpp"
#include "workload/synthetic.hpp"

namespace micco {
namespace {

std::string text_of(const WorkloadStream& stream) {
  std::ostringstream out;
  save_stream(stream, out);
  return out.str();
}

/// One-task stream whose lines the table below edits.
std::string one_task(const std::string& meta, const std::string& task,
                     const std::string& counts = "vectors 1\nvector 1\n") {
  return "micco-workload v1\nmeta " + meta + "\n" + counts + "task " + task +
         "\n";
}

constexpr const char* kMeta = "2 4 1 0 uniform";
constexpr const char* kTask = "0 2 4 1 1 2 4 1 2 2 4 1";

TEST(WorkloadReader, VerdictTable) {
  struct Case {
    std::string text;
    const char* error;  ///< "" when the text loads
  };
  const Case cases[] = {
      // Signs: an unsigned `>>` wraps -1 to the id 2^64 - 1 and reads +2
      // as 2. Every number is an unsigned decimal.
      {one_task(kMeta, "0 2 4 1 1 2 4 1 -1 2 4 1"),
       "truncated tensor descriptor"},
      {one_task(kMeta, "-1 2 4 1 1 2 4 1 2 2 4 1"),
       "truncated tensor descriptor"},
      {one_task(kMeta, "0 +2 4 1 1 2 4 1 2 2 4 1"),
       "truncated tensor descriptor"},
      {one_task(kMeta, "0 2 -4 1 1 2 4 1 2 2 4 1"),
       "truncated tensor descriptor"},
      {one_task("-2 4 1 0 uniform", kTask), "malformed meta line"},
      {one_task("2 4 1 -0.5 uniform", kTask), "malformed meta line"},
      {one_task("2 4 1 +0.5 uniform", kTask), "malformed meta line"},
      {one_task(kMeta, kTask, "vectors +1\nvector 1\n"),
       "malformed vectors line"},
      {one_task(kMeta, kTask, "vectors 1\nvector -1\n"),
       "malformed vector header"},
      // Trailing non-digits: `>>` stops before them, so `1x` as the last
      // token would read as 1.
      {one_task(kMeta, "0 2 4 1 1 2 4 1 2 2 4 1x"),
       "truncated tensor descriptor"},
      {one_task(kMeta, "0 2 4 1x 1 2 4 1 2 2 4 1"),
       "truncated tensor descriptor"},
      {one_task(kMeta, "0 2 4 0.5 1 2 4 1 2 2 4 1"),
       "truncated tensor descriptor"},
      {one_task("2 4 1 0.5uniform", kTask), "malformed meta line"},
      {one_task("2 4 1.5 0 uniform", kTask), "malformed meta line"},
      // Non-finite and out-of-range rates stay rejected.
      {one_task("2 4 1 nan uniform", kTask), "malformed meta line"},
      {one_task("2 4 1 inf uniform", kTask), "malformed meta line"},
      {one_task("2 4 1 1e999 uniform", kTask), "malformed meta line"},
      // Ids and counts past 64 bits, and the count limits.
      {one_task(kMeta, "18446744073709551616 2 4 1 1 2 4 1 2 2 4 1"),
       "truncated tensor descriptor"},
      {one_task(kMeta, kTask, "vectors 10000001\nvector 1\n"),
       "malformed vectors line"},
      {one_task(kMeta, kTask, "vectors 1\nvector 100000001\n"),
       "malformed vector header"},
      {one_task(kMeta, kTask, "vectors 10000000\nvector 1\n"),
       "malformed vector header"},
      {one_task(kMeta, kTask, "vectors 1\nvector 100000000\n"),
       "malformed task line"},
      // Accepted: the largest id (validation rejects it), rates with a
      // fraction or exponent, a rate that underflows to 0, any whitespace
      // between tokens, and text after the last task.
      {one_task(kMeta, "0 2 4 1 1 2 4 1 18446744073709551615 2 4 1"), ""},
      {one_task("2 4 1 .5 uniform", kTask), ""},
      {one_task("2 4 1 5. uniform", kTask), ""},
      {one_task("2 4 1 1E+3 gaussian", kTask), ""},
      {one_task("2 4 1 1e-999 uniform", kTask), ""},
      {one_task(kMeta, "0\t2\v4\f1\r1 2 4 1  2 2 4 1"), ""},
      {one_task(kMeta, kTask) + "task -1 garbage", ""},
  };
  for (const Case& c : cases) {
    std::string error;
    const std::optional<WorkloadStream> loaded =
        load_stream_text(c.text, &error);
    if (*c.error == '\0') {
      EXPECT_TRUE(loaded.has_value()) << c.text << error;
    } else {
      EXPECT_FALSE(loaded.has_value()) << c.text;
      EXPECT_EQ(error, c.error) << c.text;
    }
  }

  std::string error;
  const auto widest = load_stream_text(
      one_task(kMeta, "0 2 4 1 1 2 4 1 18446744073709551615 2 4 1"), &error);
  ASSERT_TRUE(widest.has_value()) << error;
  EXPECT_FALSE(widest->vectors[0].tasks[0].out.valid());
  const auto tiny = load_stream_text(one_task("2 4 1 1e-999 uniform", kTask));
  ASSERT_TRUE(tiny.has_value());
  EXPECT_EQ(tiny->repeated_rate, 0.0);
}

TEST(WorkloadReader, StreamOverloadReadsWhatTheTextReaderReads) {
  const std::string text = text_of(redstar::build_workload(
                                       redstar::make_a1_rhopi()).stream);
  std::istringstream in(text);
  const std::optional<WorkloadStream> from_stream = load_stream(in);
  const std::optional<WorkloadStream> from_text = load_stream_text(text);
  ASSERT_TRUE(from_stream.has_value());
  ASSERT_TRUE(from_text.has_value());
  EXPECT_EQ(text_of(*from_stream), text);
  EXPECT_EQ(text_of(*from_text), text);
}

/// [begin, end) of each whitespace-separated token.
std::vector<std::pair<std::size_t, std::size_t>> token_spans(
    const std::string& text) {
  const auto space = [](char c) {
    return c == ' ' || (c >= '\t' && c <= '\r');
  };
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && space(text[i])) ++i;
    const std::size_t begin = i;
    while (i < text.size() && !space(text[i])) ++i;
    if (i > begin) spans.emplace_back(begin, i);
  }
  return spans;
}

/// `count` seeded mutants of `base`, cycling through six kinds: a bit flip,
/// a deletion of 1-3 bytes, a duplicated token, an inserted `-`, `+`, `x`
/// or `nan`, a token replaced by a hostile number, and a separator swapped
/// for other whitespace.
std::vector<std::string> mutants(const std::string& base, std::uint64_t seed,
                                 int count) {
  static const char* const kInserts[] = {"-", "+", "x", "nan"};
  static const char* const kNumbers[] = {
      "-1",  "+2",  "18446744073709551615", "99999999999999999999", "1x",
      "nan", "inf", "1e999",                "1e-999",               "0.5"};
  static const char kSpaces[] = {' ', '\t', '\n', '\v', '\f', '\r'};
  const auto spans = token_spans(base);
  Pcg32 rng(seed);
  std::vector<std::string> out;
  for (int i = 0; i < count; ++i) {
    std::string m = base;
    const std::size_t pos =
        rng.uniform_below(static_cast<std::uint32_t>(m.size()));
    const auto [begin, end] =
        spans[rng.uniform_below(static_cast<std::uint32_t>(spans.size()))];
    switch (i % 6) {
      case 0:
        m[pos] = static_cast<char>(m[pos] ^ (1 << rng.uniform_below(8)));
        break;
      case 1: m.erase(pos, 1 + rng.uniform_below(3)); break;
      case 2:
        m.insert(end, base, begin, end - begin);
        m.insert(end, 1, ' ');
        break;
      case 3:
        m.insert(rng.uniform_below(2) != 0 ? begin : end,
                 kInserts[rng.uniform_below(4)]);
        break;
      case 4:
        m.replace(begin, end - begin, kNumbers[rng.uniform_below(10)]);
        break;
      default:
        if (end < m.size()) m[end] = kSpaces[rng.uniform_below(6)];
        m.insert(begin, 1, kSpaces[rng.uniform_below(6)]);
    }
    out.push_back(std::move(m));
  }
  return out;
}

bool is_reader_message(const std::string& error) {
  for (const char* message :
       {"not a micco workload file", "malformed meta line",
        "malformed vectors line", "malformed vector header",
        "malformed task line", "truncated tensor descriptor"}) {
    if (error == message) return true;
  }
  for (const std::string prefix :
       {"unsupported workload version: ", "unknown distribution: "}) {
    if (error.compare(0, prefix.size(), prefix) == 0) return true;
  }
  return false;
}

bool is_validator_message(const std::string& problem) {
  for (const char* message :
       {"invalid operand descriptor", "invalid output descriptor",
        "invalid tensor descriptor", "tensor payload exceeds 2^64-1 bytes",
        "operands are not contractable",
        "output rank does not match the contraction rules",
        "task FLOPs or kernel bytes exceed 2^64-1",
        "stream total FLOPs or distinct bytes exceed 2^64-1"}) {
    if (problem == message) return true;
  }
  const auto has = [&](const std::string& part) {
    return problem.find(part) != std::string::npos;
  };
  return (problem.starts_with("output tensor ") && has(" produced twice")) ||
         (problem.starts_with("stage ") && has(" consumes tensor ") &&
          has(" before the stage producing it has completed"));
}

TEST(WorkloadReader, MutationCorpusLoadsOrRejectsCleanly) {
  SyntheticConfig small;
  small.num_vectors = 2;
  small.vector_size = 8;
  small.tensor_extent = 16;
  small.batch = 2;
  small.repeated_rate = 0.5;
  small.seed = 7;
  const std::string small_text = text_of(generate_synthetic(small));

  std::vector<std::string> corpus;
  std::uint64_t seed = 1000;
  for (const std::string& base :
       {text_of(redstar::build_workload(redstar::make_a1_rhopi()).stream),
        text_of(redstar::build_workload(redstar::make_f0d4()).stream),
        small_text}) {
    for (std::string& m : mutants(base, seed++, 600)) {
      corpus.push_back(std::move(m));
    }
  }
  for (const auto& [begin, end] : token_spans(small_text)) {
    corpus.push_back(small_text.substr(0, begin));
    corpus.push_back(small_text.substr(0, end));
  }
  ASSERT_GE(corpus.size(), 2000u);

  std::size_t loaded_count = 0;
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    std::string error;
    const std::optional<WorkloadStream> loaded =
        load_stream_text(corpus[i], &error);
    if (!loaded.has_value()) {
      EXPECT_TRUE(is_reader_message(error)) << "mutant " << i << ": " << error;
      continue;
    }
    ++loaded_count;
    const std::string saved = text_of(*loaded);
    const std::optional<WorkloadStream> reloaded =
        load_stream_text(saved, &error);
    ASSERT_TRUE(reloaded.has_value()) << "mutant " << i << ": " << error;
    EXPECT_EQ(text_of(*reloaded), saved) << "mutant " << i;
    const std::string problem = validate_stream_structure(*loaded);
    if (!problem.empty()) {
      EXPECT_TRUE(is_validator_message(problem))
          << "mutant " << i << ": " << problem;
      continue;
    }
    ++accepted;
  }
  // Every verdict occurs often enough to mean something.
  EXPECT_GT(accepted, corpus.size() / 10);
  EXPECT_GT(loaded_count - accepted, corpus.size() / 100);
  EXPECT_LT(loaded_count, corpus.size() * 9 / 10);
}

}  // namespace
}  // namespace micco
