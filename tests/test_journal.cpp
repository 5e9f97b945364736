// The durable job journal (service/journal.*): envelope encode/parse round
// trips, writer/reader agreement through a real file, and the two
// corruption sweeps behind the crash-safety contract — truncating the tail
// at *every* byte offset and flipping every byte — where the reader must
// stop cleanly at the first defect and never abort.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "service/journal.hpp"

namespace micco::service {
namespace {

std::string tmp_journal_path(const std::string& tag) {
  const std::string path = "/tmp/micco_journal_" + std::to_string(::getpid()) +
                           "_" + tag + ".ndjson";
  ::unlink(path.c_str());
  return path;
}

JournalRecord admitted_record(std::uint64_t job_id) {
  JournalRecord record;
  record.kind = RecordKind::kAdmitted;
  record.job_id = job_id;
  record.tenant = "alice";
  record.name = "job-" + std::to_string(job_id);
  record.trace_id = "t-abc-" + std::to_string(job_id);
  record.idem = "tok-" + std::to_string(job_id);
  record.workload_text = "micco-workload v1\nvectors 0\n";
  return record;
}

JournalRecord dispatched_record(std::uint64_t job_id) {
  JournalRecord record;
  record.kind = RecordKind::kDispatched;
  record.job_id = job_id;
  return record;
}

JournalRecord finished_record(std::uint64_t job_id) {
  JournalRecord record;
  record.kind = RecordKind::kFinished;
  record.job_id = job_id;
  record.state = "DONE";
  obs::JsonValue result = obs::JsonValue::object();
  result.set("makespan_s", 1.25);
  result.set("completed", true);
  record.result = std::move(result);
  record.has_result = true;
  return record;
}

/// A small three-record journal exercising every kind.
std::string three_record_text() {
  return encode_journal_line(admitted_record(1)) +
         encode_journal_line(dispatched_record(1)) +
         encode_journal_line(finished_record(1));
}

TEST(Journal, Fnv1a64HexIsStableAndSized) {
  // Reference value of the empty-input FNV-1a 64 offset basis.
  EXPECT_EQ(fnv1a64_hex(""), "cbf29ce484222325");
  EXPECT_EQ(fnv1a64_hex("micco").size(), 16u);
  EXPECT_NE(fnv1a64_hex("a"), fnv1a64_hex("b"));
}

TEST(Journal, EncodeParseRoundTripsEveryKind) {
  const JournalRecord admitted = admitted_record(7);
  const auto a = parse_journal_line(
      encode_journal_line(admitted).substr(0, encode_journal_line(admitted)
                                                  .size() - 1));
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->kind, RecordKind::kAdmitted);
  EXPECT_EQ(a->job_id, 7u);
  EXPECT_EQ(a->tenant, admitted.tenant);
  EXPECT_EQ(a->name, admitted.name);
  EXPECT_EQ(a->trace_id, admitted.trace_id);
  EXPECT_EQ(a->idem, admitted.idem);
  EXPECT_EQ(a->workload_text, admitted.workload_text);

  std::string line = encode_journal_line(dispatched_record(7));
  line.pop_back();  // parse takes the line without its '\n'
  const auto d = parse_journal_line(line);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->kind, RecordKind::kDispatched);
  EXPECT_EQ(d->job_id, 7u);

  line = encode_journal_line(finished_record(7));
  line.pop_back();
  const auto f = parse_journal_line(line);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->kind, RecordKind::kFinished);
  EXPECT_EQ(f->state, "DONE");
  ASSERT_TRUE(f->has_result);
  EXPECT_EQ(f->result.at("makespan_s").as_double(), 1.25);
  EXPECT_TRUE(f->result.at("completed").as_bool());
}

TEST(Journal, FinishedFailureCarriesErrorWithoutResult) {
  JournalRecord record;
  record.kind = RecordKind::kFinished;
  record.job_id = 3;
  record.state = "FAILED";
  record.error = "device lost";
  std::string line = encode_journal_line(record);
  line.pop_back();
  const auto parsed = parse_journal_line(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->state, "FAILED");
  EXPECT_EQ(parsed->error, "device lost");
  EXPECT_FALSE(parsed->has_result);
}

TEST(Journal, ResultDigestMismatchRejectsTheRecord) {
  // Tamper with the digest *and* recompute a valid envelope checksum, so
  // the failure exercised here is the end-to-end result digest, not the
  // line CRC.
  std::string line = encode_journal_line(finished_record(9));
  line.pop_back();
  const std::size_t digest_pos = line.find("\"digest\":\"");
  ASSERT_NE(digest_pos, std::string::npos);
  const std::size_t hex_pos = digest_pos + 10;
  line[hex_pos] = line[hex_pos] == '0' ? '1' : '0';
  const std::string rec = line.substr(38, line.size() - 38 - 1);
  line.replace(14, 16, fnv1a64_hex(rec));
  EXPECT_FALSE(parse_journal_line(line).has_value());
}

TEST(Journal, FsyncPolicyNamesRoundTrip) {
  for (const FsyncPolicy policy : {FsyncPolicy::kNever, FsyncPolicy::kAlways}) {
    const auto parsed = parse_fsync_policy(to_string(policy));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, policy);
  }
  EXPECT_FALSE(parse_fsync_policy("interval").has_value());
  EXPECT_FALSE(parse_fsync_policy("sometimes").has_value());
  EXPECT_FALSE(parse_fsync_policy("").has_value());
}

TEST(Journal, WriterAppendsReaderReadsBack) {
  const std::string path = tmp_journal_path("roundtrip");
  JournalConfig config;
  config.path = path;
  config.fsync = FsyncPolicy::kAlways;

  JournalWriter writer;
  std::string error;
  ASSERT_TRUE(writer.open(config, &error)) << error;
  ASSERT_TRUE(writer.is_open());
  ASSERT_TRUE(writer.append(admitted_record(1), &error)) << error;
  ASSERT_TRUE(writer.append(dispatched_record(1), &error)) << error;
  ASSERT_TRUE(writer.append(finished_record(1), &error)) << error;
  EXPECT_EQ(writer.records_appended(), 3u);
  writer.close();
  EXPECT_FALSE(writer.is_open());

  const JournalReadResult read = read_journal_file(path);
  EXPECT_FALSE(read.truncated) << read.note;
  ASSERT_EQ(read.records.size(), 3u);
  EXPECT_EQ(read.records[0].kind, RecordKind::kAdmitted);
  EXPECT_EQ(read.records[1].kind, RecordKind::kDispatched);
  EXPECT_EQ(read.records[2].kind, RecordKind::kFinished);
  EXPECT_EQ(read.records[0].idem, "tok-1");
  ::unlink(path.c_str());
}

TEST(Journal, EmptyPathDisablesJournaling) {
  JournalWriter writer;
  std::string error;
  ASSERT_TRUE(writer.open(JournalConfig{}, &error)) << error;
  EXPECT_FALSE(writer.is_open());
  // Appending to a disabled journal is a reported failure, not a crash.
  EXPECT_FALSE(writer.append(admitted_record(1), &error));
}

TEST(Journal, MissingFileReadsAsCleanEmptyJournal) {
  const JournalReadResult read =
      read_journal_file(tmp_journal_path("missing"));
  EXPECT_TRUE(read.records.empty());
  EXPECT_FALSE(read.truncated);
  EXPECT_EQ(read.bytes_consumed, 0u);
}

TEST(Journal, TailTruncationAtEveryByteOffsetNeverAborts) {
  const std::string text = three_record_text();
  // Line boundaries: prefix sums of line lengths.
  std::vector<std::size_t> boundaries{0};
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') boundaries.push_back(i + 1);
  }
  ASSERT_EQ(boundaries.size(), 4u);

  for (std::size_t cut = 0; cut <= text.size(); ++cut) {
    const JournalReadResult read =
        read_journal_text(std::string_view(text).substr(0, cut));
    // The intact prefix is exactly the complete lines before the cut.
    std::size_t whole_lines = 0;
    while (whole_lines + 1 < boundaries.size() &&
           boundaries[whole_lines + 1] <= cut) {
      ++whole_lines;
    }
    EXPECT_EQ(read.records.size(), whole_lines) << "cut at byte " << cut;
    EXPECT_EQ(read.bytes_consumed, boundaries[whole_lines])
        << "cut at byte " << cut;
    EXPECT_EQ(read.truncated, cut != boundaries[whole_lines])
        << "cut at byte " << cut;
    if (read.truncated) {
      EXPECT_FALSE(read.note.empty());
    }
  }
}

TEST(Journal, BitFlipAtEveryByteStopsAtTheCorruptRecord) {
  const std::string text = three_record_text();
  std::vector<std::size_t> line_of_byte(text.size());
  std::size_t line = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    line_of_byte[i] = line;
    if (text[i] == '\n') ++line;
  }

  for (std::size_t i = 0; i < text.size(); ++i) {
    std::string mutated = text;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x01);
    const JournalReadResult read = read_journal_text(mutated);
    // Everything before the damaged line is returned intact; nothing at or
    // after it is. (Flipping a '\n' merges two lines — both are dropped.)
    EXPECT_EQ(read.records.size(), line_of_byte[i]) << "flip at byte " << i;
    EXPECT_TRUE(read.truncated) << "flip at byte " << i;
    for (std::size_t r = 0; r < read.records.size(); ++r) {
      EXPECT_EQ(read.records[r].job_id, 1u);
    }
  }
}

TEST(Journal, TruncateDropsTornTailForReopen) {
  const std::string path = tmp_journal_path("torn");
  const std::string text = three_record_text();
  {
    std::ofstream out(path, std::ios::binary);
    // Whole journal plus half of a fourth record: a torn append.
    out << text
        << encode_journal_line(admitted_record(2)).substr(0, 25);
  }
  const JournalReadResult read = read_journal_file(path);
  EXPECT_TRUE(read.truncated);
  ASSERT_EQ(read.records.size(), 3u);
  EXPECT_EQ(read.bytes_consumed, text.size());

  std::string error;
  ASSERT_TRUE(truncate_journal_file(path, read.bytes_consumed, &error))
      << error;
  const JournalReadResult again = read_journal_file(path);
  EXPECT_FALSE(again.truncated) << again.note;
  EXPECT_EQ(again.records.size(), 3u);

  // The writer appends on cleanly after the truncation.
  JournalConfig config;
  config.path = path;
  config.fsync = FsyncPolicy::kNever;
  JournalWriter writer;
  ASSERT_TRUE(writer.open(config, &error)) << error;
  ASSERT_TRUE(writer.append(admitted_record(2), &error)) << error;
  writer.close();
  const JournalReadResult grown = read_journal_file(path);
  EXPECT_FALSE(grown.truncated) << grown.note;
  ASSERT_EQ(grown.records.size(), 4u);
  EXPECT_EQ(grown.records[3].job_id, 2u);
  ::unlink(path.c_str());
}

TEST(Journal, EachPolicySyncsAsNamed) {
  // Five appends: `always` fsyncs after each one, `never` not once.
  for (const FsyncPolicy policy : {FsyncPolicy::kAlways, FsyncPolicy::kNever}) {
    const std::string path = tmp_journal_path(to_string(policy));
    JournalConfig config;
    config.path = path;
    config.fsync = policy;

    obs::Histogram fsync_ms(obs::names::journal_fsync_bounds_ms());
    JournalWriter writer;
    writer.set_telemetry(nullptr, nullptr, &fsync_ms);
    std::string error;
    ASSERT_TRUE(writer.open(config, &error)) << error;
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(writer.append(dispatched_record(1), &error)) << error;
    }
    writer.close();
    EXPECT_EQ(fsync_ms.count(), policy == FsyncPolicy::kAlways ? 5u : 0u)
        << to_string(policy);
    ::unlink(path.c_str());
  }
}

}  // namespace
}  // namespace micco::service
