// Unit tests for the daemon wire protocol: frame encoding/splitting,
// request parsing, and the structured-error paths that keep external bytes
// from ever aborting the server.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "redstar/correlator.hpp"
#include "service/journal.hpp"
#include "service/protocol.hpp"
#include "workload/serialize.hpp"

namespace micco::service {
namespace {

// ------------------------------------------------------------- FrameReader

TEST(Protocol, ReassemblesFramesSplitAcrossFeeds) {
  FrameReader reader;
  reader.feed("{\"a\"");
  EXPECT_FALSE(reader.next_frame().has_value());
  reader.feed(":1}\n{\"b\":2}\n{\"c\"");
  ASSERT_EQ(reader.next_frame().value(), "{\"a\":1}");
  ASSERT_EQ(reader.next_frame().value(), "{\"b\":2}");
  EXPECT_FALSE(reader.next_frame().has_value());
  reader.feed(":3}\n");
  ASSERT_EQ(reader.next_frame().value(), "{\"c\":3}");
}

TEST(Protocol, ManyFramesInOneFeed) {
  FrameReader reader;
  std::string bytes;
  for (int i = 0; i < 50; ++i) {
    bytes += "{\"i\":" + std::to_string(i) + "}\n";
  }
  reader.feed(bytes);
  for (int i = 0; i < 50; ++i) {
    const auto frame = reader.next_frame();
    ASSERT_TRUE(frame.has_value()) << i;
    EXPECT_EQ(*frame, "{\"i\":" + std::to_string(i) + "}");
  }
  EXPECT_FALSE(reader.next_frame().has_value());
  EXPECT_EQ(reader.buffered_bytes(), 0u);
}

TEST(Protocol, OversizedFrameIsDroppedAndReportedOnce) {
  FrameReader reader(/*max_frame_bytes=*/16);
  reader.feed(std::string(100, 'x'));  // way past the limit, no newline yet
  bool oversized = false;
  EXPECT_FALSE(reader.next_frame(&oversized).has_value());
  EXPECT_TRUE(oversized);
  // Reported exactly once.
  oversized = false;
  EXPECT_FALSE(reader.next_frame(&oversized).has_value());
  EXPECT_FALSE(oversized);
  // The rest of the oversized line is discarded; the next line survives.
  reader.feed("yyy\n{\"ok\":1}\n");
  oversized = false;
  const auto frame = reader.next_frame(&oversized);
  EXPECT_FALSE(oversized);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(*frame, "{\"ok\":1}");
}

TEST(Protocol, OversizedDetectionWorksFedByteByByte) {
  FrameReader reader(/*max_frame_bytes=*/8);
  for (int i = 0; i < 64; ++i) reader.feed("z");
  reader.feed("\n");
  bool oversized = false;
  EXPECT_FALSE(reader.next_frame(&oversized).has_value());
  EXPECT_TRUE(oversized);
  // Buffer does not grow while discarding.
  EXPECT_LE(reader.buffered_bytes(), 8u);
}

TEST(Protocol, FrameAtExactLimitPasses) {
  // The limit counts payload bytes (the '\n' terminator is free): exactly
  // max_frame_bytes passes, one more byte trips the oversize path.
  FrameReader reader(/*max_frame_bytes=*/8);
  reader.feed("12345678\n");
  bool oversized = false;
  const auto frame = reader.next_frame(&oversized);
  EXPECT_FALSE(oversized);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(*frame, "12345678");

  reader.feed("123456789\n");
  EXPECT_FALSE(reader.next_frame(&oversized).has_value());
  EXPECT_TRUE(oversized);
}

TEST(Protocol, ChunkedFeedsYieldTheSameFramesAsOneFeed) {
  // Frames, an empty line and an oversized line, fed whole and then split
  // at every byte offset into two feeds and one byte at a time: each way
  // returns the same frames and reports the oversize exactly once.
  const std::string bytes =
      "{\"a\":1}\n\n" + std::string(40, 'x') + "\n{\"b\":\"two\"}\n{\"c\":3}\n";
  const auto drain = [](FrameReader& reader, int* oversized_reports) {
    std::vector<std::string> frames;
    for (;;) {
      bool oversized = false;
      const auto frame = reader.next_frame(&oversized);
      *oversized_reports += oversized ? 1 : 0;
      if (!frame.has_value()) return frames;
      frames.push_back(*frame);
    }
  };
  const std::vector<std::string> want = {"{\"a\":1}", "", "{\"b\":\"two\"}",
                                         "{\"c\":3}"};
  for (std::size_t split = 0; split <= bytes.size(); ++split) {
    FrameReader reader(/*max_frame_bytes=*/16);
    reader.feed(std::string_view(bytes).substr(0, split));
    int reports = 0;
    std::vector<std::string> frames = drain(reader, &reports);
    reader.feed(std::string_view(bytes).substr(split));
    for (std::string& frame : drain(reader, &reports)) {
      frames.push_back(std::move(frame));
    }
    EXPECT_EQ(frames, want) << "split at " << split;
    EXPECT_EQ(reports, 1) << "split at " << split;
    EXPECT_EQ(reader.buffered_bytes(), 0u);
  }
  FrameReader reader(/*max_frame_bytes=*/16);
  int reports = 0;
  std::vector<std::string> frames;
  for (const char c : bytes) {
    reader.feed(std::string_view(&c, 1));
    for (std::string& frame : drain(reader, &reports)) {
      frames.push_back(std::move(frame));
    }
  }
  EXPECT_EQ(frames, want);
  EXPECT_EQ(reports, 1);
}

// ------------------------------------------------------- encode / parse

TEST(Protocol, A1RhopiSubmitFrameIsPinned) {
  // Length and FNV-1a of perfbench's a1_rhopi submit frame as the
  // per-character writer encoded it: the bytes on the wire did not move.
  // The frame holds exactly one raw newline, its terminator.
  std::ostringstream text;
  save_stream(redstar::build_workload(redstar::make_a1_rhopi()).stream, text);
  ASSERT_EQ(text.str().size(), 18531u);
  const std::string frame = encode_frame(make_submit_request(
      "driver0", "a1_rhopi", text.str(), "0123456789abcdef",
      "0123456789abcdef-1"));
  EXPECT_EQ(frame.size(), 19074u);
  EXPECT_EQ(fnv1a64_hex(frame), "b42103d0e60bd9c7");
  EXPECT_EQ(frame.find('\n'), frame.size() - 1);

  const auto doc = obs::parse_json(frame.substr(0, frame.size() - 1));
  ASSERT_TRUE(doc.has_value());
  obs::JsonValue error_reply;
  const auto request = parse_request(*doc, &error_reply);
  ASSERT_TRUE(request.has_value()) << error_reply.dump();
  EXPECT_EQ(request->workload_text, text.str());
}


TEST(Protocol, EncodeFrameIsSingleLine) {
  obs::JsonValue doc =
      make_submit_request("ten\nant", "job\x01name", "line1\nline2\n");
  const std::string frame = encode_frame(doc);
  ASSERT_FALSE(frame.empty());
  EXPECT_EQ(frame.back(), '\n');
  // The only newline is the terminator, even with hostile embedded bytes.
  EXPECT_EQ(frame.find('\n'), frame.size() - 1);

  // And it parses back to the same request.
  FrameReader reader;
  reader.feed(frame);
  const auto line = reader.next_frame();
  ASSERT_TRUE(line.has_value());
  const auto parsed = obs::parse_json(*line);
  ASSERT_TRUE(parsed.has_value());
  obs::JsonValue error_reply;
  const auto request = parse_request(*parsed, &error_reply);
  ASSERT_TRUE(request.has_value()) << error_reply.dump();
  EXPECT_EQ(request->tenant, "ten\nant");
  EXPECT_EQ(request->job_name, "job\x01name");
  EXPECT_EQ(request->workload_text, "line1\nline2\n");
}

TEST(Protocol, ParseRejectsUnknownTypeWithStructuredError) {
  obs::JsonValue doc = obs::JsonValue::object();
  doc.set("v", kProtocolVersion);
  doc.set("type", "frobnicate");
  obs::JsonValue error_reply;
  EXPECT_FALSE(parse_request(doc, &error_reply).has_value());
  EXPECT_FALSE(error_reply.at("ok").as_bool());
  EXPECT_EQ(error_reply.at("code").as_string(), error_code::kUnknownType);
}

TEST(Protocol, ParseRejectsWrongVersion) {
  obs::JsonValue doc = obs::JsonValue::object();
  doc.set("v", kProtocolVersion + 1);
  doc.set("type", "stats");
  obs::JsonValue error_reply;
  EXPECT_FALSE(parse_request(doc, &error_reply).has_value());
  EXPECT_EQ(error_reply.at("code").as_string(), error_code::kBadVersion);
}

TEST(Protocol, ParseRejectsMissingFields) {
  // submit without a workload string.
  obs::JsonValue submit = obs::JsonValue::object();
  submit.set("v", kProtocolVersion);
  submit.set("type", "submit");
  obs::JsonValue error_reply;
  EXPECT_FALSE(parse_request(submit, &error_reply).has_value());
  EXPECT_EQ(error_reply.at("code").as_string(), error_code::kBadRequest);

  // status without a job id.
  obs::JsonValue status = obs::JsonValue::object();
  status.set("v", kProtocolVersion);
  status.set("type", "status");
  EXPECT_FALSE(parse_request(status, &error_reply).has_value());
  EXPECT_EQ(error_reply.at("code").as_string(), error_code::kBadRequest);

  // status with a negative job id.
  status.set("job_id", -3);
  EXPECT_FALSE(parse_request(status, &error_reply).has_value());
  EXPECT_EQ(error_reply.at("code").as_string(), error_code::kBadRequest);
}

TEST(Protocol, ParseDefaultsSubmitTenant) {
  obs::JsonValue doc = obs::JsonValue::object();
  doc.set("v", kProtocolVersion);
  doc.set("type", "submit");
  doc.set("workload", "micco-workload v1\n");
  obs::JsonValue error_reply;
  const auto request = parse_request(doc, &error_reply);
  ASSERT_TRUE(request.has_value()) << error_reply.dump();
  EXPECT_EQ(request->tenant, "default");
}

TEST(Protocol, MessageTypeNamesRoundTrip) {
  for (const MessageType type :
       {MessageType::kSubmit, MessageType::kStatus, MessageType::kDrain,
        MessageType::kShutdown, MessageType::kStats, MessageType::kMetrics}) {
    const auto parsed = parse_message_type(to_string(type));
    ASSERT_TRUE(parsed.has_value()) << to_string(type);
    EXPECT_EQ(*parsed, type);
  }
  EXPECT_FALSE(parse_message_type("nope").has_value());
  // `status` carries a finished job's result; there is no `result` verb.
  EXPECT_FALSE(parse_message_type("result").has_value());
}

TEST(Protocol, MetricsRequestRoundTrips) {
  const obs::JsonValue doc = make_plain_request(MessageType::kMetrics);
  obs::JsonValue error_reply;
  const auto request = parse_request(doc, &error_reply);
  ASSERT_TRUE(request.has_value()) << error_reply.dump();
  EXPECT_EQ(request->type, MessageType::kMetrics);
}

TEST(Protocol, SubmitCarriesOptionalTraceId) {
  const obs::JsonValue doc =
      make_submit_request("alice", "job", "micco-workload v1\n", "t-abc-0");
  EXPECT_EQ(doc.at("trace").as_string(), "t-abc-0");
  obs::JsonValue error_reply;
  const auto request = parse_request(doc, &error_reply);
  ASSERT_TRUE(request.has_value()) << error_reply.dump();
  EXPECT_EQ(request->trace_id, "t-abc-0");
}

TEST(Protocol, SubmitWithoutTraceParsesToEmptyId) {
  const obs::JsonValue doc =
      make_submit_request("alice", "job", "micco-workload v1\n");
  EXPECT_EQ(doc.find("trace"), nullptr);  // omitted, not empty
  obs::JsonValue error_reply;
  const auto request = parse_request(doc, &error_reply);
  ASSERT_TRUE(request.has_value()) << error_reply.dump();
  EXPECT_TRUE(request->trace_id.empty());
}

TEST(Protocol, SubmitRejectsNonStringTrace) {
  obs::JsonValue doc =
      make_submit_request("alice", "job", "micco-workload v1\n");
  doc.set("trace", 42);
  obs::JsonValue error_reply;
  EXPECT_FALSE(parse_request(doc, &error_reply).has_value());
  EXPECT_EQ(error_reply.at("code").as_string(), "bad_request");
}

}  // namespace
}  // namespace micco::service
