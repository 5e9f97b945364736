// Protocol fuzzing (deterministic, seeded): the NDJSON framing and request
// parsing layers, and a live daemon on a Unix socket, are fed mutated
// byte streams — random garbage lines, bit-flipped valid frames, truncated
// frames, oversized lines and interleaved partial writes — and every field
// of every valid frame swapped for a value of another JSON kind. The contract
// under fuzz: every complete frame gets a structured JSON reply ({"ok":
// false, "code": ...} for defects), the connection survives whatever can be
// survived, and nothing ever aborts. Runs under ASan in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "serve_harness.hpp"
#include "service/protocol.hpp"

namespace micco::service {
namespace {

using namespace harness;

/// A pool of request frames to mutate, among them the `result` frame of a
/// verb the daemon no longer has (answered unknown_type).
std::vector<std::string> valid_frames() {
  return {
      encode_frame(make_submit_request("alice", "j", workload_text(3),
                                       "t-1-0", "tok")),
      encode_frame(make_job_request(MessageType::kStatus, 1)),
      R"({"v":1,"type":"result","job_id":2})" "\n",
      encode_frame(make_plain_request(MessageType::kStats)),
      encode_frame(make_plain_request(MessageType::kMetrics)),
  };
}

/// One random line of printable-ish garbage (no '\n', so it is one frame).
std::string garbage_line(Pcg32& rng) {
  const std::size_t len = 1 + rng.uniform_below(200);
  std::string line;
  line.reserve(len + 1);
  for (std::size_t i = 0; i < len; ++i) {
    char c = static_cast<char>(rng.uniform_below(256));
    if (c == '\n') c = ' ';
    line += c;
  }
  line += '\n';
  return line;
}

// -- offline: FrameReader + parse_request -----------------------------------

TEST(ProtocolFuzz, ParserNeverAbortsOnMutatedFrames) {
  Pcg32 rng(0xF00D);
  const std::vector<std::string> frames = valid_frames();
  for (int round = 0; round < 500; ++round) {
    std::string frame = frames[rng.uniform_below(
        static_cast<std::uint32_t>(frames.size()))];
    switch (rng.uniform_below(3)) {
      case 0: {  // bit flip
        const std::size_t i = rng.uniform_below(
            static_cast<std::uint32_t>(frame.size()));
        frame[i] = static_cast<char>(
            static_cast<unsigned char>(frame[i]) ^
            (1u << rng.uniform_below(8u)));
        break;
      }
      case 1:  // truncate (and re-terminate, so it is still one line)
        frame = frame.substr(
            0, rng.uniform_below(static_cast<std::uint32_t>(frame.size())));
        frame += '\n';
        break;
      default:  // raw garbage
        frame = garbage_line(rng);
        break;
    }

    FrameReader reader;
    // Feed in random-sized chunks — partial delivery must not change the
    // outcome.
    std::size_t fed = 0;
    while (fed < frame.size()) {
      const std::size_t n =
          1 + rng.uniform_below(static_cast<std::uint32_t>(frame.size()));
      const std::size_t take = std::min(n, frame.size() - fed);
      reader.feed(std::string_view(frame).substr(fed, take));
      fed += take;
    }
    while (const std::optional<std::string> line = reader.next_frame()) {
      std::string parse_error;
      const std::optional<obs::JsonValue> doc =
          obs::parse_json(*line, &parse_error);
      if (!doc.has_value()) continue;  // the daemon's bad_frame reply path
      obs::JsonValue error_reply;
      const std::optional<Request> request = parse_request(*doc, &error_reply);
      if (!request.has_value()) {
        // The defect surfaced as a structured reply, never an abort.
        ASSERT_FALSE(error_reply.at("ok").as_bool());
        ASSERT_FALSE(error_reply.at("code").as_string().empty());
      }
    }
  }
}

TEST(ProtocolFuzz, ParserNeverAbortsOnSwappedFieldKinds) {
  // No bit flip turns 1 into 1.5: each field of each valid frame in turn
  // takes each of these values, every number kind the reader produces
  // (int64, uint64, double) among them.
  const std::vector<std::string> values = {
      "1.5", "1e0", "18446744073709551615", "-1", R"("x")",
      "true", "null", "[]", "{}"};
  int swaps = 0;
  for (const std::string& frame : valid_frames()) {
    const std::optional<obs::JsonValue> doc = obs::parse_json(frame);
    ASSERT_TRUE(doc.has_value()) << frame;
    for (const obs::JsonValue::Member& field : doc->members()) {
      for (const std::string& text : values) {
        obs::JsonValue mutated = *doc;
        mutated.set(field.first, *obs::parse_json(text));
        obs::JsonValue error_reply;
        const std::optional<Request> request =
            parse_request(mutated, &error_reply);
        if (!request.has_value()) {
          ASSERT_FALSE(error_reply.at("ok").as_bool())
              << field.first << "=" << text;
          ASSERT_FALSE(error_reply.at("code").as_string().empty());
        }
        ++swaps;
      }
    }
  }
  EXPECT_GT(swaps, 0);
}

TEST(ProtocolFuzz, OversizedLinesAreDroppedNotBuffered) {
  FrameReader reader(64);
  Pcg32 rng(0xBEEF);
  std::string huge(10000, 'x');
  for (char& c : huge) c = static_cast<char>('a' + rng.uniform_below(26));
  reader.feed(huge);
  reader.feed("\n");
  reader.feed(encode_frame(make_plain_request(MessageType::kStats)));

  bool oversized = false;
  const std::optional<std::string> first = reader.next_frame(&oversized);
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(oversized);  // the huge line was dropped and flagged
  // The frame after the dropped one is intact.
  std::string parse_error;
  const std::optional<obs::JsonValue> doc =
      obs::parse_json(*first, &parse_error);
  ASSERT_TRUE(doc.has_value()) << parse_error;
  obs::JsonValue error_reply;
  const std::optional<Request> request = parse_request(*doc, &error_reply);
  ASSERT_TRUE(request.has_value()) << error_reply.dump();
  EXPECT_EQ(request->type, MessageType::kStats);
}

// -- online: a live daemon on the socket ------------------------------------

TEST(ProtocolFuzz, DaemonAnswersGarbageWithStructuredErrors) {
  const std::string socket = test_socket_path("garbage");
  ServerConfig config;
  config.socket_path = socket;
  config.cluster.num_devices = 2;
  ServeSession session(std::move(config));
  std::string error;
  ASSERT_TRUE(session.begin(&error)) << error;

  Pcg32 rng(0xABCD);
  Client client;
  ASSERT_TRUE(client.connect(socket, &error)) << error;
  for (int round = 0; round < 50; ++round) {
    ASSERT_TRUE(client.send_raw(garbage_line(rng), &error)) << error;
    const std::optional<obs::JsonValue> reply = client.read_reply(&error);
    ASSERT_TRUE(reply.has_value()) << error;
    ASSERT_NE(reply->find("ok"), nullptr) << reply->dump();
    EXPECT_FALSE(reply->at("ok").as_bool()) << reply->dump();
    EXPECT_FALSE(reply->at("code").as_string().empty());
  }
  // The connection is still in lockstep: a valid request works.
  const auto stats = client.stats(&error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_TRUE(stats->at("ok").as_bool()) << stats->dump();

  client.close();
  session.server().request_drain();
  EXPECT_EQ(session.join(), 0);
}

TEST(ProtocolFuzz, DaemonSurvivesBitFlippedAndTruncatedFrames) {
  const std::string socket = test_socket_path("flips");
  ServerConfig config;
  config.socket_path = socket;
  config.cluster.num_devices = 2;
  ServeSession session(std::move(config));
  std::string error;
  ASSERT_TRUE(session.begin(&error)) << error;

  Pcg32 rng(0x5EED);
  const std::vector<std::string> frames = valid_frames();
  for (int round = 0; round < 60; ++round) {
    std::string frame = frames[rng.uniform_below(
        static_cast<std::uint32_t>(frames.size()))];
    const std::size_t i =
        rng.uniform_below(static_cast<std::uint32_t>(frame.size() - 1));
    frame[i] = static_cast<char>(static_cast<unsigned char>(frame[i]) ^
                                 (1u << rng.uniform_below(8u)));
    if (frame.back() != '\n') frame += '\n';

    Client client;
    ASSERT_TRUE(client.connect(socket, &error)) << error;
    ASSERT_TRUE(client.send_raw(frame, &error)) << error;
    // Contract: one structured JSON reply per frame, whatever the bytes.
    // (A flip inside the workload payload may still be a valid submit —
    // "ok": true is an acceptable outcome; dying is not.)
    const std::optional<obs::JsonValue> reply = client.read_reply(&error);
    ASSERT_TRUE(reply.has_value()) << error;
    ASSERT_NE(reply->find("ok"), nullptr) << reply->dump();
    client.close();
  }

  // A client that sends half a frame and vanishes must not wedge the
  // daemon.
  for (int round = 0; round < 10; ++round) {
    Client client;
    ASSERT_TRUE(client.connect(socket, &error)) << error;
    const std::string& frame = frames[rng.uniform_below(
        static_cast<std::uint32_t>(frames.size()))];
    ASSERT_TRUE(client.send_raw(
        frame.substr(0, 1 + rng.uniform_below(
                            static_cast<std::uint32_t>(frame.size() - 1))),
        &error))
        << error;
    client.close();
  }

  Client client;
  ASSERT_TRUE(client.connect(socket, &error)) << error;
  const auto stats = client.stats(&error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_TRUE(stats->at("ok").as_bool()) << stats->dump();
  client.close();
  session.server().request_drain();
  EXPECT_EQ(session.join(), 0);
}

TEST(ProtocolFuzz, InterleavedPartialWritesStayPerConnection) {
  const std::string socket = test_socket_path("interleave");
  ServerConfig config;
  config.socket_path = socket;
  config.cluster.num_devices = 2;
  ServeSession session(std::move(config));
  std::string error;
  ASSERT_TRUE(session.begin(&error)) << error;

  // Two connections, each sending its request one byte at a time, turns
  // interleaved. Framing is per-connection, so both must get their own
  // correct reply.
  Client a;
  Client b;
  ASSERT_TRUE(a.connect(socket, &error)) << error;
  ASSERT_TRUE(b.connect(socket, &error)) << error;
  const std::string frame_a =
      encode_frame(make_plain_request(MessageType::kStats));
  const std::string frame_b =
      encode_frame(make_plain_request(MessageType::kMetrics));
  for (std::size_t i = 0; i < std::max(frame_a.size(), frame_b.size()); ++i) {
    if (i < frame_a.size()) {
      ASSERT_TRUE(a.send_raw(frame_a.substr(i, 1), &error)) << error;
    }
    if (i < frame_b.size()) {
      ASSERT_TRUE(b.send_raw(frame_b.substr(i, 1), &error)) << error;
    }
  }
  const auto reply_a = a.read_reply(&error);
  ASSERT_TRUE(reply_a.has_value()) << error;
  EXPECT_TRUE(reply_a->at("ok").as_bool()) << reply_a->dump();
  EXPECT_NE(reply_a->find("stats"), nullptr) << reply_a->dump();
  const auto reply_b = b.read_reply(&error);
  ASSERT_TRUE(reply_b.has_value()) << error;
  EXPECT_TRUE(reply_b->at("ok").as_bool()) << reply_b->dump();
  EXPECT_NE(reply_b->find("metrics"), nullptr) << reply_b->dump();

  a.close();
  b.close();
  session.server().request_drain();
  EXPECT_EQ(session.join(), 0);
}

}  // namespace
}  // namespace micco::service
