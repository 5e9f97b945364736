#include "obs/json.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "redstar/correlator.hpp"
#include "workload/serialize.hpp"

namespace micco::obs {
namespace {

TEST(ObsJson, ScalarKindsAndAccessors) {
  EXPECT_TRUE(JsonValue().is_null());
  EXPECT_EQ(JsonValue(true).as_bool(), true);
  EXPECT_EQ(JsonValue(std::int64_t{-7}).as_int(), -7);
  EXPECT_DOUBLE_EQ(JsonValue(2.5).as_double(), 2.5);
  EXPECT_EQ(JsonValue("hi").as_string(), "hi");
  // as_double accepts both number kinds.
  EXPECT_DOUBLE_EQ(JsonValue(3).as_double(), 3.0);
}

TEST(ObsJson, ObjectKeepsInsertionOrder) {
  JsonValue obj = JsonValue::object();
  obj.set("zeta", 1);
  obj.set("alpha", 2);
  obj.set("mid", 3);
  EXPECT_EQ(obj.dump(), "{\"zeta\":1,\"alpha\":2,\"mid\":3}");
  // Overwrite keeps first-insertion position.
  obj.set("alpha", 9);
  EXPECT_EQ(obj.dump(), "{\"zeta\":1,\"alpha\":9,\"mid\":3}");
}

TEST(ObsJson, NullAutoPromotesOnSetAndPushBack) {
  JsonValue obj;
  obj.set("k", "v");
  EXPECT_EQ(obj.kind(), JsonValue::Kind::kObject);
  JsonValue arr;
  arr.push_back(1);
  arr.push_back(2);
  EXPECT_EQ(arr.dump(), "[1,2]");
}

TEST(ObsJson, FindAndAt) {
  JsonValue obj = JsonValue::object();
  obj.set("present", 42);
  ASSERT_NE(obj.find("present"), nullptr);
  EXPECT_EQ(obj.find("present")->as_int(), 42);
  EXPECT_EQ(obj.find("absent"), nullptr);
  EXPECT_EQ(obj.at("present").as_int(), 42);
  EXPECT_EQ(JsonValue(1).find("x"), nullptr);  // non-object: no members
}

TEST(ObsJson, EscapesControlCharactersAndQuotes) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(ObsJson, ControlBytesRoundTripAndStayOnOneLine) {
  // NDJSON framing (service/protocol.hpp) relies on every control byte —
  // 0x00 through 0x1F — surviving a dump/parse round trip without ever
  // emitting a literal newline or other control character into the output.
  for (int byte = 0x00; byte <= 0x1F; ++byte) {
    const std::string raw =
        "pre" + std::string(1, static_cast<char>(byte)) + "post";
    JsonValue doc = JsonValue::object();
    doc.set("s", raw);
    const std::string text = doc.dump();
    for (const char c : text) {
      EXPECT_GE(static_cast<unsigned char>(c), 0x20)
          << "dump leaked control byte " << byte << " into the frame";
    }
    std::string error;
    const auto parsed = parse_json(text, &error);
    ASSERT_TRUE(parsed.has_value()) << "byte " << byte << ": " << error;
    EXPECT_EQ(parsed->at("s").as_string(), raw) << "byte " << byte;
  }
}

TEST(ObsJson, EveryByteEscapesAndParsesBack) {
  // Escaping and parsing move runs of plain bytes at once: each byte alone,
  // between runs, and all 256 in one string come back unchanged, and no
  // escaped text holds a byte below 0x20.
  std::string all;
  for (int byte = 0x00; byte <= 0xFF; ++byte) {
    const std::string one(1, static_cast<char>(byte));
    all += one;
    for (const std::string& raw : {one, "run" + one + "run" + one}) {
      const std::string escaped = json_escape(raw);
      for (const char c : escaped) {
        EXPECT_GE(static_cast<unsigned char>(c), 0x20) << "byte " << byte;
      }
      std::string error;
      const auto parsed = parse_json('"' + escaped + '"', &error);
      ASSERT_TRUE(parsed.has_value()) << "byte " << byte << ": " << error;
      EXPECT_EQ(parsed->as_string(), raw) << "byte " << byte;
    }
  }
  const std::string escaped = json_escape(all);
  EXPECT_EQ(parse_json('"' + escaped + '"')->as_string(), all);
  std::string appended = "{";
  append_json_escaped(appended, all);
  EXPECT_EQ(appended, "{" + escaped);
  EXPECT_EQ(JsonValue(all).dump(), '"' + escaped + '"');
}

TEST(ObsJson, WorkloadTextRoundTrips) {
  std::ostringstream out;
  save_stream(redstar::build_workload(redstar::make_a1_rhopi()).stream, out);
  const std::string text = out.str();
  JsonValue doc = JsonValue::object();
  doc.set("workload", text);
  std::string error;
  const auto parsed = parse_json(doc.dump(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->at("workload").as_string(), text);
}

TEST(ObsJson, NumberFormattingIsDeterministic) {
  EXPECT_EQ(json_number(1.0), "1");
  EXPECT_EQ(json_number(-3.0), "-3");
  EXPECT_EQ(JsonValue(0.5).dump(), "0.5");
  // Round-trips the shortest form.
  const std::string text = json_number(0.1);
  EXPECT_DOUBLE_EQ(std::stod(text), 0.1);
}

TEST(ObsJson, DumpParseRoundTrip) {
  JsonValue doc = JsonValue::object();
  doc.set("name", "run");
  doc.set("n", 3);
  doc.set("ratio", 1.25);
  doc.set("ok", true);
  doc.set("missing", JsonValue());
  JsonValue arr = JsonValue::array();
  arr.push_back(1);
  arr.push_back("two");
  JsonValue nested = JsonValue::object();
  nested.set("deep", -1);
  arr.push_back(std::move(nested));
  doc.set("items", std::move(arr));
  // Integers above INT64_MAX (tensor ids) print and parse exactly.
  doc.set("wide", std::uint64_t{1} << 63);
  doc.set("widest", ~std::uint64_t{0});

  std::string error;
  const auto parsed = parse_json(doc.dump(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(*parsed, doc);
  EXPECT_NE(doc.dump().find("\"wide\":9223372036854775808,"
                            "\"widest\":18446744073709551615"),
            std::string::npos);
  EXPECT_EQ(parsed->at("wide").kind(), JsonValue::Kind::kUint);
  EXPECT_FALSE(parsed->at("wide") == JsonValue(INT64_MAX));
  // Pretty output parses back to the same document too.
  const auto reparsed = parse_json(doc.dump_pretty(), &error);
  ASSERT_TRUE(reparsed.has_value()) << error;
  EXPECT_EQ(*reparsed, doc);
}

TEST(ObsJson, ParseRejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(parse_json("{", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(parse_json("[1,]", &error).has_value());
  EXPECT_FALSE(parse_json("{\"a\":1} trailing", &error).has_value());
  EXPECT_FALSE(parse_json("nul", &error).has_value());
  EXPECT_FALSE(parse_json("\"unterminated", &error).has_value());
  EXPECT_EQ(error, "unterminated string at offset 13");
  EXPECT_FALSE(parse_json("\"ends in a backslash\\", &error).has_value());
  EXPECT_EQ(error, "unterminated string at offset 21");
  EXPECT_FALSE(parse_json("\"a\\u00", &error).has_value());
  EXPECT_EQ(error, "truncated \\u escape at offset 4");
  EXPECT_FALSE(parse_json("\"a\\q\"", &error).has_value());
  EXPECT_EQ(error, "unknown escape sequence at offset 4");
}

TEST(ObsJson, NumericEqualityCrossesIntAndDouble) {
  EXPECT_EQ(JsonValue(2), JsonValue(2.0));
  EXPECT_FALSE(JsonValue(2) == JsonValue(2.5));
  EXPECT_FALSE(JsonValue(2) == JsonValue("2"));
}

}  // namespace
}  // namespace micco::obs
