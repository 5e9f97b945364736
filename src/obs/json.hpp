// Minimal JSON document model for the observability layer.
//
// Everything the telemetry stack emits — JSONL decision-log lines, registry
// snapshots, run reports — is built as a JsonValue and serialized through one
// writer, so output is deterministic (object keys keep insertion order, no
// locale-dependent number formatting) and round-trippable via parse(). This
// is intentionally not a general-purpose JSON library: numbers are doubles,
// int64, or uint64 above the int64 range, strings are assumed UTF-8, and
// duplicate keys are not rejected.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace micco::obs {

class JsonValue {
 public:
  /// kUint holds only integers above INT64_MAX (tensor ids up to 2^64 - 1);
  /// every smaller integer is a kInt, whichever constructor built it.
  enum class Kind {
    kNull, kBool, kInt, kUint, kDouble, kString, kArray, kObject
  };

  using Member = std::pair<std::string, JsonValue>;

  JsonValue() = default;  ///< null
  JsonValue(bool b) : kind_(Kind::kBool), bool_(b) {}                // NOLINT
  JsonValue(std::int64_t i) : kind_(Kind::kInt), int_(i) {}          // NOLINT
  JsonValue(std::uint64_t u);                                        // NOLINT
  JsonValue(int i) : kind_(Kind::kInt), int_(i) {}                   // NOLINT
  JsonValue(double d) : kind_(Kind::kDouble), double_(d) {}          // NOLINT
  JsonValue(std::string s)                                           // NOLINT
      : kind_(Kind::kString), string_(std::move(s)) {}
  JsonValue(const char* s) : kind_(Kind::kString), string_(s) {}     // NOLINT

  static JsonValue array();
  static JsonValue object();

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_number() const {
    return kind_ == Kind::kInt || kind_ == Kind::kUint ||
           kind_ == Kind::kDouble;
  }

  // Typed accessors abort (contract violation) on kind mismatch, except
  // as_double which accepts every number kind.
  bool as_bool() const;
  std::int64_t as_int() const;
  double as_double() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& items() const;
  const std::vector<Member>& members() const;

  /// Array append (value must be an array, or null — which becomes one).
  JsonValue& push_back(JsonValue v);

  /// Object insert/overwrite, preserving first-insertion order (value must
  /// be an object, or null — which becomes one). Returns the stored value.
  JsonValue& set(const std::string& key, JsonValue v);

  /// Object lookup; nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const;

  /// Object lookup that aborts when the key is absent.
  const JsonValue& at(const std::string& key) const;

  bool operator==(const JsonValue& other) const;

  /// Compact single-line serialization (the JSONL / golden-test format).
  std::string dump() const;

  /// Indented serialization for human consumption (--pretty).
  std::string dump_pretty(int indent = 2) const;

 private:
  void write(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  std::uint64_t uint_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<Member> object_;
};

/// Serializes a double the way the writer does (shortest round-trip form,
/// locale-independent); exposed for tests.
std::string json_number(double value);

/// Escapes a string body (no surrounding quotes); exposed for tests.
std::string json_escape(std::string_view raw);

/// Appends json_escape(raw) to `out`: how the writer, and code that writes
/// JSON text by hand, escape straight into their output.
void append_json_escaped(std::string& out, std::string_view raw);

/// Parses one JSON document. Returns nullopt and fills `error` (when given)
/// on malformed input or trailing garbage.
std::optional<JsonValue> parse_json(const std::string& text,
                                    std::string* error = nullptr);

}  // namespace micco::obs
