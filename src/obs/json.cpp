#include "obs/json.hpp"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "common/assert.hpp"

namespace micco::obs {

JsonValue::JsonValue(std::uint64_t u) {
  if (u <= static_cast<std::uint64_t>(
               std::numeric_limits<std::int64_t>::max())) {
    kind_ = Kind::kInt;
    int_ = static_cast<std::int64_t>(u);
  } else {
    kind_ = Kind::kUint;
    uint_ = u;
  }
}

JsonValue JsonValue::array() {
  JsonValue v;
  v.kind_ = Kind::kArray;
  return v;
}

JsonValue JsonValue::object() {
  JsonValue v;
  v.kind_ = Kind::kObject;
  return v;
}

bool JsonValue::as_bool() const {
  MICCO_EXPECTS(kind_ == Kind::kBool);
  return bool_;
}

std::int64_t JsonValue::as_int() const {
  MICCO_EXPECTS(kind_ == Kind::kInt);
  return int_;
}

double JsonValue::as_double() const {
  MICCO_EXPECTS(is_number());
  switch (kind_) {
    case Kind::kInt: return static_cast<double>(int_);
    case Kind::kUint: return static_cast<double>(uint_);
    default: return double_;
  }
}

const std::string& JsonValue::as_string() const {
  MICCO_EXPECTS(kind_ == Kind::kString);
  return string_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  MICCO_EXPECTS(kind_ == Kind::kArray);
  return array_;
}

const std::vector<JsonValue::Member>& JsonValue::members() const {
  MICCO_EXPECTS(kind_ == Kind::kObject);
  return object_;
}

JsonValue& JsonValue::push_back(JsonValue v) {
  if (kind_ == Kind::kNull) kind_ = Kind::kArray;
  MICCO_EXPECTS(kind_ == Kind::kArray);
  array_.push_back(std::move(v));
  return array_.back();
}

JsonValue& JsonValue::set(const std::string& key, JsonValue v) {
  if (kind_ == Kind::kNull) kind_ = Kind::kObject;
  MICCO_EXPECTS(kind_ == Kind::kObject);
  for (Member& m : object_) {
    if (m.first == key) {
      m.second = std::move(v);
      return m.second;
    }
  }
  object_.emplace_back(key, std::move(v));
  return object_.back().second;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const Member& m : object_) {
    if (m.first == key) return &m.second;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonValue* v = find(key);
  MICCO_EXPECTS_MSG(v != nullptr, "missing JSON object key");
  return *v;
}

bool JsonValue::operator==(const JsonValue& other) const {
  if (kind_ != other.kind_) {
    // Int/double compare by numeric value so parse(dump(x)) == x even when
    // the parser picked the other representation. kInt and kUint ranges
    // are disjoint, and a double would round one onto the other.
    if (is_number() && other.is_number() &&
        (kind_ == Kind::kDouble || other.kind_ == Kind::kDouble)) {
      return as_double() == other.as_double();
    }
    return false;
  }
  switch (kind_) {
    case Kind::kNull: return true;
    case Kind::kBool: return bool_ == other.bool_;
    case Kind::kInt: return int_ == other.int_;
    case Kind::kUint: return uint_ == other.uint_;
    case Kind::kDouble: return double_ == other.double_;
    case Kind::kString: return string_ == other.string_;
    case Kind::kArray: return array_ == other.array_;
    case Kind::kObject: return object_ == other.object_;
  }
  return false;
}

namespace {

/// The writer's number forms, appended to `out`: json_number's text with
/// no temporary string.
void append_number(std::string& out, double value) {
  MICCO_EXPECTS_MSG(std::isfinite(value),
                    "JSON cannot represent NaN/Inf numbers");
  char buf[32];
  // Integral doubles print without an exponent or trailing ".0"; everything
  // else uses the shortest form that round-trips exactly.
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    const int n = std::snprintf(buf, sizeof(buf), "%.0f", value);
    out.append(buf, static_cast<std::size_t>(n));
    return;
  }
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  MICCO_ASSERT(ec == std::errc{});
  out.append(buf, ptr);
}

template <typename Int>
void append_integer(std::string& out, Int value) {
  char buf[24];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  MICCO_ASSERT(ec == std::errc{});
  out.append(buf, ptr);
}

/// True for the bytes a JSON string body cannot hold raw.
bool needs_escape(unsigned char c) {
  return c < 0x20 || c == '"' || c == '\\';
}

}  // namespace

std::string json_number(double value) {
  std::string out;
  append_number(out, value);
  return out;
}

void append_json_escaped(std::string& out, std::string_view raw) {
  // Bytes that need no escape go out in runs, one append per run.
  std::size_t run = 0;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const auto c = static_cast<unsigned char>(raw[i]);
    if (!needs_escape(c)) continue;
    out.append(raw.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const char escape[6] = {'\\', 'u', '0', '0',
                                "0123456789abcdef"[c >> 4],
                                "0123456789abcdef"[c & 0xf]};
        out.append(escape, sizeof(escape));
      }
    }
  }
  out.append(raw.data() + run, raw.size() - run);
}

std::string json_escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  append_json_escaped(out, raw);
  return out;
}

void JsonValue::write(std::string& out, int indent, int depth) const {
  const bool pretty = indent > 0;
  const auto newline_pad = [&](int d) {
    if (!pretty) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (kind_) {
    case Kind::kNull: out += "null"; break;
    case Kind::kBool: out += bool_ ? "true" : "false"; break;
    case Kind::kInt: append_integer(out, int_); break;
    case Kind::kUint: append_integer(out, uint_); break;
    case Kind::kDouble: append_number(out, double_); break;
    case Kind::kString:
      out += '"';
      append_json_escaped(out, string_);
      out += '"';
      break;
    case Kind::kArray: {
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out += ',';
        newline_pad(depth + 1);
        array_[i].write(out, indent, depth + 1);
      }
      if (!array_.empty()) newline_pad(depth);
      out += ']';
      break;
    }
    case Kind::kObject: {
      out += '{';
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) out += ',';
        newline_pad(depth + 1);
        out += '"';
        append_json_escaped(out, object_[i].first);
        out += "\":";
        if (pretty) out += ' ';
        object_[i].second.write(out, indent, depth + 1);
      }
      if (!object_.empty()) newline_pad(depth);
      out += '}';
      break;
    }
  }
}

std::string JsonValue::dump() const {
  std::string out;
  write(out, /*indent=*/0, /*depth=*/0);
  return out;
}

std::string JsonValue::dump_pretty(int indent) const {
  std::string out;
  write(out, indent, /*depth=*/0);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  std::optional<JsonValue> run(std::string* error) {
    std::optional<JsonValue> value = parse_value();
    skip_ws();
    if (value && pos_ != text_.size()) {
      fail("trailing characters after JSON document");
      value.reset();
    }
    if (!value && error != nullptr) *error = error_;
    return value;
  }

 private:
  void fail(const std::string& message) {
    if (error_.empty()) {
      error_ = message + " at offset " + std::to_string(pos_);
    }
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consume_word(const char* word) {
    const std::size_t len = std::string(word).size();
    if (text_.compare(pos_, len, word) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  std::optional<JsonValue> parse_value() {
    skip_ws();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return std::nullopt;
    }
    const char c = text_[pos_];
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') {
      std::optional<std::string> s = parse_string();
      if (!s) return std::nullopt;
      return JsonValue(std::move(*s));
    }
    if (consume_word("null")) return JsonValue();
    if (consume_word("true")) return JsonValue(true);
    if (consume_word("false")) return JsonValue(false);
    return parse_number();
  }

  std::optional<JsonValue> parse_number() {
    const std::size_t start = pos_;
    if (consume('-')) {}
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      fail("expected a JSON value");
      return std::nullopt;
    }
    const std::string token = text_.substr(start, pos_ - start);
    if (token.find_first_of(".eE") == std::string::npos) {
      const char* const end = token.data() + token.size();
      std::int64_t i = 0;
      const auto [ptr, ec] = std::from_chars(token.data(), end, i);
      if (ec == std::errc{} && ptr == end) return JsonValue(i);
      // Above INT64_MAX: exact as a uint64 up to 2^64 - 1.
      std::uint64_t u = 0;
      const auto [uptr, uec] = std::from_chars(token.data(), end, u);
      if (uec == std::errc{} && uptr == end) return JsonValue(u);
    }
    errno = 0;
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || errno == ERANGE) {
      fail("malformed number '" + token + "'");
      return std::nullopt;
    }
    return JsonValue(d);
  }

  std::optional<std::string> parse_string() {
    if (!consume('"')) {
      fail("expected '\"'");
      return std::nullopt;
    }
    std::string out;
    while (pos_ < text_.size()) {
      // Copy the run up to the next quote or backslash in one append.
      const std::size_t run = pos_;
      while (pos_ < text_.size() && text_[pos_] != '"' &&
             text_[pos_] != '\\') {
        ++pos_;
      }
      out.append(text_, run, pos_ - run);
      if (pos_ >= text_.size()) break;
      if (text_[pos_++] == '"') return out;
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            fail("truncated \\u escape");
            return std::nullopt;
          }
          unsigned code = 0;
          const auto [ptr, ec] = std::from_chars(
              text_.data() + pos_, text_.data() + pos_ + 4, code, 16);
          if (ec != std::errc{} || ptr != text_.data() + pos_ + 4) {
            fail("malformed \\u escape");
            return std::nullopt;
          }
          pos_ += 4;
          // The writer only emits \u00xx for control bytes; decode the
          // basic-latin range and pass anything else through as '?' rather
          // than implementing full UTF-16 surrogate handling.
          out += code < 0x80 ? static_cast<char>(code) : '?';
          break;
        }
        default:
          fail("unknown escape sequence");
          return std::nullopt;
      }
    }
    fail("unterminated string");
    return std::nullopt;
  }

  std::optional<JsonValue> parse_array() {
    consume('[');
    JsonValue out = JsonValue::array();
    skip_ws();
    if (consume(']')) return out;
    while (true) {
      std::optional<JsonValue> item = parse_value();
      if (!item) return std::nullopt;
      out.push_back(std::move(*item));
      skip_ws();
      if (consume(']')) return out;
      if (!consume(',')) {
        fail("expected ',' or ']' in array");
        return std::nullopt;
      }
    }
  }

  std::optional<JsonValue> parse_object() {
    consume('{');
    JsonValue out = JsonValue::object();
    skip_ws();
    if (consume('}')) return out;
    while (true) {
      skip_ws();
      std::optional<std::string> key = parse_string();
      if (!key) return std::nullopt;
      skip_ws();
      if (!consume(':')) {
        fail("expected ':' after object key");
        return std::nullopt;
      }
      std::optional<JsonValue> value = parse_value();
      if (!value) return std::nullopt;
      out.set(*key, std::move(*value));
      skip_ws();
      if (consume('}')) return out;
      if (!consume(',')) {
        fail("expected ',' or '}' in object");
        return std::nullopt;
      }
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

std::optional<JsonValue> parse_json(const std::string& text,
                                    std::string* error) {
  return Parser(text).run(error);
}

}  // namespace micco::obs
