// Minimal command-line flag parsing for the bench/example binaries.
// Supports `--name=value`, `--name value` and boolean `--name` /
// `--name=off` forms; unknown flags and malformed values are reported, not
// silently ignored.
#pragma once

#include <concepts>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace micco {

/// `text` as a base-10 integer, read in full: nullopt for "", "4x" or a
/// value outside int64. CliArgs::get_int applies the same rule.
std::optional<std::int64_t> parse_int(const std::string& text);

class CliArgs {
 public:
  /// Parses argv. On malformed input, records an error retrievable via
  /// error(); callers decide whether to abort.
  CliArgs(int argc, const char* const* argv);

  /// True when `--name` appeared in any form.
  bool has(const std::string& name) const;

  /// Returns the flag value, or `fallback` when absent. A bare `--name`
  /// has no value: these getters return `fallback` for it and record
  /// "--name needs a value" as the error(). The typed getters also return
  /// `fallback` for a value they cannot parse in full ("4x", "", an
  /// out-of-range number, a non-finite double such as "nan" or "inf") and
  /// record it as the error().
  std::string get(const std::string& name, const std::string& fallback) const;
  double get_double(const std::string& name, double fallback) const;

  /// The flag as an integer of type T (int64 unless named): a value that
  /// parse_int cannot read, or that lies outside T's range, is malformed,
  /// so `--gpus=4294967297` read as an int or `--max-queue=-1` read as a
  /// size_t is an error(), not a wrapped number.
  template <std::integral T = std::int64_t>
  T get_int(const std::string& name, std::type_identity_t<T> fallback) const {
    const std::string* text = value(name);
    if (text == nullptr) return fallback;
    const std::optional<std::int64_t> parsed = parse_int(*text);
    if (!parsed.has_value() || !std::in_range<T>(*parsed)) {
      malformed(name, *text);
      return fallback;
    }
    return static_cast<T>(*parsed);
  }

  /// Boolean flags: bare `--name` and values 1/true/on/yes are true;
  /// 0/false/off/no are false; any other word is malformed.
  bool get_bool(const std::string& name, bool fallback) const;

  /// Positional (non-flag) arguments in order of appearance.
  const std::vector<std::string>& positional() const { return positional_; }

  /// First error, if any: a malformed flag (e.g. `--=x`), or a malformed
  /// value a typed getter has read so far.
  const std::optional<std::string>& error() const { return error_; }

  /// Flags that were present but never queried; used by binaries to warn
  /// about typos before running a long experiment.
  std::vector<std::string> unused() const;

  /// Flags that were present but are not named in `known`, in name order;
  /// lets a binary reject typos before it reads anything.
  std::vector<std::string> unknown(
      std::initializer_list<std::string_view> known) const;

  /// Program name (argv[0]).
  const std::string& program() const { return program_; }

 private:
  std::string program_;
  /// Flag values by name; a bare `--name` maps to nullopt.
  std::map<std::string, std::optional<std::string>> flags_;
  mutable std::map<std::string, bool> queried_;
  std::vector<std::string> positional_;
  mutable std::optional<std::string> error_;

  /// The flag's entry (marking it read), or nullptr when absent.
  const std::optional<std::string>* find(const std::string& name) const;
  /// The value of a present flag (marking it read), or nullptr when it is
  /// absent or bare; a bare flag is recorded as the error().
  const std::string* value(const std::string& name) const;
  /// Records `--name=value` as malformed unless an error is already held.
  void malformed(const std::string& name, const std::string& value) const;
};

}  // namespace micco
