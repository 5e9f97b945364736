// Minimal command-line flag parsing for the bench/example binaries.
// Supports `--name=value`, `--name value` and boolean `--name` /
// `--name=off` forms; unknown flags are reported, not silently ignored.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace micco {

class CliArgs {
 public:
  /// Parses argv. On malformed input, records an error retrievable via
  /// error(); callers decide whether to abort.
  CliArgs(int argc, const char* const* argv);

  /// True when `--name` appeared in any form.
  bool has(const std::string& name) const;

  /// Returns the flag value, or `fallback` when absent.
  std::string get(const std::string& name, const std::string& fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;

  /// Boolean flags: bare `--name` and values 1/true/on/yes are true;
  /// 0/false/off/no are false.
  bool get_bool(const std::string& name, bool fallback) const;

  /// Positional (non-flag) arguments in order of appearance.
  const std::vector<std::string>& positional() const { return positional_; }

  /// First parse error, if any (e.g. `--=x`).
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
  std::map<std::string, std::string> flags_;
  mutable std::map<std::string, bool> queried_;
  std::vector<std::string> positional_;
  std::optional<std::string> error_;
};

}  // namespace micco
