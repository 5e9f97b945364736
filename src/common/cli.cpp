#include "common/cli.hpp"

#include <algorithm>
#include <cstdlib>

namespace micco {

CliArgs::CliArgs(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    if (body.empty()) {
      if (!error_) error_ = "bare '--' is not a valid flag";
      continue;
    }
    const std::size_t eq = body.find('=');
    if (eq == std::string::npos) {
      // `--name value` when the next token is not itself a flag, else a
      // boolean `--name`.
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        flags_.insert_or_assign(body, std::string(argv[i + 1]));
        ++i;
      } else {
        flags_.insert_or_assign(body, std::string("1"));
      }
    } else if (eq == 0) {
      if (!error_) error_ = "flag with empty name: " + arg;
    } else {
      flags_.insert_or_assign(body.substr(0, eq), body.substr(eq + 1));
    }
  }
}

bool CliArgs::has(const std::string& name) const {
  queried_[name] = true;
  return flags_.contains(name);
}

std::string CliArgs::get(const std::string& name,
                         const std::string& fallback) const {
  queried_[name] = true;
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

std::int64_t CliArgs::get_int(const std::string& name,
                              std::int64_t fallback) const {
  queried_[name] = true;
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return std::strtoll(it->second.c_str(), nullptr, 10);
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  queried_[name] = true;
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return std::strtod(it->second.c_str(), nullptr);
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  queried_[name] = true;
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  std::string v = it->second;
  std::transform(v.begin(), v.end(), v.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (v == "1" || v == "true" || v == "on" || v == "yes") return true;
  if (v == "0" || v == "false" || v == "off" || v == "no") return false;
  return fallback;
}

std::vector<std::string> CliArgs::unused() const {
  std::vector<std::string> result;
  for (const auto& [name, value] : flags_) {
    (void)value;
    if (!queried_.contains(name)) result.push_back(name);
  }
  return result;
}

std::vector<std::string> CliArgs::unknown(
    std::initializer_list<std::string_view> known) const {
  std::vector<std::string> result;
  for (const auto& [name, value] : flags_) {
    (void)value;
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      result.push_back(name);
    }
  }
  return result;
}

}  // namespace micco
