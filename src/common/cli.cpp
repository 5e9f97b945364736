#include "common/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace micco {

std::optional<std::int64_t> parse_int(const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || errno == ERANGE) return std::nullopt;
  return parsed;
}

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
        flags_.insert_or_assign(body, std::nullopt);
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

const std::optional<std::string>* CliArgs::find(
    const std::string& name) const {
  queried_[name] = true;
  const auto it = flags_.find(name);
  return it == flags_.end() ? nullptr : &it->second;
}

const std::string* CliArgs::value(const std::string& name) const {
  const std::optional<std::string>* entry = find(name);
  if (entry == nullptr) return nullptr;
  if (!entry->has_value()) {
    if (!error_) error_ = "--" + name + " needs a value";
    return nullptr;
  }
  return &**entry;
}

void CliArgs::malformed(const std::string& name,
                        const std::string& value) const {
  if (!error_) error_ = "malformed value for --" + name + ": '" + value + "'";
}

std::string CliArgs::get(const std::string& name,
                         const std::string& fallback) const {
  const std::string* text = value(name);
  return text == nullptr ? fallback : *text;
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  const std::string* text = value(name);
  if (text == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(text->c_str(), &end);
  if (text->empty() || *end != '\0' || errno == ERANGE ||
      !std::isfinite(parsed)) {
    malformed(name, *text);
    return fallback;
  }
  return parsed;
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  const std::optional<std::string>* entry = find(name);
  if (entry == nullptr) return fallback;
  if (!entry->has_value()) return true;  // bare `--name`
  std::string v = **entry;
  std::transform(v.begin(), v.end(), v.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (v == "1" || v == "true" || v == "on" || v == "yes") return true;
  if (v == "0" || v == "false" || v == "off" || v == "no") return false;
  malformed(name, **entry);
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
