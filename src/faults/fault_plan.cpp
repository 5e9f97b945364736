#include "faults/fault_plan.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <type_traits>

namespace micco {

namespace {

std::string fail_with(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return message;
}

/// Reads `token` in full as a T: decimal digits, a '-' only for a signed
/// T, no '+', and for a double a finite value in range (fraction and
/// exponent allowed).
template <typename T>
bool read_field(const std::string& token, T* out) {
  const char* const end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, *out);
  if (ec != std::errc{} || ptr != end) return false;
  if constexpr (std::is_floating_point_v<T>) return std::isfinite(*out);
  return true;
}

}  // namespace

std::string FaultPlan::validate(int num_devices) const {
  const auto device_ok = [num_devices](int dev) {
    return dev >= 0 && dev < num_devices;
  };
  for (const DeviceFailure& f : device_failures) {
    if (!device_ok(f.device)) {
      return "fail: device " + std::to_string(f.device) +
             " out of range [0, " + std::to_string(num_devices) + ")";
    }
    if (f.time_s < 0.0) return "fail: time must be >= 0";
  }
  if (transfer.probability < 0.0 || transfer.probability >= 1.0) {
    // 1.0 would mean no transfer can ever succeed, so no run can finish.
    return "transfer-faults: probability must be in [0, 1)";
  }
  for (const DeviceSlowdown& s : slowdowns) {
    if (!device_ok(s.device)) {
      return "slowdown: device " + std::to_string(s.device) + " out of range";
    }
    if (s.factor < 1.0) return "slowdown: factor must be >= 1";
    if (s.from_time_s < 0.0) return "slowdown: from_time must be >= 0";
  }
  for (const CapacityLoss& c : capacity_losses) {
    if (!device_ok(c.device)) {
      return "capacity-loss: device " + std::to_string(c.device) +
             " out of range";
    }
    if (c.bytes == 0) return "capacity-loss: bytes must be > 0";
    if (c.time_s < 0.0) return "capacity-loss: time must be >= 0";
  }
  // At most one permanent failure per device: a second one could never fire.
  for (std::size_t i = 0; i < device_failures.size(); ++i) {
    for (std::size_t j = i + 1; j < device_failures.size(); ++j) {
      if (device_failures[i].device == device_failures[j].device) {
        return "fail: duplicate failure for device " +
               std::to_string(device_failures[i].device);
      }
    }
  }
  return {};
}

std::string FaultPlan::summary() const {
  std::ostringstream out;
  for (const DeviceFailure& f : device_failures) {
    out << "fail device " << f.device << " at t=" << f.time_s << " s\n";
  }
  if (transfer.probability > 0.0) {
    out << "transfer faults: p=" << transfer.probability
        << " seed=" << transfer.seed << "\n";
  }
  for (const DeviceSlowdown& s : slowdowns) {
    out << "slowdown device " << s.device << " x" << s.factor << " from t="
        << s.from_time_s << " s\n";
  }
  for (const CapacityLoss& c : capacity_losses) {
    out << "capacity loss device " << c.device << " -" << c.bytes
        << " bytes at t=" << c.time_s << " s\n";
  }
  if (out.str().empty()) out << "empty plan (no faults)\n";
  return out.str();
}

std::optional<FaultPlan> parse_fault_plan(std::istream& in,
                                          std::string* error) {
  FaultPlan plan;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream words(line);
    std::vector<std::string> fields;
    for (std::string word; words >> word;) fields.push_back(std::move(word));
    if (fields.empty() || fields.front().front() == '#') continue;
    const std::string& keyword = fields.front();

    // True when the line holds `required` to `required + optional` fields
    // after its keyword.
    const auto arity = [&](std::size_t required, std::size_t optional) {
      return fields.size() >= 1 + required &&
             fields.size() <= 1 + required + optional;
    };
    const auto malformed = [&](const char* what) {
      fail_with(error, "fault plan line " + std::to_string(line_no) + ": " +
                           what + ": " + line);
      return std::nullopt;
    };

    if (keyword == "fail") {
      DeviceFailure f;
      if (!(arity(2, 0) && read_field(fields[1], &f.device) &&
            read_field(fields[2], &f.time_s))) {
        return malformed("expected 'fail <device> <time_s>'");
      }
      plan.device_failures.push_back(f);
    } else if (keyword == "transfer-faults") {
      if (!(arity(1, 1) &&
            read_field(fields[1], &plan.transfer.probability) &&
            (fields.size() == 2 ||
             read_field(fields[2], &plan.transfer.seed)))) {
        return malformed("expected 'transfer-faults <probability> [seed]'");
      }
    } else if (keyword == "slowdown") {
      DeviceSlowdown s;
      if (!(arity(2, 1) && read_field(fields[1], &s.device) &&
            read_field(fields[2], &s.factor) &&
            (fields.size() == 3 || read_field(fields[3], &s.from_time_s)))) {
        return malformed("expected 'slowdown <device> <factor> [from_time_s]'");
      }
      plan.slowdowns.push_back(s);
    } else if (keyword == "capacity-loss") {
      CapacityLoss c;
      if (!(arity(3, 0) && read_field(fields[1], &c.device) &&
            read_field(fields[2], &c.bytes) &&
            read_field(fields[3], &c.time_s))) {
        return malformed("expected 'capacity-loss <device> <bytes> <time_s>'");
      }
      plan.capacity_losses.push_back(c);
    } else {
      return malformed("unknown directive");
    }
  }
  return plan;
}

std::optional<FaultPlan> load_fault_plan_file(const std::string& path,
                                              std::string* error) {
  std::ifstream in(path);
  if (!in.good()) {
    fail_with(error, "cannot open fault plan " + path);
    return std::nullopt;
  }
  return parse_fault_plan(in, error);
}

}  // namespace micco
