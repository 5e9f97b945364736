#include "obs/report.hpp"

#include <algorithm>
#include <fstream>

#include "common/assert.hpp"

namespace micco::obs {

JsonValue build_report(const ReportInputs& inputs,
                       const MetricsRegistry& registry) {
  JsonValue report = JsonValue::object();
  report.set("schema_version", kReportSchemaVersion);
  if (!inputs.generated_at.empty()) {
    report.set("generated_at", inputs.generated_at);
  }
  report.set("scheduler", inputs.scheduler);

  JsonValue cluster = JsonValue::object();
  cluster.set("num_devices", inputs.num_devices);
  report.set("cluster", std::move(cluster));

  report.set("metrics", inputs.metrics);

  double busy_max = 0.0;
  double busy_sum = 0.0;
  for (const DeviceRollup& d : inputs.devices) {
    busy_max = std::max(busy_max, d.busy_s);
    busy_sum += d.busy_s;
  }
  const double busy_mean =
      inputs.devices.empty()
          ? 0.0
          : busy_sum / static_cast<double>(inputs.devices.size());

  JsonValue derived = JsonValue::object();
  derived.set("makespan_s", inputs.makespan_s);
  derived.set("gflops", inputs.gflops);
  derived.set("scheduling_overhead_ms", inputs.scheduling_overhead_ms);
  derived.set("reuse_rate", inputs.reuse_rate);
  derived.set("imbalance_ratio", busy_mean > 0.0 ? busy_max / busy_mean : 0.0);
  report.set("derived", std::move(derived));

  JsonValue devices = JsonValue::array();
  for (const DeviceRollup& d : inputs.devices) {
    JsonValue entry = JsonValue::object();
    entry.set("device", d.device);
    entry.set("busy_s", d.busy_s);
    entry.set("utilization", d.utilization);
    devices.push_back(std::move(entry));
  }
  report.set("devices", std::move(devices));

  report.set("registry", registry.snapshot());
  return report;
}

std::string validate_report(const JsonValue& report) {
  if (report.kind() != JsonValue::Kind::kObject) {
    return "report is not a JSON object";
  }
  const JsonValue* version = report.find("schema_version");
  if (version == nullptr || version->kind() != JsonValue::Kind::kInt) {
    return "missing or non-integer schema_version";
  }
  if (version->as_int() != kReportSchemaVersion) {
    return "unsupported schema_version " + std::to_string(version->as_int());
  }
  for (const char* key :
       {"scheduler", "cluster", "metrics", "derived", "devices", "registry"}) {
    if (report.find(key) == nullptr) {
      return std::string("missing field '") + key + "'";
    }
  }
  const JsonValue& devices = report.at("devices");
  if (devices.kind() != JsonValue::Kind::kArray) {
    return "'devices' is not an array";
  }
  for (const JsonValue& d : devices.items()) {
    if (d.find("utilization") == nullptr) {
      return "device entry missing 'utilization'";
    }
  }
  const JsonValue& registry = report.at("registry");
  for (const char* key : {"counters", "gauges", "histograms"}) {
    if (registry.find(key) == nullptr) {
      return std::string("registry snapshot missing '") + key + "'";
    }
  }
  return "";
}

void write_report_file(const JsonValue& report, const std::string& path) {
  std::ofstream out(path);
  MICCO_EXPECTS_MSG(out.good(), "cannot open report file for writing");
  out << report.dump_pretty() << '\n';
  out.flush();
  MICCO_EXPECTS_MSG(out.good(), "report file write failed");
}

}  // namespace micco::obs
