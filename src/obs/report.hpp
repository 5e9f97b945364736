// Machine-readable run reports.
//
// A run report is the versioned JSON document every experiment emits: the
// simulator's ExecutionMetrics (flattened by the caller — this module does
// not depend on gpusim), the registry snapshot, per-device rollups and the
// derived ratios the paper's tables aggregate (reuse rate, imbalance,
// scheduling overhead). Perf PRs diff these documents before/after; the
// schema_version field is bumped whenever a field changes meaning so stale
// tooling fails loudly instead of misreading.
#pragma once

#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace micco::obs {

inline constexpr std::int64_t kReportSchemaVersion = 1;

/// Per-device rollup for the report's "devices" array.
struct DeviceRollup {
  int device = 0;
  double busy_s = 0.0;       ///< accumulated non-idle time
  double utilization = 0.0;  ///< busy_s / makespan
};

/// Everything the builder needs besides the registry. The caller (core's
/// pipeline, the CLI, benches) flattens its ExecutionMetrics into `metrics`.
struct ReportInputs {
  std::string scheduler;
  int num_devices = 0;
  JsonValue metrics = JsonValue::object();  ///< flat name -> number object
  std::vector<DeviceRollup> devices;
  double makespan_s = 0.0;
  double gflops = 0.0;
  double scheduling_overhead_ms = 0.0;
  double reuse_rate = 0.0;        ///< reused / (reused + fetched) operands
  /// Wall-clock stamp ("YYYY-MM-DDTHH:MM:SSZ") captured once per serving
  /// session via obs::Clock. Empty (the batch-path default) omits the field
  /// entirely so byte-compared batch reports stay deterministic.
  std::string generated_at;
};

/// Assembles the versioned report document. The derived imbalance_ratio
/// (max device busy / mean device busy) comes from `devices`.
JsonValue build_report(const ReportInputs& inputs,
                       const MetricsRegistry& registry);

/// Structural validation of a (possibly parsed-back) report. Returns the
/// empty string when the document has the required fields of this schema
/// version, else a human-readable complaint.
std::string validate_report(const JsonValue& report);

/// Convenience: writes `report` (pretty) to `path`; aborts on I/O failure.
void write_report_file(const JsonValue& report, const std::string& path);

}  // namespace micco::obs
