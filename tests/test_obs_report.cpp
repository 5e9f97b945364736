// Run-report assembly: schema fields, validation, JSON round-trip, and the
// derived ratios against hand-computed values.
#include "obs/report.hpp"

#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "obs/names.hpp"
#include "obs/telemetry.hpp"
#include "workload/synthetic.hpp"

namespace micco {
namespace {

SyntheticConfig small_workload() {
  SyntheticConfig c;
  c.num_vectors = 3;
  c.vector_size = 12;
  c.tensor_extent = 64;
  c.batch = 2;
  c.repeated_rate = 0.5;
  c.seed = 5;
  return c;
}

ClusterConfig small_cluster() {
  ClusterConfig c;
  c.num_devices = 3;
  c.device_capacity_bytes = 64u << 20;
  return c;
}

obs::JsonValue make_report() {
  obs::Telemetry telemetry;
  const WorkloadStream stream = generate_synthetic(small_workload());
  MiccoScheduler sched;
  RunOptions options;
  options.telemetry = &telemetry;
  const RunResult result = run_stream(stream, sched, small_cluster(), options);
  return make_run_report(result, telemetry);
}

TEST(ObsReport, HasVersionedSchemaAndValidates) {
  const obs::JsonValue report = make_report();
  EXPECT_EQ(report.at("schema_version").as_int(), obs::kReportSchemaVersion);
  EXPECT_EQ(report.at("scheduler").as_string(), "MICCO");
  EXPECT_EQ(report.at("cluster").at("num_devices").as_int(), 3);
  EXPECT_EQ(obs::validate_report(report), "");
}

TEST(ObsReport, RoundTripsThroughDumpAndParse) {
  const obs::JsonValue report = make_report();
  std::string error;
  const auto parsed = obs::parse_json(report.dump(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(*parsed, report);
  EXPECT_EQ(obs::validate_report(*parsed), "");
}

TEST(ObsReport, DeviceRollupsSumToUtilization) {
  const obs::JsonValue report = make_report();
  const obs::JsonValue& devices = report.at("devices");
  ASSERT_EQ(devices.items().size(), 3u);
  const double makespan =
      report.at("derived").at("makespan_s").as_double();
  for (const obs::JsonValue& dev : devices.items()) {
    const double busy = dev.at("busy_s").as_double();
    const double util = dev.at("utilization").as_double();
    EXPECT_GE(util, 0.0);
    EXPECT_LE(util, 1.0 + 1e-9);
    EXPECT_NEAR(busy, util * makespan, 1e-9);
  }
}

TEST(ObsReport, DerivedRatiosAreConsistent) {
  const obs::JsonValue report = make_report();
  const obs::JsonValue& derived = report.at("derived");
  const obs::JsonValue& metrics = report.at("metrics");
  const double reused = metrics.at("reused_operands").as_double();
  const double fetched = metrics.at("fetched_operands").as_double();
  EXPECT_NEAR(derived.at("reuse_rate").as_double(),
              reused / (reused + fetched), 1e-12);
  EXPECT_GE(derived.at("imbalance_ratio").as_double(), 1.0 - 1e-9);
  EXPECT_GT(derived.at("gflops").as_double(), 0.0);
}

TEST(ObsReport, RegistrySnapshotEmbedded) {
  const obs::JsonValue report = make_report();
  const obs::JsonValue& registry = report.at("registry");
  // Every decision is classified into exactly one reuse pattern.
  std::int64_t decisions = 0;
  for (const char* name : obs::names::kSchedPattern) {
    if (const obs::JsonValue* count = registry.at("counters").find(name)) {
      decisions += count->as_int();
    }
  }
  EXPECT_EQ(decisions, 3 * 6);  // 12 slots -> 6 pairs per vector
  // Per-device rollups live in devices[] only, not in registry gauges.
  EXPECT_GE(report.at("devices").items().at(0).at("utilization").as_double(),
            0.0);
  EXPECT_TRUE(registry.at("gauges").members().empty());
  // The bound-slack histogram is present with its overflow bucket.
  const obs::JsonValue* slack =
      registry.at("histograms").find("sched.bound_slack");
  ASSERT_NE(slack, nullptr);
  EXPECT_EQ(slack->at("counts").items().size(),
            slack->at("upper_bounds").items().size() + 1);
}

TEST(ObsReport, PerVectorCharacteristicsIncluded) {
  const obs::JsonValue report = make_report();
  const obs::JsonValue& vectors = report.at("vectors");
  ASSERT_EQ(vectors.items().size(), 3u);
  EXPECT_DOUBLE_EQ(vectors.items()[0].at("vector_size").as_double(), 12.0);
}

TEST(ObsReport, ValidationCatchesMissingFields) {
  obs::JsonValue report = make_report();
  EXPECT_EQ(obs::validate_report(report), "");
  obs::JsonValue broken = obs::JsonValue::object();
  broken.set("schema_version", obs::kReportSchemaVersion);
  EXPECT_NE(obs::validate_report(broken), "");
  obs::JsonValue wrong_version = report;
  wrong_version.set("schema_version", 999);
  EXPECT_NE(obs::validate_report(wrong_version), "");
  EXPECT_NE(obs::validate_report(obs::JsonValue(1)), "");
}

TEST(ObsReport, GeneratedAtOmittedOnTheBatchPath) {
  // Batch runs leave ReportInputs::generated_at empty, so the field is
  // absent entirely — a wall stamp here would break the fault-recovery
  // suite's byte comparison of reports across identical runs.
  EXPECT_EQ(make_report().find("generated_at"), nullptr);
}

TEST(ObsReport, GeneratedAtPresentWhenStamped) {
  obs::ReportInputs in;
  in.scheduler = "test";
  in.num_devices = 1;
  in.metrics.set("makespan_s", 1.0);
  obs::DeviceRollup d0;
  d0.device = 0;
  d0.busy_s = 1.0;
  d0.utilization = 1.0;
  in.devices.push_back(d0);
  in.makespan_s = 1.0;
  const obs::MetricsRegistry registry;

  const obs::JsonValue unstamped = obs::build_report(in, registry);
  EXPECT_EQ(unstamped.find("generated_at"), nullptr);

  in.generated_at = "2026-02-03T04:05:06Z";
  const obs::JsonValue stamped = obs::build_report(in, registry);
  EXPECT_EQ(stamped.at("generated_at").as_string(), "2026-02-03T04:05:06Z");
  EXPECT_EQ(obs::validate_report(stamped), "");
}

TEST(ObsReport, BuildReportDirectWithEmptyRegistry) {
  obs::ReportInputs in;
  in.scheduler = "test";
  in.num_devices = 2;
  in.metrics.set("makespan_s", 1.0);
  obs::DeviceRollup d0;
  d0.device = 0;
  d0.busy_s = 0.5;
  d0.utilization = 0.5;
  in.devices.push_back(d0);
  in.makespan_s = 1.0;
  const obs::MetricsRegistry empty;
  const obs::JsonValue report = obs::build_report(in, empty);
  EXPECT_EQ(obs::validate_report(report), "");
  EXPECT_EQ(report.at("registry").at("counters").members().size(), 0u);
}

}  // namespace
}  // namespace micco
