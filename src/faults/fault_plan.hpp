// Deterministic fault model.
//
// A FaultPlan is a seed-driven description of everything that goes wrong
// during one simulated run: permanent device failures at fixed simulated
// times, transient transfer faults with a failure probability, per-device
// slowdown (straggler) factors, and spurious capacity losses (e.g. retired
// ECC pages). Plans are plain data — the runtime state that consumes them
// lives in FaultInjector — so the same plan replayed against the same
// workload and seeds reproduces the same faults byte for byte.
//
// Plans load from a small line-based text format (`micco faults`,
// `--fault-plan=FILE`):
//
//   # comments and blank lines are ignored
//   fail <device> <time_s>
//   transfer-faults <probability> [seed]
//   slowdown <device> <factor> [from_time_s]
//   capacity-loss <device> <bytes> <time_s>
//
// Each field is one number read in full: <bytes> and [seed] are unsigned
// decimals, the others decimal numbers that may carry a '-' (validate()
// then refuses a negative one). A line ends after its last field.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

namespace micco {

/// Permanent fail-stop loss of one device at a simulated time. The failure
/// is detected on the device's next use (or at the next stage barrier).
struct DeviceFailure {
  int device = -1;
  double time_s = 0.0;
};

/// Transient transfer faults: every H2D/P2P fetch attempt fails
/// independently with `probability`, drawn from a dedicated PCG32 stream so
/// fault decisions never perturb other seeded randomness.
struct TransferFaultModel {
  double probability = 0.0;
  std::uint64_t seed = 0x00f4417;
};

/// Straggler model: tasks starting on `device` at or after `from_time_s`
/// have their kernel and transfer costs multiplied by `factor`.
struct DeviceSlowdown {
  int device = -1;
  double factor = 1.0;
  double from_time_s = 0.0;
};

/// Spurious capacity loss: at `time_s` the device's usable memory shrinks by
/// `bytes` (applied on the device's next use, evicting residents as needed).
struct CapacityLoss {
  int device = -1;
  std::uint64_t bytes = 0;
  double time_s = 0.0;
};

struct FaultPlan {
  std::vector<DeviceFailure> device_failures;
  TransferFaultModel transfer;
  std::vector<DeviceSlowdown> slowdowns;
  std::vector<CapacityLoss> capacity_losses;

  /// True when the plan injects nothing (attaching it must leave every
  /// metric, report and log byte-identical to running with no plan at all).
  bool empty() const {
    return device_failures.empty() && transfer.probability <= 0.0 &&
           slowdowns.empty() && capacity_losses.empty();
  }

  /// Empty string when the plan is internally consistent for a cluster of
  /// `num_devices` devices, else a human-readable complaint.
  std::string validate(int num_devices) const;

  /// One-line-per-event human summary (the `micco faults` subcommand).
  std::string summary() const;
};

/// Parses the line format described above. Returns nullopt and fills
/// `*error` (when non-null) on malformed input.
std::optional<FaultPlan> parse_fault_plan(std::istream& in,
                                          std::string* error);

/// Loads a plan file; nullopt + `*error` on I/O or parse failure.
std::optional<FaultPlan> load_fault_plan_file(const std::string& path,
                                              std::string* error);

}  // namespace micco
