// Experiment helpers shared by the benches and examples: scheduler
// construction by kind, and side-by-side scheduler comparisons on one
// workload (fresh cluster per run, identical seeds).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "sched/baselines.hpp"
#include "sched/micco_scheduler.hpp"

namespace micco {

enum class SchedulerKind {
  kGroute,
  kDmda,          ///< StarPU-style data-aware earliest-finish baseline
  kMiccoNaive,    ///< MICCO heuristic, zero reuse bounds
  kMiccoOptimal,  ///< MICCO heuristic + regression-predicted bounds
};

const char* to_string(SchedulerKind kind);

/// Builds a scheduler instance. kMiccoOptimal still needs a BoundsProvider
/// passed to run_stream to receive per-vector bounds.
std::unique_ptr<Scheduler> make_scheduler(SchedulerKind kind,
                                          std::uint64_t seed = 7);

struct ComparisonEntry {
  SchedulerKind kind;
  std::string name;
  RunResult result;

  double gflops() const { return result.metrics.gflops(); }
};

/// Runs each scheduler on its own fresh simulated cluster over the same
/// stream. `optimal_bounds` feeds kMiccoOptimal (and is ignored by the
/// rest); pass nullptr to skip that entry even if requested.
std::vector<ComparisonEntry> compare_schedulers(
    const WorkloadStream& stream, const ClusterConfig& cluster,
    const std::vector<SchedulerKind>& kinds,
    BoundsProvider* optimal_bounds = nullptr);

/// Speedup of entry `name` over entry `baseline` within a comparison.
double speedup_of(const std::vector<ComparisonEntry>& entries,
                  SchedulerKind which, SchedulerKind baseline);

}  // namespace micco
