#include "core/experiment.hpp"

#include "common/assert.hpp"
#include "parallel/parallel.hpp"

namespace micco {

const char* to_string(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kGroute: return "Groute";
    case SchedulerKind::kDmda: return "dmda";
    case SchedulerKind::kMiccoNaive: return "MICCO-naive";
    case SchedulerKind::kMiccoOptimal: return "MICCO-optimal";
  }
  return "?";
}

std::unique_ptr<Scheduler> make_scheduler(SchedulerKind kind,
                                          std::uint64_t seed) {
  switch (kind) {
    case SchedulerKind::kGroute:
      return std::make_unique<GrouteScheduler>();
    case SchedulerKind::kDmda:
      return std::make_unique<DmdaScheduler>();
    case SchedulerKind::kMiccoNaive:
    case SchedulerKind::kMiccoOptimal: {
      MiccoSchedulerOptions options;
      options.seed = seed;
      return std::make_unique<MiccoScheduler>(options);
    }
  }
  MICCO_ASSERT_MSG(false, "unreachable scheduler kind");
  return nullptr;
}

std::vector<ComparisonEntry> compare_schedulers(
    const WorkloadStream& stream, const ClusterConfig& cluster,
    const std::vector<SchedulerKind>& kinds, BoundsProvider* optimal_bounds) {
  std::vector<SchedulerKind> runnable;
  runnable.reserve(kinds.size());
  for (const SchedulerKind kind : kinds) {
    if (kind == SchedulerKind::kMiccoOptimal && optimal_bounds == nullptr) {
      continue;
    }
    runnable.push_back(kind);
  }
  // Each kind runs on its own scheduler and its own simulated cluster (built
  // inside run_stream), so the comparisons are independent; parallel_map
  // keeps the entries in kind order regardless of which finishes first.
  return parallel::parallel_map(runnable.size(), [&](std::size_t i) {
    const SchedulerKind kind = runnable[i];
    const std::unique_ptr<Scheduler> scheduler = make_scheduler(kind);
    BoundsProvider* bounds =
        kind == SchedulerKind::kMiccoOptimal ? optimal_bounds : nullptr;
    ComparisonEntry entry;
    entry.kind = kind;
    entry.name = to_string(kind);
    entry.result = run_stream(stream, *scheduler, cluster, bounds);
    return entry;
  });
}

double speedup_of(const std::vector<ComparisonEntry>& entries,
                  SchedulerKind which, SchedulerKind baseline) {
  const ComparisonEntry* target = nullptr;
  const ComparisonEntry* base = nullptr;
  for (const ComparisonEntry& e : entries) {
    if (e.kind == which) target = &e;
    if (e.kind == baseline) base = &e;
  }
  MICCO_EXPECTS_MSG(target != nullptr && base != nullptr,
                    "speedup_of: scheduler missing from comparison");
  MICCO_EXPECTS(base->result.metrics.makespan_s > 0.0);
  return base->result.metrics.makespan_s / target->result.metrics.makespan_s;
}

}  // namespace micco
