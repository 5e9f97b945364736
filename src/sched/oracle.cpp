#include "sched/oracle.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/assert.hpp"

namespace micco {

namespace {

/// End-of-vector makespan if the remaining tasks were free: the maximum
/// device timeline of the clone.
double current_makespan(const ClusterSimulator& sim) {
  double worst = 0.0;
  for (DeviceId dev = 0; dev < sim.num_devices(); ++dev) {
    worst = std::max(worst, sim.busy_time(dev));
  }
  return worst;
}

struct Candidate {
  ClusterSimulator sim;
  std::vector<DeviceId> devices;
};

}  // namespace

OracleAssignment oracle_search(const VectorWorkload& vec,
                               const ClusterSimulator& base,
                               const OracleOptions& options) {
  MICCO_EXPECTS(!vec.tasks.empty());
  MICCO_EXPECTS(options.beam_width >= 1);

  const auto num_devices = base.num_devices();
  // Exhaustive search must bound the LEAF count, not just the task count:
  // devices^tasks simulator clones blow up fast (8 tasks on 8 devices would
  // be 16.7M). Cap the total frontier work and fall back to beam search.
  constexpr double kMaxLeaves = 65536.0;
  const bool exhaustive =
      vec.tasks.size() <= options.exhaustive_task_limit &&
      std::pow(static_cast<double>(num_devices),
               static_cast<double>(vec.tasks.size())) <= kMaxLeaves;
  const std::size_t beam =
      exhaustive ? std::numeric_limits<std::size_t>::max()
                 : options.beam_width;

  OracleAssignment best;
  best.exhaustive = exhaustive;

  std::vector<Candidate> frontier;
  {
    Candidate root{base, {}};
    root.sim.set_telemetry(nullptr);  // clones never record
    frontier.push_back(std::move(root));
  }

  for (const ContractionTask& task : vec.tasks) {
    std::vector<Candidate> next;
    next.reserve(frontier.size() * static_cast<std::size_t>(num_devices));
    for (const Candidate& candidate : frontier) {
      for (DeviceId dev = 0; dev < num_devices; ++dev) {
        Candidate extended = candidate;
        extended.sim.execute(task, dev);
        extended.devices.push_back(dev);
        ++best.evaluated;
        next.push_back(std::move(extended));
      }
    }
    // Beam pruning: keep the most promising partials by projected makespan;
    // break exact ties deterministically by the assignment prefix.
    if (next.size() > beam) {
      std::stable_sort(next.begin(), next.end(),
                       [](const Candidate& a, const Candidate& b) {
                         return current_makespan(a.sim) <
                                current_makespan(b.sim);
                       });
      next.erase(next.begin() + static_cast<std::ptrdiff_t>(beam),
                 next.end());
    }
    frontier = std::move(next);
  }

  MICCO_ASSERT(!frontier.empty());
  const Candidate* winner = &frontier.front();
  for (const Candidate& candidate : frontier) {
    if (current_makespan(candidate.sim) < current_makespan(winner->sim)) {
      winner = &candidate;
    }
  }
  best.devices = winner->devices;
  best.makespan_s = current_makespan(winner->sim);
  return best;
}

ExecutionMetrics run_oracle(const WorkloadStream& stream,
                            const ClusterConfig& cluster,
                            const OracleOptions& options) {
  ClusterSimulator sim(cluster);
  for (const VectorWorkload& vec : stream.vectors) {
    if (vec.tasks.empty()) continue;
    const OracleAssignment plan = oracle_search(vec, sim, options);
    MICCO_ASSERT(plan.devices.size() == vec.tasks.size());
    for (std::size_t i = 0; i < vec.tasks.size(); ++i) {
      sim.execute(vec.tasks[i], plan.devices[i]);
    }
    sim.barrier();
  }
  return sim.metrics();
}

}  // namespace micco
