#include "sched/scheduler.hpp"

#include "obs/names.hpp"
#include "sched/reuse_pattern.hpp"

namespace micco {

void Scheduler::set_telemetry(obs::Telemetry* telemetry) {
  telemetry_ = telemetry;
  if (telemetry_ == nullptr) {
    instruments_ = DecisionInstruments{};
    return;
  }
  obs::MetricsRegistry& reg = telemetry_->registry;
  instruments_.decisions = &reg.counter(obs::names::kSchedDecisions);
  for (int i = 0; i < 4; ++i) {
    instruments_.pattern[i] = &reg.counter(obs::names::kSchedPattern[i]);
    instruments_.mapping[i] = &reg.counter(obs::names::kSchedMapping[i]);
  }
  for (int i = 0; i < 3; ++i) {
    instruments_.tier[i] = &reg.counter(obs::names::kSchedTier[i]);
  }
  instruments_.fallback = &reg.counter(obs::names::kSchedFallback);
  instruments_.evict_risk = &reg.counter(obs::names::kSchedEvictRisk);
}

const std::vector<DeviceId>& Scheduler::alive_candidates(
    const ClusterView& view) {
  candidate_scratch_.clear();
  candidate_scratch_.reserve(static_cast<std::size_t>(view.num_devices()));
  for (DeviceId dev = 0; dev < view.num_devices(); ++dev) {
    if (view.device_alive(dev)) candidate_scratch_.push_back(dev);
  }
  return candidate_scratch_;
}

const std::vector<DeviceId>& Scheduler::single_candidate(DeviceId dev) {
  candidate_scratch_.clear();
  candidate_scratch_.push_back(dev);
  return candidate_scratch_;
}

void Scheduler::record_decision(const ContractionTask& task,
                                const ClusterView& view,
                                const std::vector<DeviceId>& candidates,
                                DeviceId chosen, int bound_tier,
                                std::int64_t bound_value,
                                std::int64_t balance_num, bool fallback,
                                bool evict_risk) {
  if (telemetry_ == nullptr) return;

  // The pair and the mapping are classified against residency *before*
  // execution mutates it, which is exactly the state the decision was made
  // on.
  const ClusterIndex& index = view.cluster_index();
  const LocalReusePattern pattern = classify_pair(task, index);
  const MappingClass mapping = classify_mapping(task, chosen, index);

  instruments_.decisions->add();
  instruments_.pattern[static_cast<int>(pattern)]->add();
  instruments_.mapping[static_cast<int>(mapping) - 1]->add();
  if (bound_tier >= 0 && bound_tier < 3) {
    instruments_.tier[bound_tier]->add();
  }
  if (fallback) instruments_.fallback->add();
  if (evict_risk) instruments_.evict_risk->add();

  const std::uint64_t seq = telemetry_->next_seq++;
  if (!telemetry_->has_sink()) return;

  obs::DecisionEvent event;
  event.seq = seq;
  event.vector_index = telemetry_->vector_index;
  event.pair_index = telemetry_->pair_index;
  event.tensor_a = task.a.id;
  event.tensor_b = task.b.id;
  event.tensor_out = task.out.id;
  event.scheduler = name();
  event.pattern = to_string(pattern);
  event.candidates.assign(candidates.begin(), candidates.end());
  event.chosen = chosen;
  event.mapping = to_string(mapping);
  event.bound_tier = bound_tier;
  event.bound_value = bound_value;
  event.balance_num = balance_num;
  event.fallback = fallback;
  event.evict_risk = evict_risk;
  telemetry_->emit(event);
}

}  // namespace micco
