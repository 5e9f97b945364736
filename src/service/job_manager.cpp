#include "service/job_manager.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "obs/names.hpp"

namespace micco::service {

const char* to_string(JobState state) {
  switch (state) {
    case JobState::kQueued: return "QUEUED";
    case JobState::kRunning: return "RUNNING";
    case JobState::kDone: return "DONE";
    case JobState::kFailed: return "FAILED";
    case JobState::kCancelled: return "CANCELLED";
  }
  return "?";
}

JobManager::JobManager(AdmissionConfig config) : config_(std::move(config)) {}

void JobManager::set_registry(obs::MetricsRegistry* registry) {
  const MutexLock lock(mutex_);
  registry_ = registry;
}

SubmitOutcome JobManager::reject_locked(const std::string& tenant_name,
                                        const char* code,
                                        const std::string& reason) {
  ++rejected_;
  tenants_[tenant_name].rejected += 1;
  SubmitOutcome outcome;
  outcome.admitted = false;
  outcome.reject_code = code;
  outcome.reject_reason = reason;
  return outcome;
}

void JobManager::register_idem_locked(const std::string& tenant,
                                      const std::string& idem,
                                      std::uint64_t job_id) {
  if (idem.empty()) return;
  dedup_.emplace(tenant + '\x1f' + idem, job_id);
}

void JobManager::enqueue_locked(Job job) {
  Tenant& tenant = tenants_[job.tenant];
  // Stride re-entry: a tenant going from idle to busy starts at the current
  // virtual time instead of the credit it banked while idle.
  if (tenant.queue.empty()) {
    tenant.pass = std::max(tenant.pass, global_pass_);
  }
  tenant.weight = config_.weight_for(job.tenant);
  tenant.queue.push_back(job.id);
  tenant.admitted += 1;
  job.depth_at_submit = queued_;  // backlog ahead of this job at admission
  register_idem_locked(job.tenant, job.idem, job.id);
  jobs_.emplace(job.id, std::move(job));
  ++queued_;
  ++admitted_;
}

SubmitOutcome JobManager::submit(const std::string& tenant_name,
                                 const std::string& name,
                                 WorkloadStream stream,
                                 const std::string& trace_id,
                                 const std::string& idem, bool hold) {
  const MutexLock lock(mutex_);
  ++submitted_;

  // Idempotent resubmit: an already-known (tenant, token) pair answers with
  // the original job — before the draining check, so a client retrying a
  // lost reply still succeeds while the daemon winds down.
  if (!idem.empty()) {
    const auto dup = dedup_.find(tenant_name + '\x1f' + idem);
    if (dup != dedup_.end()) {
      ++duplicates_;
      SubmitOutcome outcome;
      outcome.admitted = true;
      outcome.duplicate = true;
      outcome.job_id = dup->second;
      return outcome;
    }
  }

  if (draining_) {
    return reject_locked(tenant_name, "draining",
                         "daemon is draining; not admitting new work");
  }
  if (queued_ >= config_.max_queued_total) {
    return reject_locked(tenant_name, "queue_full",
                         "total queue depth limit reached (" +
                             std::to_string(config_.max_queued_total) + ")");
  }
  Tenant& tenant = tenants_[tenant_name];
  if (tenant.queue.size() >= config_.max_queue_per_tenant) {
    return reject_locked(
        tenant_name, "queue_full",
        "tenant '" + tenant_name + "' queue depth limit reached (" +
            std::to_string(config_.max_queue_per_tenant) + ")");
  }

  const std::uint64_t id = next_id_++;
  Job job;
  job.id = id;
  job.tenant = tenant_name;
  job.name = name;
  job.trace_id = trace_id;
  job.idem = idem;
  job.stream = std::move(stream);
  job.state = JobState::kQueued;
  job.held = hold;
  enqueue_locked(std::move(job));

  SubmitOutcome outcome;
  outcome.admitted = true;
  outcome.job_id = id;
  return outcome;
}

bool JobManager::release_job(std::uint64_t job_id) {
  const MutexLock lock(mutex_);
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end() || it->second.state != JobState::kQueued) return false;
  it->second.held = false;
  return true;
}

void JobManager::restore_finished(std::uint64_t job_id,
                                  const std::string& tenant_name,
                                  const std::string& name,
                                  const std::string& trace_id,
                                  const std::string& idem, JobState state,
                                  const std::string& error,
                                  std::optional<obs::JsonValue> result) {
  MICCO_EXPECTS_MSG(state == JobState::kDone || state == JobState::kFailed ||
                        state == JobState::kCancelled,
                    "restore_finished needs a terminal state");
  const MutexLock lock(mutex_);
  if (jobs_.count(job_id) != 0) return;  // duplicate journal record
  Job job;
  job.id = job_id;
  job.tenant = tenant_name;
  job.name = name;
  job.trace_id = trace_id;
  job.idem = idem;
  job.state = state;
  job.error = error;
  job.replayed = true;
  if (result.has_value()) {
    job.result = std::move(*result);
    job.has_result = true;
  }
  register_idem_locked(tenant_name, idem, job_id);
  jobs_.emplace(job_id, std::move(job));
  next_id_ = std::max(next_id_, job_id + 1);

  // The restored book keeps the session accounting invariants: a replayed
  // finished job counts as submitted, admitted and finished here too.
  ++submitted_;
  ++admitted_;
  ++replayed_;
  Tenant& tenant = tenants_[tenant_name];
  tenant.weight = config_.weight_for(tenant_name);
  tenant.admitted += 1;
  switch (state) {
    case JobState::kDone: ++completed_; break;
    case JobState::kFailed: ++failed_; break;
    default: ++cancelled_; break;
  }
}

void JobManager::restore_queued(std::uint64_t job_id,
                                const std::string& tenant_name,
                                const std::string& name,
                                const std::string& trace_id,
                                const std::string& idem,
                                WorkloadStream stream) {
  const MutexLock lock(mutex_);
  if (jobs_.count(job_id) != 0) return;  // duplicate journal record
  Job job;
  job.id = job_id;
  job.tenant = tenant_name;
  job.name = name;
  job.trace_id = trace_id;
  job.idem = idem;
  job.stream = std::move(stream);
  job.state = JobState::kQueued;
  job.interrupted = true;
  ++submitted_;
  ++requeued_;
  enqueue_locked(std::move(job));
  next_id_ = std::max(next_id_, job_id + 1);
}

std::optional<std::uint64_t> JobManager::next_job() {
  const MutexLock lock(mutex_);
  // Smallest pass wins; ties break by tenant name (map iteration order), so
  // dispatch is a pure function of the submission sequence. A tenant whose
  // front job is still held (admission record not yet durable) is skipped
  // whole: overtaking the held job would break per-tenant FIFO order.
  Tenant* best = nullptr;
  for (auto& [name, tenant] : tenants_) {
    if (tenant.queue.empty()) continue;
    if (jobs_.at(tenant.queue.front()).held) continue;
    if (best == nullptr || tenant.pass < best->pass) best = &tenant;
  }
  if (best == nullptr) return std::nullopt;

  const std::uint64_t id = best->queue.front();
  best->queue.pop_front();
  best->pass += kStrideUnit / static_cast<std::uint64_t>(best->weight);
  global_pass_ = std::max(global_pass_, best->pass);

  Job& job = jobs_.at(id);
  MICCO_ASSERT(job.state == JobState::kQueued);
  job.state = JobState::kRunning;
  job.dispatch_seq = ++dispatch_seq_;
  MICCO_ASSERT(queued_ > 0);
  --queued_;
  ++running_;
  if (registry_ != nullptr) {
    registry_->counter(obs::names::kServiceDispatched).add();
  }
  return id;
}

WorkloadStream JobManager::take_stream(std::uint64_t job_id) {
  const MutexLock lock(mutex_);
  const auto it = jobs_.find(job_id);
  MICCO_EXPECTS_MSG(it != jobs_.end() && it->second.state == JobState::kRunning,
                    "take_stream needs a RUNNING job");
  return std::move(it->second.stream);
}

void JobManager::record_finish_locked(const Job& job,
                                      const CompletionTiming& timing) {
  if (config_.slo_ms > 0.0) {
    Tenant& tenant = tenants_[job.tenant];
    (timing.e2e_latency_ms <= config_.slo_ms ? tenant.slo_ok
                                              : tenant.slo_miss) += 1;
  }
  if (registry_ == nullptr) return;
  namespace names = obs::names;
  registry_
      ->histogram(names::kServiceQueueLatencyMs,
                  names::wall_latency_bounds_ms())
      .observe(timing.queue_latency_ms);
  registry_
      ->histogram(names::tenant_metric(job.tenant, names::kTenantQueueLatencyMs),
                  names::wall_latency_bounds_ms())
      .observe(timing.queue_latency_ms);
  registry_
      ->histogram(names::tenant_metric(job.tenant, names::kTenantE2eLatencyMs),
                  names::wall_latency_bounds_ms())
      .observe(timing.e2e_latency_ms);
  registry_
      ->histogram(names::tenant_metric(job.tenant, names::kTenantJobSimMs),
                  names::job_sim_ms_bounds())
      .observe(timing.sim_makespan_ms);
}

void JobManager::complete(std::uint64_t job_id, obs::JsonValue result,
                          const CompletionTiming& timing) {
  const MutexLock lock(mutex_);
  Job& job = jobs_.at(job_id);
  MICCO_ASSERT(job.state == JobState::kRunning);
  job.state = JobState::kDone;
  job.result = std::move(result);
  job.has_result = true;
  MICCO_ASSERT(running_ > 0);
  --running_;
  ++completed_;
  record_finish_locked(job, timing);
}

void JobManager::fail(std::uint64_t job_id, const std::string& error,
                      obs::JsonValue result, const CompletionTiming& timing) {
  const MutexLock lock(mutex_);
  Job& job = jobs_.at(job_id);
  MICCO_ASSERT(job.state == JobState::kRunning);
  job.state = JobState::kFailed;
  job.error = error;
  job.result = std::move(result);
  job.has_result = true;
  MICCO_ASSERT(running_ > 0);
  --running_;
  ++failed_;
  record_finish_locked(job, timing);
}

void JobManager::begin_drain() {
  const MutexLock lock(mutex_);
  draining_ = true;
}

bool JobManager::draining() const {
  const MutexLock lock(mutex_);
  return draining_;
}

std::vector<std::uint64_t> JobManager::cancel_queued() {
  const MutexLock lock(mutex_);
  std::vector<std::uint64_t> cancelled;
  for (auto& [name, tenant] : tenants_) {
    for (const std::uint64_t id : tenant.queue) {
      Job& job = jobs_.at(id);
      MICCO_ASSERT(job.state == JobState::kQueued);
      job.state = JobState::kCancelled;
      job.stream = WorkloadStream{};  // drop the payload
      cancelled.push_back(id);
    }
    tenant.queue.clear();
  }
  MICCO_ASSERT(cancelled.size() == queued_);
  queued_ = 0;
  cancelled_ += cancelled.size();
  return cancelled;
}

bool JobManager::cancel_queued_job(std::uint64_t job_id) {
  const MutexLock lock(mutex_);
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end() || it->second.state != JobState::kQueued) return false;
  Job& job = it->second;
  Tenant& tenant = tenants_.at(job.tenant);
  const auto pos = std::find(tenant.queue.begin(), tenant.queue.end(), job_id);
  MICCO_ASSERT(pos != tenant.queue.end());
  tenant.queue.erase(pos);
  job.state = JobState::kCancelled;
  job.stream = WorkloadStream{};
  if (!job.idem.empty()) {
    dedup_.erase(job.tenant + '\x1f' + job.idem);
  }
  MICCO_ASSERT(queued_ > 0);
  --queued_;
  ++cancelled_;
  return true;
}

JobStatus JobManager::status_locked(const Job& job) const {
  JobStatus out;
  out.job_id = job.id;
  out.tenant = job.tenant;
  out.name = job.name;
  out.state = job.state;
  out.error = job.error;
  out.interrupted = job.interrupted;
  out.replayed = job.replayed;
  if (job.state == JobState::kQueued) {
    const auto tenant_it = tenants_.find(job.tenant);
    MICCO_ASSERT(tenant_it != tenants_.end());
    const std::deque<std::uint64_t>& queue = tenant_it->second.queue;
    const auto pos = std::find(queue.begin(), queue.end(), job.id);
    out.queue_position = pos == queue.end()
                             ? -1
                             : static_cast<std::int64_t>(pos - queue.begin());
  }
  return out;
}

std::optional<JobStatus> JobManager::status(std::uint64_t job_id) const {
  const MutexLock lock(mutex_);
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return std::nullopt;
  return status_locked(it->second);
}

std::optional<StatusSnapshot> JobManager::status_with_result(
    std::uint64_t job_id) const {
  const MutexLock lock(mutex_);
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return std::nullopt;
  StatusSnapshot snap;
  snap.status = status_locked(it->second);
  if (it->second.has_result) snap.result = it->second.result;
  return snap;
}

DispatchInfo JobManager::dispatch_info(std::uint64_t job_id) const {
  const MutexLock lock(mutex_);
  const auto it = jobs_.find(job_id);
  MICCO_EXPECTS_MSG(it != jobs_.end(), "dispatch_info needs a known job");
  DispatchInfo info;
  info.trace_id = it->second.trace_id;
  info.tenant = it->second.tenant;
  info.dispatch_seq = it->second.dispatch_seq;
  info.depth_at_submit = it->second.depth_at_submit;
  return info;
}

bool JobManager::idle() const {
  const MutexLock lock(mutex_);
  return queued_ == 0 && running_ == 0;
}

std::size_t JobManager::queued_total() const {
  const MutexLock lock(mutex_);
  return queued_;
}

obs::JsonValue JobManager::stats() const {
  const MutexLock lock(mutex_);
  obs::JsonValue doc = obs::JsonValue::object();
  doc.set("queued", static_cast<std::uint64_t>(queued_));
  doc.set("running", static_cast<std::uint64_t>(running_));
  doc.set("submitted", submitted_);
  doc.set("admitted", admitted_);
  doc.set("rejected", rejected_);
  doc.set("completed", completed_);
  doc.set("failed", failed_);
  doc.set("cancelled", cancelled_);
  doc.set("duplicates", duplicates_);
  doc.set("replayed", replayed_);
  doc.set("requeued", requeued_);
  doc.set("draining", draining_);
  obs::JsonValue tenants = obs::JsonValue::object();
  for (const auto& [name, tenant] : tenants_) {
    obs::JsonValue entry = obs::JsonValue::object();
    entry.set("queued", static_cast<std::uint64_t>(tenant.queue.size()));
    entry.set("weight", tenant.weight);
    entry.set("admitted", tenant.admitted);
    entry.set("rejected", tenant.rejected);
    entry.set("slo_ok", tenant.slo_ok);
    entry.set("slo_miss", tenant.slo_miss);
    tenants.set(name, std::move(entry));
  }
  doc.set("tenants", std::move(tenants));
  return doc;
}

}  // namespace micco::service
