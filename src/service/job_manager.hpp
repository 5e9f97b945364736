// Multi-tenant job queueing with admission control and weighted fair share
// (DESIGN.md §6).
//
// The JobManager is the daemon's book of record: every submitted workload
// becomes a Job with a lifecycle (QUEUED → RUNNING → DONE/FAILED/CANCELLED),
// per-tenant FIFO queues bounded by admission control (a full queue rejects
// with a structured reason instead of buffering without limit), and a
// weighted-fair-share dispatcher (stride scheduling: each tenant accrues
// virtual time inversely proportional to its weight; the tenant with the
// smallest pass dispatches next, ties broken by tenant name so dispatch
// order is a pure function of the submission sequence).
//
// Crash recovery (DESIGN.md §8): the server replays its journal through
// restore_finished() / restore_queued() before serving, so the book of
// record survives a restart — finished jobs answer status again (marked
// replayed), interrupted jobs re-enter their tenant queue in the
// original admission order. Submits may carry a client-minted idempotency
// token; a (tenant, token) pair already in the dedup table answers with the
// original job id (duplicate = true) instead of admitting a second run.
//
// Thread safety: every public method locks the internal annotated mutex, so
// I/O lanes may submit/query concurrently with the dispatcher thread. That
// mutex is the only lock the daemon's threads share: the drain phase, each
// job's submit time and the dispatcher's wait (wait_next_job) all live
// behind it. Dispatch order — and therefore the decision log — is
// deterministic for a fixed submission order; concurrent submitters only
// make the *arrival* order nondeterministic, never the accounting
// (admitted + rejected + duplicates == submitted always holds, refusals
// before admission included).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/lock_ranks.hpp"
#include "common/mutex.hpp"
#include "obs/clock.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "workload/task.hpp"

namespace micco::service {

enum class JobState {
  kQueued,
  kRunning,
  kDone,
  kFailed,
  kCancelled,
};

const char* to_string(JobState state);

/// Admission + fair-share policy knobs.
struct AdmissionConfig {
  /// Largest dispatch weight. A dispatch advances its tenant's stride pass
  /// by JobManager's kStrideUnit / weight; a heavier tenant would advance
  /// by 0, and every tenant that sorts after it would wait out its backlog.
  static constexpr int kMaxWeight = 1 << 20;

  /// Queued jobs allowed per tenant; a submit beyond this rejects.
  std::size_t max_queue_per_tenant = 64;
  /// Queued jobs allowed across all tenants.
  std::size_t max_queued_total = 256;
  /// Dispatch weight per tenant; absent tenants weigh 1.
  /// Higher weight = proportionally more dispatches under contention.
  std::map<std::string, int> tenant_weights;

  /// End-to-end latency objective (wall ms, submit → terminal state). Each
  /// finished job increments its tenant's slo_ok or slo_miss in stats();
  /// 0 disables SLO accounting.
  double slo_ms = 0.0;

  /// Empty when every tenant weight lies in 1..kMaxWeight, else a
  /// complaint naming the first one that does not.
  std::string validate() const;

  int weight_for(const std::string& tenant) const {
    const auto it = tenant_weights.find(tenant);
    const int w = it == tenant_weights.end() ? 1 : it->second;
    return w > 0 ? w : 1;
  }
};

/// Outcome of one submit() call.
struct SubmitOutcome {
  bool admitted = false;
  /// The (tenant, idempotency token) pair was already admitted: job_id is
  /// the original job, no new work was enqueued, nothing new to journal.
  bool duplicate = false;
  std::uint64_t job_id = 0;    ///< valid when admitted
  std::string reject_code;     ///< protocol error code when rejected
  std::string reject_reason;   ///< human-readable reason when rejected
};

/// Snapshot of one job's externally visible state.
struct JobStatus {
  std::uint64_t job_id = 0;
  std::string tenant;
  std::string name;
  JobState state = JobState::kQueued;
  /// 0-based position in the tenant queue while QUEUED, else -1.
  std::int64_t queue_position = -1;
  std::string error;  ///< FAILED only
  /// Crash recovery re-admitted this job (it was QUEUED or RUNNING when the
  /// previous daemon incarnation died and has been re-run from scratch).
  bool interrupted = false;
  /// This job finished in a previous incarnation; its state and result were
  /// replayed from the journal.
  bool replayed = false;
};

/// Status and (when finished) result in one consistent capture — the
/// status reply assembly takes exactly one lock acquisition.
struct StatusSnapshot {
  JobStatus status;
  std::optional<obs::JsonValue> result;  ///< present once DONE/FAILED
};

/// Trace bookkeeping the dispatcher needs when it picks up a job.
struct DispatchInfo {
  std::string trace_id;  ///< client-minted, may be empty
  std::string tenant;
  std::uint64_t dispatch_seq = 0;    ///< 1-based daemon dispatch order
  std::uint64_t depth_at_submit = 0; ///< total queued jobs when admitted
  /// Clock time the job became dispatchable (its submit, or the release of
  /// a held submit); -1 for a job re-admitted from the journal.
  double submit_ms = -1.0;
};

/// Wall-clock measurements for one finished job (dispatcher-computed via
/// obs::Clock) plus the deterministic simulated makespan.
struct CompletionTiming {
  double queue_latency_ms = 0.0;  ///< submit → dispatch
  double e2e_latency_ms = 0.0;    ///< submit → terminal state (SLO basis)
  double sim_makespan_ms = 0.0;   ///< simulated; feeds job_sim_ms histogram
};

class JobManager {
 public:
  /// `clock` stamps each job's submit time (nullptr: the process-wide
  /// default clock). Not owned.
  explicit JobManager(AdmissionConfig config = {},
                      obs::Clock* clock = nullptr);

  /// Optional metrics registry for what stats() does not hold: the dispatch
  /// counter and the latency histograms, kept under the manager's own lock.
  /// Not owned; must outlive the manager (or be detached with nullptr).
  void set_registry(obs::MetricsRegistry* registry);

  /// Admission-controlled enqueue. On success the stream is stored and a
  /// fresh job id (monotone from 1) is returned; on rejection the outcome
  /// carries a protocol error code + reason and nothing is stored.
  /// `trace_id` is the client-minted trace identity (empty when the client
  /// sent none; the server then falls back to "job-<id>"). `idem` is the
  /// client-minted idempotency token: when non-empty and already known for
  /// this tenant, the outcome is admitted + duplicate with the original job
  /// id and nothing is enqueued. The dedup check precedes the draining
  /// check so a resubmit for an already-admitted job succeeds during drain.
  /// `hold` admits the job invisible to next_job() until release_job() —
  /// the server's write-ahead gate: a journaling server holds every
  /// admission until its `admitted` record is durable, so the dispatcher
  /// can never run (and journal the finish of) a job whose admission a
  /// crash could forget.
  SubmitOutcome submit(const std::string& tenant, const std::string& name,
                       WorkloadStream stream, const std::string& trace_id = "",
                       const std::string& idem = "", bool hold = false);

  /// A submit refused before it reached submit() (its workload did not
  /// parse or failed the structure check): counted as submitted and
  /// rejected, for the tenant too. Returns the rejecting outcome.
  SubmitOutcome reject(const std::string& tenant, const char* code,
                       const std::string& reason);

  /// Makes a held submit dispatchable (its admission record went durable)
  /// and stamps its submit time.
  /// True when the job exists and is still QUEUED; false when it is unknown
  /// or already left QUEUED (e.g. a concurrent shutdown cancelled it).
  bool release_job(std::uint64_t job_id);

  // -- Journal replay (server startup, before serving) ----------------------
  /// Restores a job whose finished record replayed from the journal: it
  /// answers status immediately (marked replayed), is never re-run,
  /// and re-registers its idempotency token. `state` must be terminal.
  void restore_finished(std::uint64_t job_id, const std::string& tenant,
                        const std::string& name, const std::string& trace_id,
                        const std::string& idem, JobState state,
                        const std::string& error,
                        std::optional<obs::JsonValue> result);
  /// Re-admits a job that was QUEUED or RUNNING at crash time (marked
  /// interrupted). Admission is unconditional — the work was already
  /// accepted in a previous incarnation, so queue limits do not re-apply.
  void restore_queued(std::uint64_t job_id, const std::string& tenant,
                      const std::string& name, const std::string& trace_id,
                      const std::string& idem, WorkloadStream stream);

  /// Weighted-fair-share pick: pops the next job and marks it RUNNING.
  /// nullopt when no job is queued. A tenant whose front job is held (see
  /// submit's `hold`) is skipped entirely — queue order within a tenant is
  /// FIFO, so a held admission must not be overtaken by its queue neighbor.
  std::optional<std::uint64_t> next_job();

  /// The dispatcher's wait: blocks until next_job() has a job and returns
  /// it, or returns nullopt once drained(). Every change that can end the
  /// wait (an unheld submit, release_job, begin_drain, the cancels)
  /// notifies it.
  std::optional<std::uint64_t> wait_next_job();

  /// The stored workload of a RUNNING job (moved out; call exactly once per
  /// dispatch). Aborts if the job is not RUNNING.
  WorkloadStream take_stream(std::uint64_t job_id);

  /// Trace identity + queue provenance of a RUNNING job. Aborts on unknown
  /// job ids (dispatcher-internal, never fed external input).
  DispatchInfo dispatch_info(std::uint64_t job_id) const;

  /// Terminal transitions for the dispatcher. `result` is retained for
  /// pickup via status_with_result(); `timing` feeds the global
  /// queue-latency histogram, the per-tenant latency histograms and the
  /// tenant's SLO totals.
  void complete(std::uint64_t job_id, obs::JsonValue result,
                const CompletionTiming& timing);
  void fail(std::uint64_t job_id, const std::string& error,
            obs::JsonValue result, const CompletionTiming& timing);

  /// Stops admission: subsequent submits reject with `draining`. Queued
  /// jobs still dispatch (graceful drain finishes the backlog).
  void begin_drain();
  bool draining() const;
  /// Draining and idle: the session can end. A held job counts as queued.
  bool drained() const;

  /// Cancels every queued job (shutdown semantics: in-flight work finishes,
  /// the backlog does not). Returns the cancelled job ids in tenant-map /
  /// queue order so the server can journal each cancellation.
  std::vector<std::uint64_t> cancel_queued();

  /// Cancels one QUEUED job (the server's rollback when the admission
  /// record could not be journaled): removed from its tenant queue, marked
  /// CANCELLED, idempotency token released. False when the job is unknown
  /// or not QUEUED.
  bool cancel_queued_job(std::uint64_t job_id);

  // -- Queries --------------------------------------------------------------
  std::optional<JobStatus> status(std::uint64_t job_id) const;
  /// Status and result in one lock acquisition — the snapshot is internally
  /// consistent even while the dispatcher races to finish the job.
  std::optional<StatusSnapshot> status_with_result(std::uint64_t job_id) const;

  std::size_t queued_total() const;

  /// The one book of the session's job totals: {"queued": n, "running": n,
  /// "submitted": n, "admitted": n, ..., "tenants": {name: {"queued": n,
  /// "weight": w, "admitted": n, ..., "slo_ok": n, "slo_miss": n}}}.
  obs::JsonValue stats() const;

 private:
  struct Job {
    std::uint64_t id = 0;
    std::string tenant;
    std::string name;
    std::string trace_id;
    std::string idem;  ///< idempotency token, empty when none
    WorkloadStream stream;
    JobState state = JobState::kQueued;
    std::string error;
    obs::JsonValue result;
    bool has_result = false;
    bool interrupted = false;  ///< re-admitted by crash recovery
    bool replayed = false;     ///< finished state replayed from the journal
    /// Admission not yet durable: invisible to next_job() until
    /// release_job() clears it (the server's write-ahead dispatch gate).
    bool held = false;
    std::uint64_t dispatch_seq = 0;     ///< assigned by next_job()
    std::uint64_t depth_at_submit = 0;  ///< queued_ total when admitted
    double submit_ms = -1.0;            ///< see DispatchInfo::submit_ms
  };

  struct Tenant {
    std::deque<std::uint64_t> queue;
    /// Stride-scheduling virtual time: pass += kStrideUnit / weight on each
    /// dispatch. Fixed-point (integer) so accumulation is exact and
    /// platform-independent.
    std::uint64_t pass = 0;
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t slo_ok = 0;
    std::uint64_t slo_miss = 0;
  };

  /// Pass advance of a weight-1 dispatch; a weight of kMaxWeight advances
  /// by 1.
  static constexpr std::uint64_t kStrideUnit = AdmissionConfig::kMaxWeight;

  SubmitOutcome reject_locked(const std::string& tenant, const char* code,
                              const std::string& reason)
      MICCO_REQUIRES(mutex_);
  /// Shared enqueue tail of submit() and restore_queued(): stride re-entry,
  /// queue push, admission totals.
  void enqueue_locked(Job job) MICCO_REQUIRES(mutex_);
  std::optional<std::uint64_t> next_job_locked() MICCO_REQUIRES(mutex_);
  bool drained_locked() const MICCO_REQUIRES(mutex_);
  /// Registers a (tenant, token) pair in the dedup table (no-op for empty
  /// tokens; first writer wins so replayed registrations cannot clobber).
  void register_idem_locked(const std::string& tenant, const std::string& idem,
                            std::uint64_t job_id) MICCO_REQUIRES(mutex_);
  JobStatus status_locked(const Job& job) const MICCO_REQUIRES(mutex_);
  /// Shared terminal-transition tail: latency histograms + SLO accounting.
  void record_finish_locked(const Job& job, const CompletionTiming& timing)
      MICCO_REQUIRES(mutex_);

  AdmissionConfig config_;
  obs::Clock* clock_;  ///< stamps submit times; not owned
  mutable Mutex mutex_{"JobManager::mutex_", kLockRankJobManager};
  /// Signalled whenever wait_next_job()'s condition may have changed.
  CondVar dispatch_ready_ MICCO_GUARDED_BY(mutex_);
  obs::MetricsRegistry* registry_ MICCO_GUARDED_BY(mutex_) = nullptr;
  std::map<std::uint64_t, Job> jobs_ MICCO_GUARDED_BY(mutex_);
  std::map<std::string, Tenant> tenants_ MICCO_GUARDED_BY(mutex_);
  /// tenant + '\x1f' + idempotency token → original job id. Rebuilt from
  /// the journal's admitted records on replay.
  std::map<std::string, std::uint64_t> dedup_ MICCO_GUARDED_BY(mutex_);
  std::uint64_t next_id_ MICCO_GUARDED_BY(mutex_) = 1;
  std::uint64_t dispatch_seq_ MICCO_GUARDED_BY(mutex_) = 0;
  std::size_t queued_ MICCO_GUARDED_BY(mutex_) = 0;
  std::size_t running_ MICCO_GUARDED_BY(mutex_) = 0;
  bool draining_ MICCO_GUARDED_BY(mutex_) = false;
  /// Highest pass handed out so far: newly active tenants start here so a
  /// tenant cannot bank credit while idle (standard stride re-entry rule).
  std::uint64_t global_pass_ MICCO_GUARDED_BY(mutex_) = 0;

  // Session totals, read by stats() only.
  std::uint64_t submitted_ MICCO_GUARDED_BY(mutex_) = 0;
  std::uint64_t admitted_ MICCO_GUARDED_BY(mutex_) = 0;
  std::uint64_t rejected_ MICCO_GUARDED_BY(mutex_) = 0;
  std::uint64_t completed_ MICCO_GUARDED_BY(mutex_) = 0;
  std::uint64_t failed_ MICCO_GUARDED_BY(mutex_) = 0;
  std::uint64_t cancelled_ MICCO_GUARDED_BY(mutex_) = 0;
  std::uint64_t duplicates_ MICCO_GUARDED_BY(mutex_) = 0;
  std::uint64_t replayed_ MICCO_GUARDED_BY(mutex_) = 0;
  std::uint64_t requeued_ MICCO_GUARDED_BY(mutex_) = 0;
};

}  // namespace micco::service
