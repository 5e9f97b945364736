#include "service/server.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/file.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <numeric>
#include <utility>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "core/verify.hpp"
#include "obs/names.hpp"
#include "obs/report.hpp"
#include "parallel/parallel.hpp"
#include "workload/serialize.hpp"

#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0
#endif

namespace micco::service {

namespace {

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// Advisory backoff (seconds) on transient submit rejections (draining,
/// queue_full, journal_error).
constexpr double kRetryAfterHintS = 1.0;

/// Socket poll granularity; also bounds stop_flag reaction latency.
constexpr int kPollTimeoutMs = 20;

/// Parses a submitted workload text and checks its structure, the check
/// `micco run` makes: a stream that consumes a tensor before producing it
/// would trip a simulator precondition. nullopt, with the problem in
/// `error`, for text admission must reject and replay must fail.
std::optional<WorkloadStream> read_workload(const std::string& text,
                                            std::string* error) {
  std::optional<WorkloadStream> stream = load_stream_text(text, error);
  if (!stream.has_value()) return std::nullopt;
  *error = validate_stream_structure(*stream);
  if (!error->empty()) return std::nullopt;
  return stream;
}

}  // namespace

Server::Server(ServerConfig config)
    : config_(std::move(config)), jobs_(config_.admission) {
  jobs_.set_registry(&telemetry_.registry);
  clock_ = config_.clock != nullptr ? config_.clock : obs::default_clock();
}

Server::~Server() {
  if (listener_ >= 0) ::close(listener_);
  if (started_ && !config_.socket_path.empty()) {
    ::unlink(config_.socket_path.c_str());
  }
  // Closing the fd releases the flock; the lock file itself stays on disk
  // (see lock_fd_ in server.hpp).
  if (lock_fd_ >= 0) ::close(lock_fd_);
}

bool Server::start(std::string* error) {
  const auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  if (started_) return fail("server already started");
  if (config_.socket_path.empty()) return fail("socket path is empty");

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (config_.socket_path.size() >= sizeof(addr.sun_path)) {
    return fail("socket path too long (" +
                std::to_string(config_.socket_path.size()) + " bytes, max " +
                std::to_string(sizeof(addr.sun_path) - 1) + ")");
  }
  std::memcpy(addr.sun_path, config_.socket_path.c_str(),
              config_.socket_path.size() + 1);

  // A cluster the simulator would refuse fails every job it dispatches,
  // and a journal would replay those jobs on every restart.
  const std::string cluster_problem = config_.cluster.validate();
  if (!cluster_problem.empty()) return fail(cluster_problem);
  const std::string policy_problem = config_.retry.validate();
  if (!policy_problem.empty()) return fail(policy_problem);
  const std::string admission_problem = config_.admission.validate();
  if (!admission_problem.empty()) return fail(admission_problem);
  if (config_.faults != nullptr) {
    const std::string plan_problem =
        config_.faults->validate(config_.cluster.num_devices);
    if (!plan_problem.empty()) return fail("fault plan: " + plan_problem);
  }

  // Bounds source: the trained model when given. Without one, MICCO keeps
  // the zero triple it is built with.
  if (!config_.model_path.empty()) {
    std::string model_error;
    model_bounds_ = load_bounds_model(config_.model_path, &model_error);
    if (!model_bounds_) return fail(model_error);
  }

  // Session decision log.
  if (!config_.decisions_path.empty()) {
    decisions_file_.open(config_.decisions_path);
    if (!decisions_file_.good()) {
      return fail("cannot open decision log " + config_.decisions_path);
    }
    sink_ = std::make_unique<obs::BufferedJsonlEventSink>(decisions_file_);
    telemetry_.sink = sink_.get();
  }

  // Session span trace.
  if (!config_.spans_path.empty()) {
    spans_file_.open(config_.spans_path);
    if (!spans_file_.good()) {
      return fail("cannot open span trace " + config_.spans_path);
    }
    spans_sink_ = std::make_unique<obs::JsonlSpanSink>(spans_file_);
  }

  // Fail on an unwritable report path before serving, not after.
  if (!config_.report_path.empty() &&
      !std::ofstream(config_.report_path).good()) {
    return fail("cannot open report path " + config_.report_path);
  }

  scheduler_name_ = make_scheduler(config_.scheduler, config_.seed)->name();
  device_busy_s_.assign(
      static_cast<std::size_t>(config_.cluster.num_devices), 0.0);

  // Startup serialization: an exclusive flock on a sidecar lock file,
  // acquired before journal recovery and held until this server is
  // destroyed. Two daemons racing the same socket path would otherwise
  // both replay/truncate the journal, and the probe-then-unlink takeover
  // below has a TOCTOU window (between a failed probe and the unlink, a
  // concurrent starter could bind — and lose its live socket to our
  // unlink). flock serializes all of it and dies with the process, so a
  // SIGKILLed daemon never wedges restarts.
  {
    const std::string lock_path = config_.socket_path + ".lock";
    int fd = -1;
    for (;;) {
      fd = ::open(lock_path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
      if (fd >= 0 || errno != EINTR) break;
    }
    if (fd < 0) {
      return fail("cannot open lock file " + lock_path + ": " +
                  std::string(strerror(errno)));
    }
    if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
      ::close(fd);
      return fail("another daemon is starting or serving on " +
                  config_.socket_path + " (lock " + lock_path +
                  " is held); refusing to start");
    }
    lock_fd_ = fd;
  }

  // Replay + reopen the journal before accepting connections, so the first
  // client already sees the recovered book of record.
  if (!recover_from_journal(error)) return false;

  // A crashed daemon leaves its socket file behind, and a restart must not
  // need manual cleanup — but a live daemon must never have its socket
  // yanked out from under it either. The probe backs up the flock above
  // (e.g. against a manually deleted lock file): an answer means another
  // instance is serving; no answer means the file is stale and — under the
  // lock — safe to unlink.
  {
    const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (probe >= 0) {
      const bool alive = ::connect(probe,
                                   reinterpret_cast<const sockaddr*>(&addr),
                                   sizeof(addr)) == 0;
      ::close(probe);
      if (alive) {
        return fail("another daemon is already serving on " +
                    config_.socket_path +
                    " (probe connect answered); refusing to start");
      }
    }
    ::unlink(config_.socket_path.c_str());  // stale leftover, or ENOENT
  }

  listener_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener_ < 0) return fail("socket(): " + std::string(strerror(errno)));
  if (::bind(listener_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const int err = errno;
    ::close(listener_);
    listener_ = -1;
    return fail("bind(" + config_.socket_path +
                "): " + std::string(strerror(err)));
  }
  if (::listen(listener_, 64) != 0 || !set_nonblocking(listener_)) {
    const int err = errno;
    ::close(listener_);
    listener_ = -1;
    ::unlink(config_.socket_path.c_str());
    return fail("listen(): " + std::string(strerror(err)));
  }
  decision_scratch_ = std::make_unique<obs::HistogramScratch>(
      obs::names::decision_latency_bounds_us());

  started_ = true;
  session_start_ms_ = clock_->monotonic_ms();
  // The one sanctioned wall-clock capture of the session: everything else
  // is monotonic durations, so only this stamp ties the report to calendar
  // time.
  started_at_utc_ = clock_->wall_time_utc();
  return true;
}

// ---------------------------------------------------------------------------
// Crash safety

bool Server::recover_from_journal(std::string* error) {
  const auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  if (config_.journal.path.empty()) return true;

  const JournalReadResult read = read_journal_file(config_.journal.path);
  if (read.truncated) {
    recovered_torn_tail_ = true;
    telemetry_.registry.counter(obs::names::kServiceTornTail).add();
    log_warn() << "journal " << config_.journal.path << ": " << read.note
               << "; keeping " << read.bytes_consumed << " intact bytes";
    std::string truncate_error;
    if (!truncate_journal_file(config_.journal.path, read.bytes_consumed,
                               &truncate_error)) {
      return fail(truncate_error);
    }
  }

  // A finished record settles a job only when it *follows* that job's
  // admitted record in the journal. An orphaned finished record — one with
  // no admitted record before it, e.g. a crash wedged between a shutdown-
  // cancel append and the admission append it raced — must never attach to
  // a job id that a later incarnation re-issues, or replay would hand one
  // job another job's result. Within the eligible records, the last
  // finished one wins (a re-run after an unjournaled crash may finish a
  // job twice; the results are deterministic either way).
  std::map<std::uint64_t, std::size_t> admitted_at;
  for (std::size_t i = 0; i < read.records.size(); ++i) {
    if (read.records[i].kind == RecordKind::kAdmitted) {
      admitted_at.emplace(read.records[i].job_id, i);  // first admit wins
    }
  }
  std::map<std::uint64_t, const JournalRecord*> finished;
  for (std::size_t i = 0; i < read.records.size(); ++i) {
    const JournalRecord& record = read.records[i];
    if (record.kind != RecordKind::kFinished) continue;
    const auto adm = admitted_at.find(record.job_id);
    if (adm == admitted_at.end() || i < adm->second) continue;  // orphan
    finished[record.job_id] = &record;
  }

  // Replay admitted records in journal order (the dispatched records older
  // daemons wrote carry nothing replay needs). Recovery order equals
  // journal order, so the re-run jobs dispatch exactly as a fresh session
  // would and the --threads=1 decision log stays byte-identical.
  for (const JournalRecord& record : read.records) {
    if (record.kind != RecordKind::kAdmitted) continue;
    const auto fin = finished.find(record.job_id);
    if (fin != finished.end()) {
      const JournalRecord& f = *fin->second;
      const JobState state = f.state == "DONE"     ? JobState::kDone
                             : f.state == "FAILED" ? JobState::kFailed
                                                   : JobState::kCancelled;
      jobs_.restore_finished(record.job_id, record.tenant, record.name,
                             record.trace_id, record.idem, state, f.error,
                             f.has_result
                                 ? std::optional<obs::JsonValue>(f.result)
                                 : std::nullopt);
      ++recovered_finished_;
      continue;
    }
    std::string load_error;
    std::optional<WorkloadStream> stream =
        read_workload(record.workload_text, &load_error);
    if (!stream.has_value()) {
      // Admission checks every workload the same way, so a rejected one
      // here is a serialization regression or a record an older daemon
      // admitted unchecked. Either way it must not run: surface it as a
      // FAILED job that answers status instead of aborting the replay or
      // vanishing from the book.
      jobs_.restore_finished(record.job_id, record.tenant, record.name,
                             record.trace_id, record.idem, JobState::kFailed,
                             "workload rejected after recovery: " +
                                 load_error,
                             std::nullopt);
      ++recovered_finished_;
      continue;
    }
    jobs_.restore_queued(record.job_id, record.tenant, record.name,
                         record.trace_id, record.idem, std::move(*stream));
    ++recovered_requeued_;
  }
  if (recovered_finished_ + recovered_requeued_ > 0) {
    log_info() << "journal " << config_.journal.path << ": replayed "
               << recovered_finished_ << " finished, re-admitted "
               << recovered_requeued_ << " interrupted job(s)";
  }

  journal_.set_telemetry(
      &telemetry_.registry.counter(obs::names::kServiceJournalRecords),
      &telemetry_.registry.counter(obs::names::kServiceJournalBytes),
      &telemetry_.registry.histogram(obs::names::kServiceJournalFsyncMs,
                                     obs::names::journal_fsync_bounds_ms()));
  return journal_.open(config_.journal, error);
}

std::size_t Server::cancel_backlog() {
  const std::vector<std::uint64_t> cancelled = jobs_.cancel_queued();
  if (journal_.is_open()) {
    for (const std::uint64_t id : cancelled) {
      JournalRecord record;
      record.kind = RecordKind::kFinished;
      record.job_id = id;
      record.state = to_string(JobState::kCancelled);
      std::string journal_error;
      if (!journal_.append(record, &journal_error)) {
        log_error() << "shutdown: " << journal_error;
        break;
      }
    }
  }
  return cancelled.size();
}

void Server::journal_finished(std::uint64_t job_id, JobState state,
                              const std::string& error_text,
                              const obs::JsonValue* result) {
  if (!journal_.is_open()) return;
  JournalRecord record;
  record.kind = RecordKind::kFinished;
  record.job_id = job_id;
  record.state = to_string(state);
  record.error = error_text;
  if (result != nullptr) {
    record.result = *result;
    record.has_result = true;
  }
  std::string journal_error;
  if (!journal_.append(record, &journal_error)) {
    // Not fatal: the job still finishes in memory; losing the record only
    // means a restart re-runs the job, which is deterministic.
    log_error() << "job " << job_id << ": " << journal_error;
  }
}

void Server::request_drain() {
  jobs_.begin_drain();
  const MutexLock lock(state_mutex_);
  phase_ = Phase::kDraining;
  dispatch_ready_.notify_all();
}

std::size_t Server::request_shutdown() {
  jobs_.begin_drain();
  const std::size_t cancelled = cancel_backlog();
  const MutexLock lock(state_mutex_);
  phase_ = Phase::kDraining;
  dispatch_ready_.notify_all();
  return cancelled;
}

void Server::check_stop_flag() {
  if (config_.stop_flag != nullptr && *config_.stop_flag != 0) {
    request_drain();
  }
}

bool Server::should_stop() {
  const MutexLock lock(state_mutex_);
  return phase_ == Phase::kDraining && jobs_.idle();
}

// ---------------------------------------------------------------------------
// Request handling

obs::JsonValue Server::handle_frame(const std::string& frame) {
  std::string parse_error;
  const std::optional<obs::JsonValue> doc =
      obs::parse_json(frame, &parse_error);
  if (!doc.has_value()) {
    return make_error_response(error_code::kBadFrame,
                               "malformed frame: " + parse_error);
  }
  obs::JsonValue error_reply;
  const std::optional<Request> request = parse_request(*doc, &error_reply);
  if (!request.has_value()) return error_reply;
  return handle_request(*request);
}

obs::JsonValue Server::handle_request(const Request& request) {
  switch (request.type) {
    case MessageType::kSubmit:
      return handle_submit(request);
    case MessageType::kStatus: {
      // One lock acquisition captures status AND result together, so the
      // reply can never pair a RUNNING state with a result document (or a
      // DONE state with a missing one) when the dispatcher races us.
      const std::optional<StatusSnapshot> snap =
          jobs_.status_with_result(request.job_id);
      if (!snap.has_value()) {
        return make_error_response(
            error_code::kUnknownJob,
            "no job " + std::to_string(request.job_id));
      }
      const JobStatus& status = snap->status;
      obs::JsonValue reply = make_ok_response();
      reply.set("job_id", status.job_id);
      reply.set("tenant", status.tenant);
      if (!status.name.empty()) reply.set("job_name", status.name);
      reply.set("state", to_string(status.state));
      if (status.interrupted) reply.set("interrupted", true);
      if (status.replayed) reply.set("replayed", true);
      if (status.state == JobState::kQueued) {
        reply.set("queue_position", status.queue_position);
      }
      if (status.state == JobState::kFailed && !status.error.empty()) {
        reply.set("error", status.error);
      }
      // The result document once the job finished (the "per-vector
      // scheduling stats" a DONE poll reads).
      if (snap->result.has_value()) reply.set("result", *snap->result);
      return reply;
    }
    case MessageType::kDrain: {
      request_drain();
      obs::JsonValue reply = make_ok_response();
      reply.set("draining", true);
      return reply;
    }
    case MessageType::kShutdown: {
      const std::size_t cancelled = request_shutdown();
      obs::JsonValue reply = make_ok_response();
      reply.set("draining", true);
      reply.set("cancelled", static_cast<std::uint64_t>(cancelled));
      return reply;
    }
    case MessageType::kStats: {
      obs::JsonValue reply = make_ok_response();
      reply.set("stats", jobs_.stats());
      return reply;
    }
    case MessageType::kMetrics: {
      obs::JsonValue reply = make_ok_response();
      reply.set("uptime_s",
                (clock_->monotonic_ms() - session_start_ms_) / 1000.0);
      if (!started_at_utc_.empty()) {
        reply.set("started_at", started_at_utc_);
      }
      reply.set("stats", jobs_.stats());
      reply.set("metrics", telemetry_.registry.quantile_summary());
      return reply;
    }
  }
  return make_error_response(error_code::kBadRequest, "unhandled type");
}

obs::JsonValue Server::handle_submit(const Request& request) {
  std::string load_error;
  std::optional<WorkloadStream> stream =
      read_workload(request.workload_text, &load_error);
  if (!stream.has_value()) {
    return make_error_response(error_code::kBadWorkload,
                               "workload rejected: " + load_error);
  }
  // With a journal open the job is admitted *held*: present in the book of
  // record (and the dedup table) but invisible to the dispatcher until its
  // admitted record is durable. Without the hold, a parallel-mode
  // dispatcher could pop, run and journal the finish of a job whose
  // admission a crash then forgets — leaving an orphaned finished record a
  // re-issued job id could later collide with.
  const SubmitOutcome outcome =
      jobs_.submit(request.tenant, request.job_name, std::move(*stream),
                   request.trace_id, request.idem,
                   /*hold=*/journal_.is_open());
  if (!outcome.admitted) {
    obs::JsonValue reply =
        make_error_response(outcome.reject_code, outcome.reject_reason);
    // Both rejection causes are transient: tell the client when to retry.
    if (outcome.reject_code == error_code::kDraining ||
        outcome.reject_code == error_code::kQueueFull) {
      reply.set("retry_after", kRetryAfterHintS);
    }
    return reply;
  }
  if (outcome.duplicate) {
    // Idempotent resubmit: answer with the original job, run nothing,
    // journal nothing.
    obs::JsonValue reply = make_ok_response();
    reply.set("job_id", outcome.job_id);
    reply.set("tenant", request.tenant);
    reply.set("duplicate", true);
    if (const std::optional<JobStatus> status = jobs_.status(outcome.job_id)) {
      reply.set("state", to_string(status->state));
      if (status->interrupted) reply.set("interrupted", true);
      if (status->replayed) reply.set("replayed", true);
    }
    return reply;
  }
  // Write-ahead: the admission record must be durable before the job can
  // dispatch or the accepting reply leave. The hold above keeps the job
  // out of next_job() across this append; only a successful append
  // releases it. A journal failure rolls the admission back — the client
  // sees a structured, retryable error and the book of record never
  // acknowledges work it could lose.
  if (journal_.is_open()) {
    JournalRecord record;
    record.kind = RecordKind::kAdmitted;
    record.job_id = outcome.job_id;
    record.tenant = request.tenant;
    record.name = request.job_name;
    record.trace_id = request.trace_id;
    record.idem = request.idem;
    record.workload_text = request.workload_text;
    std::string journal_error;
    if (!journal_.append(record, &journal_error)) {
      if (jobs_.cancel_queued_job(outcome.job_id)) {
        log_error() << "submit: " << journal_error << "; job "
                    << outcome.job_id << " rolled back";
        obs::JsonValue reply = make_error_response(
            error_code::kJournalError,
            "admission could not be journaled: " + journal_error);
        reply.set("retry_after", kRetryAfterHintS);
        return reply;
      }
      // The rollback found the job no longer QUEUED. Dispatch is gated on
      // durability, so it cannot be RUNNING; the one legitimate path here
      // is a concurrent shutdown cancelling the backlog — report the
      // journal failure, the admission is void either way. Anything else
      // means the job ran without a durable admitted record: accept the
      // admission (the work is real) and log loudly, because a restart
      // will not remember it.
      const std::optional<JobStatus> status = jobs_.status(outcome.job_id);
      if (!status.has_value() || status->state == JobState::kCancelled) {
        log_error() << "submit: " << journal_error << "; job "
                    << outcome.job_id << " cancelled by concurrent shutdown";
        obs::JsonValue reply = make_error_response(
            error_code::kJournalError,
            "admission could not be journaled: " + journal_error);
        reply.set("retry_after", kRetryAfterHintS);
        return reply;
      }
      log_error() << "submit: " << journal_error << "; job "
                  << outcome.job_id << " already "
                  << to_string(status->state)
                  << " despite the dispatch gate; accepting un-journaled "
                     "admission (a restart will not recover this job)";
      obs::JsonValue reply = make_ok_response();
      reply.set("job_id", outcome.job_id);
      reply.set("tenant", request.tenant);
      if (!request.trace_id.empty()) reply.set("trace", request.trace_id);
      reply.set("state", to_string(status->state));
      return reply;
    }
    jobs_.release_job(outcome.job_id);
  }
  {
    const MutexLock lock(state_mutex_);
    submit_ms_[outcome.job_id] = clock_->monotonic_ms();
    dispatch_ready_.notify_all();
  }
  obs::JsonValue reply = make_ok_response();
  reply.set("job_id", outcome.job_id);
  reply.set("tenant", request.tenant);
  if (!request.trace_id.empty()) reply.set("trace", request.trace_id);
  reply.set("state", to_string(JobState::kQueued));
  return reply;
}

// ---------------------------------------------------------------------------
// Job execution (dispatcher thread only)

void Server::run_job(std::uint64_t job_id) {
  const WorkloadStream stream = jobs_.take_stream(job_id);
  const DispatchInfo info = jobs_.dispatch_info(job_id);

  double submit_ms = -1.0;
  {
    const MutexLock lock(state_mutex_);
    const auto it = submit_ms_.find(job_id);
    if (it != submit_ms_.end()) {
      submit_ms = it->second;
      submit_ms_.erase(it);
    }
  }
  const double dispatch_ms = clock_->monotonic_ms();
  const double queue_ms = submit_ms >= 0.0 ? dispatch_ms - submit_ms : 0.0;

  // Span tree for this job: root "job" (id 1, emitted last so it can carry
  // the outcome), then "queue" and "dispatch" children; run_stream parents
  // its sched/exec/recovery spans at the dispatch span. Every recorded
  // value is deterministic — wall latencies live in histograms, not spans.
  obs::TraceContext trace;
  trace.trace_id = info.trace_id.empty() ? "job-" + std::to_string(job_id)
                                         : info.trace_id;
  trace.job_id = job_id;
  trace.tenant = info.tenant;
  trace.sink = spans_sink_.get();
  const std::uint64_t root_span = trace.alloc();
  const auto emit_span = [&](obs::SpanEvent event, std::uint64_t span_id,
                             std::uint64_t parent_id) {
    event.trace_id = trace.trace_id;
    event.job_id = job_id;
    event.tenant = info.tenant;
    event.span_id = span_id;
    event.parent_id = parent_id;
    spans_sink_->span(std::move(event));
  };
  if (spans_sink_ != nullptr) {
    obs::SpanEvent queue_span;
    queue_span.name = obs::names::kSpanQueue;
    queue_span.attrs_int.emplace_back(
        "dispatch_seq", static_cast<std::int64_t>(info.dispatch_seq));
    queue_span.attrs_int.emplace_back(
        "depth_at_submit", static_cast<std::int64_t>(info.depth_at_submit));
    emit_span(std::move(queue_span), trace.alloc(), root_span);

    obs::SpanEvent dispatch_span;
    dispatch_span.name = obs::names::kSpanDispatch;
    trace.parent_span = trace.alloc();
    emit_span(std::move(dispatch_span), trace.parent_span, root_span);
  }

  // Fresh scheduler + fresh simulated cluster per job: job results are a
  // pure function of (config, workload), independent of queue history.
  const std::unique_ptr<Scheduler> scheduler =
      make_scheduler(config_.scheduler, config_.seed);

  RunOptions options;
  options.bounds = model_bounds_.get();
  options.telemetry = &telemetry_;
  options.faults = config_.faults;
  options.retry = config_.retry;
  options.trace_context = &trace;
  options.decision_latency = decision_scratch_.get();
  options.evict_policy = config_.evict_policy;
  const RunResult result =
      run_stream(stream, *scheduler, config_.cluster, options);

  // The tenant's modeled residency: what its latest job left resident. Each
  // job runs on a fresh simulator, so nothing else holds these bytes.
  telemetry_.registry
      .gauge(obs::names::mem_tenant_metric(
          info.tenant, obs::names::kMemTenantResidentBytesSuffix))
      .set(static_cast<double>(std::accumulate(
          result.device_resident_bytes.begin(),
          result.device_resident_bytes.end(), std::uint64_t{0})));

  // One lock amortised over the whole job's scheduling decisions.
  if (decision_scratch_ != nullptr) {
    decision_scratch_->flush_into(telemetry_.registry.histogram(
        obs::names::kSchedDecisionLatencyUs,
        obs::names::decision_latency_bounds_us()));
  }

  // Session aggregates for the serve-session report.
  ++jobs_run_;
  total_flops_ += result.metrics.total_flops;
  total_makespan_s_ += result.metrics.makespan_s;
  total_overhead_ms_ += result.scheduling_overhead_ms;
  total_reused_ += result.metrics.reused_operands;
  total_fetched_ += result.metrics.fetched_operands;
  total_evictions_ += result.metrics.evictions;
  total_writeback_bytes_ += result.metrics.writeback_bytes;
  for (std::size_t d = 0;
       d < result.device_utilization.size() && d < device_busy_s_.size();
       ++d) {
    device_busy_s_[d] +=
        result.device_utilization[d] * result.metrics.makespan_s;
  }

  // Result document retained for pickup: the run summary plus the
  // per-vector characteristics the bounds model served online.
  obs::JsonValue doc = obs::JsonValue::object();
  doc.set("scheduler", result.scheduler_name);
  doc.set("completed", result.completed);
  if (!result.error.empty()) doc.set("error", result.error);
  doc.set("makespan_s", result.metrics.makespan_s);
  doc.set("gflops", result.metrics.gflops());
  doc.set("reuse_rate", result.metrics.reuse_rate());
  doc.set("scheduling_overhead_ms", result.scheduling_overhead_ms);
  doc.set("evict_policy", result.metrics.evict_policy);
  doc.set("vectors",
          static_cast<std::uint64_t>(result.per_vector_characteristics.size()));
  if (result.metrics.devices_lost > 0 || result.tasks_reexecuted > 0) {
    doc.set("devices_lost", result.metrics.devices_lost);
    doc.set("tasks_reexecuted", result.tasks_reexecuted);
    doc.set("recovered", result.recovered());
  }
  doc.set("per_vector", per_vector_json(result));

  doc.set("queue_latency_ms", queue_ms);

  // Root span last: it carries the terminal state and the simulated
  // makespan, and its id (1) is smaller than every child's, so the tree
  // reassembles no matter the file order.
  if (spans_sink_ != nullptr) {
    obs::SpanEvent job_span;
    job_span.name = obs::names::kSpanJob;
    job_span.duration_ms = result.metrics.makespan_s * 1000.0;
    job_span.attrs_int.emplace_back(
        "vectors",
        static_cast<std::int64_t>(result.per_vector_characteristics.size()));
    if (result.tasks_reexecuted > 0) {
      job_span.attrs_int.emplace_back(
          "tasks_reexecuted",
          static_cast<std::int64_t>(result.tasks_reexecuted));
    }
    job_span.attrs_str.emplace_back(
        "state", to_string(result.completed ? JobState::kDone
                                            : JobState::kFailed));
    emit_span(std::move(job_span), root_span, 0);
  }

  CompletionTiming timing;
  timing.queue_latency_ms = queue_ms;
  timing.e2e_latency_ms =
      submit_ms >= 0.0 ? clock_->monotonic_ms() - submit_ms : 0.0;
  timing.sim_makespan_ms = result.metrics.makespan_s * 1000.0;
  // The finished record goes durable BEFORE the in-memory terminal
  // transition: once a client can observe DONE, no restart may un-finish
  // (and re-run) the job.
  journal_finished(job_id,
                   result.completed ? JobState::kDone : JobState::kFailed,
                   result.error, &doc);
  if (result.completed) {
    jobs_.complete(job_id, std::move(doc), timing);
  } else {
    jobs_.fail(job_id, result.error, std::move(doc), timing);
  }
}

// ---------------------------------------------------------------------------
// Socket I/O

void Server::io_once(std::vector<std::unique_ptr<Connection>>& conns,
                     int timeout_ms) {
  std::vector<pollfd> fds;
  fds.reserve(conns.size() + 1);
  pollfd lf{};
  lf.fd = listener_;
  lf.events = POLLIN;
  fds.push_back(lf);
  for (const std::unique_ptr<Connection>& conn : conns) {
    pollfd pf{};
    pf.fd = conn->fd;
    pf.events = POLLIN;
    if (!conn->outbuf.empty()) pf.events |= POLLOUT;
    fds.push_back(pf);
  }
  const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
  if (ready <= 0) return;

  // Accept every pending connection.
  if ((fds[0].revents & POLLIN) != 0) {
    for (;;) {
      const int fd = ::accept(listener_, nullptr, nullptr);
      if (fd < 0) break;  // EAGAIN (or another lane won the race)
      if (!set_nonblocking(fd)) {
        ::close(fd);
        continue;
      }
      auto conn = std::make_unique<Connection>(config_.max_frame_bytes);
      conn->fd = fd;
      conns.push_back(std::move(conn));
    }
  }

  // Service existing connections; dead ones are compacted out afterwards.
  for (std::size_t i = 0; i < conns.size(); ++i) {
    Connection& conn = *conns[i];
    const pollfd* pf = nullptr;
    for (std::size_t f = 1; f < fds.size(); ++f) {
      if (fds[f].fd == conn.fd) {
        pf = &fds[f];
        break;
      }
    }
    if (pf == nullptr) continue;  // accepted this round; polled next round
    bool dead = (pf->revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 &&
                (pf->revents & POLLIN) == 0;
    if ((pf->revents & POLLIN) != 0) {
      char buf[64 * 1024];
      for (;;) {
        const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
        if (n > 0) {
          conn.reader.feed(std::string_view(buf, static_cast<std::size_t>(n)));
          continue;
        }
        if (n == 0) dead = true;  // orderly peer close
        break;                    // EAGAIN or error
      }
      for (;;) {
        bool oversized = false;
        const std::optional<std::string> frame =
            conn.reader.next_frame(&oversized);
        if (oversized) {
          conn.outbuf += encode_frame(make_error_response(
              error_code::kFrameTooLong,
              "frame exceeds " + std::to_string(config_.max_frame_bytes) +
                  " bytes"));
        }
        if (!frame.has_value()) break;
        conn.outbuf += encode_frame(handle_frame(*frame));
      }
    }
    if (!conn.outbuf.empty()) {
      const ssize_t n = ::send(conn.fd, conn.outbuf.data(),
                               conn.outbuf.size(), MSG_NOSIGNAL);
      if (n > 0) {
        conn.outbuf.erase(0, static_cast<std::size_t>(n));
      } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
        dead = true;
      }
    }
    if (dead && conn.outbuf.empty()) {
      ::close(conn.fd);
      conn.fd = -1;
    }
  }
  conns.erase(std::remove_if(conns.begin(), conns.end(),
                             [](const std::unique_ptr<Connection>& c) {
                               return c->fd < 0;
                             }),
              conns.end());
}

void Server::flush_and_close(
    std::vector<std::unique_ptr<Connection>>& conns) {
  // Give queued replies (the drain acknowledgement, typically) one last
  // chance to leave, then hang up.
  const auto pending = [&conns] {
    return std::any_of(conns.begin(), conns.end(),
                       [](const std::unique_ptr<Connection>& conn) {
                         return !conn->outbuf.empty();
                       });
  };
  Stopwatch flush_watch;
  while (pending() && flush_watch.elapsed_ms() < 500.0) io_once(conns, 10);
  for (const std::unique_ptr<Connection>& conn : conns) {
    if (conn->fd >= 0) ::close(conn->fd);
  }
  conns.clear();
}

void Server::io_loop(std::vector<std::unique_ptr<Connection>>& conns) {
  for (;;) {
    check_stop_flag();
    {
      const MutexLock lock(state_mutex_);
      if (stopped_) break;
    }
    io_once(conns, kPollTimeoutMs);
  }
  flush_and_close(conns);
}

void Server::dispatcher_loop() {
  for (;;) {
    std::optional<std::uint64_t> job;
    {
      const MutexLock lock(state_mutex_);
      for (;;) {
        job = jobs_.next_job();
        if (job.has_value()) break;
        if (phase_ == Phase::kDraining && jobs_.idle()) {
          stopped_ = true;
          return;
        }
        dispatch_ready_.wait(state_mutex_);
      }
    }
    run_job(*job);
  }
}

void Server::serve_serial() {
  std::vector<std::unique_ptr<Connection>> conns;
  for (;;) {
    check_stop_flag();
    io_once(conns, jobs_.queued_total() > 0 ? 0 : kPollTimeoutMs);
    if (const std::optional<std::uint64_t> job = jobs_.next_job()) {
      run_job(*job);
      continue;
    }
    if (should_stop()) break;
  }
  {
    const MutexLock lock(state_mutex_);
    stopped_ = true;
  }
  flush_and_close(conns);
}

void Server::serve_parallel(int lanes) {
  // Lane 0 dispatches; lanes 1..n service connections. Each I/O lane owns
  // the connections it accepted (the kernel load-balances accept() across
  // lanes polling the shared listener).
  parallel::parallel_for(
      static_cast<std::size_t>(lanes) + 1, [this](std::size_t lane) {
        if (lane == 0) {
          dispatcher_loop();
        } else {
          std::vector<std::unique_ptr<Connection>> conns;
          io_loop(conns);
        }
      });
}

int Server::serve() {
  MICCO_EXPECTS_MSG(started_, "call start() before serve()");

  // The serial loop is the deterministic configuration; I/O fans out over
  // the worker pool only when the pool actually has lanes to spare. Sized
  // against the *effective* width: every lane here blocks in poll(), so a
  // lane the capped pool would run serially (never concurrently) is not
  // spare capacity — it would let dispatcher_loop starve the I/O lanes.
  const int pool = parallel::effective_threads();
  const int lanes = std::min(config_.io_lanes, pool - 1);
  if (lanes >= 1) {
    serve_parallel(lanes);
  } else {
    serve_serial();
  }

  ::close(listener_);
  listener_ = -1;

  // Recovery summary span, emitted after every job's tree: the re-run jobs
  // keep the same span sequence numbers as an uninterrupted session would
  // produce, and log consumers (the chaos harness) can strip the final line
  // before byte-comparing.
  if (spans_sink_ != nullptr &&
      recovered_finished_ + recovered_requeued_ > 0) {
    obs::SpanEvent replay;
    replay.trace_id = "journal-replay";
    replay.span_id = 1;
    replay.parent_id = 0;
    replay.name = obs::names::kSpanJournalReplay;
    replay.attrs_int.emplace_back(
        "replayed_finished", static_cast<std::int64_t>(recovered_finished_));
    replay.attrs_int.emplace_back(
        "requeued", static_cast<std::int64_t>(recovered_requeued_));
    if (recovered_torn_tail_) replay.attrs_int.emplace_back("torn_tail", 1);
    spans_sink_->span(std::move(replay));
  }

  journal_.close();
  if (sink_ != nullptr) sink_->flush();
  if (spans_sink_ != nullptr) spans_sink_->flush();

  if (!config_.report_path.empty()) {
    const obs::JsonValue report = session_report();
    const std::string complaint = obs::validate_report(report);
    if (!complaint.empty()) {
      log_error() << "serve: session report invalid: " << complaint;
      return 1;
    }
    obs::write_report_file(report, config_.report_path);
  }
  return 0;
}

obs::JsonValue Server::session_report() const {
  obs::ReportInputs in;
  in.scheduler = scheduler_name_;
  in.generated_at = started_at_utc_;
  in.num_devices = config_.cluster.num_devices;
  in.makespan_s = total_makespan_s_;
  in.gflops = total_makespan_s_ > 0.0
                  ? static_cast<double>(total_flops_) / total_makespan_s_ / 1e9
                  : 0.0;
  in.scheduling_overhead_ms = total_overhead_ms_;
  const std::uint64_t operands = total_reused_ + total_fetched_;
  in.reuse_rate = operands > 0 ? static_cast<double>(total_reused_) /
                                     static_cast<double>(operands)
                               : 0.0;

  obs::JsonValue metrics = obs::JsonValue::object();
  metrics.set("jobs_run", jobs_run_);
  metrics.set("total_flops", total_flops_);
  metrics.set("makespan_s", total_makespan_s_);
  metrics.set("reused_operands", total_reused_);
  metrics.set("fetched_operands", total_fetched_);
  metrics.set("evictions", total_evictions_);
  metrics.set("writeback_bytes", total_writeback_bytes_);
  in.metrics = std::move(metrics);

  for (std::size_t d = 0; d < device_busy_s_.size(); ++d) {
    const double busy = device_busy_s_[d];
    obs::DeviceRollup rollup;
    rollup.device = static_cast<int>(d);
    rollup.busy_s = busy;
    rollup.utilization =
        total_makespan_s_ > 0.0 ? busy / total_makespan_s_ : 0.0;
    in.devices.push_back(rollup);
  }
  return obs::build_report(in, telemetry_.registry);
}

}  // namespace micco::service
