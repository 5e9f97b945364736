// The MICCO scheduling daemon (DESIGN.md §6).
//
// A long-lived server that accepts NDJSON frames (service/protocol.hpp)
// over a Unix-domain socket, admits workloads into the multi-tenant
// JobManager, and dispatches admitted jobs one at a time through the
// existing pipeline: fresh scheduler per job, fresh simulated cluster per
// job, per-vector reuse bounds served online from a trained regression
// model (MICCO-naive's zero triple when no model is loaded), fault plans
// and the recovery path applied exactly as in batch runs.
//
// Threading model. Job execution is *always* single-threaded (one
// dispatcher), so the session decision log is a pure function of the
// dispatch order. Connection I/O either shares that same thread (serial
// mode — the deterministic configuration: one loop alternates between
// polling sockets and running the next job) or fans out over the parallel/
// worker pool (one dispatcher lane + N I/O lanes sharing the listener).
// All cross-lane state is the JobManager's: the job book, the drain phase,
// each job's submit time and the dispatcher's wait sit behind its one
// annotated mutex. The Server holds no lock; it keeps the sockets, the
// journal writer, the sinks and the dispatcher-only session aggregates.
//
// Lifecycle. serve() blocks until the session ends: a `drain` request (or
// SIGTERM via ServerConfig::stop_flag) stops admission and finishes the
// backlog; a `shutdown` request additionally cancels queued jobs. Either
// way the daemon finishes in-flight work, flushes the decision log, writes
// the session run report (same schema as batch reports) and exits 0.
//
// Crash safety (DESIGN.md §8). With a journal configured, every admission
// is made durable before the submit reply leaves (write-ahead), each
// terminal transition is made durable before a client can observe it, and
// start() replays an existing journal before serving: finished jobs answer
// again, interrupted jobs re-enter the queue in admission order. Replay order
// equals journal order, so a recovering `--threads=1` session's decision
// log is byte-identical to an uninterrupted session running the same
// remaining jobs.
#pragma once

#include <csignal>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/stopwatch.hpp"
#include "core/bounds_model.hpp"
#include "core/experiment.hpp"
#include "core/pipeline.hpp"
#include "faults/fault_plan.hpp"
#include "faults/retry.hpp"
#include "mem/policy.hpp"
#include "obs/clock.hpp"
#include "obs/events.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "service/job_manager.hpp"
#include "service/journal.hpp"
#include "service/protocol.hpp"

namespace micco::service {

struct ServerConfig {
  /// Filesystem path of the Unix-domain listening socket. Created by
  /// start(), unlinked when the server object is destroyed.
  std::string socket_path;

  /// Connection-I/O lanes beyond the dispatcher. 0 selects the serial
  /// deterministic loop (I/O and dispatch share one thread); higher values
  /// fan I/O out over the parallel/ worker pool (capped at pool width − 1,
  /// so a one-thread pool always serves serially).
  int io_lanes = 0;

  SchedulerKind scheduler = SchedulerKind::kMiccoNaive;
  std::uint64_t seed = 7;  ///< scheduler tie-break seed, fixed per session

  /// Optional trained bounds model (three concatenated regressors, the
  /// `micco train` format). Loaded at start(); predictions then drive the
  /// per-vector reuse-bound triple online. Empty: MICCO keeps the zero
  /// triple it is built with (MICCO-naive).
  std::string model_path;

  ClusterConfig cluster;

  /// Optional fault plan applied to every job (not owned; must outlive the
  /// server). The recovery path (faults/, lineage re-execution) absorbs
  /// injected device losses exactly as in batch runs.
  const FaultPlan* faults = nullptr;
  RetryPolicy retry;

  AdmissionConfig admission;

  /// Eviction policy for every job's simulator (mem/, DESIGN.md §11). A
  /// fresh policy instance is built per job, so tracker state never leaks
  /// across jobs.
  mem::EvictPolicyKind evict_policy = mem::EvictPolicyKind::kLru;

  /// Durable job journal (path empty: journaling + recovery disabled). An
  /// existing journal at the configured path is replayed at start().
  JournalConfig journal;

  /// Optional JSONL decision/cluster event log for the whole session.
  std::string decisions_path;
  /// Optional session run report (validates against the obs report schema).
  std::string report_path;
  /// Optional JSONL span-tree trace for the whole session (DESIGN.md §7):
  /// every dispatched job emits queue/dispatch/sched/exec/recovery spans
  /// under one root. Deterministic at io_lanes = 0 — two identical sessions
  /// produce byte-identical trace files.
  std::string spans_path;

  /// Timestamp source for queue/end-to-end latency accounting, uptime and
  /// the report's generated_at stamp. nullptr selects the process-wide
  /// SystemClock; tests inject an obs::ManualClock to script latencies.
  obs::Clock* clock = nullptr;

  /// Optional external stop request (the SIGTERM bridge): when the pointed-
  /// at flag becomes non-zero the server behaves as if a `drain` request
  /// arrived. Not owned; typically a volatile sig_atomic_t set by a signal
  /// handler installed in the CLI.
  const volatile std::sig_atomic_t* stop_flag = nullptr;
};

class Server {
 public:
  explicit Server(ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds + listens on the configured socket and loads the bounds model.
  /// Returns false with a diagnostic on any setup failure (socket in use,
  /// unreadable model, invalid config); never aborts.
  bool start(std::string* error);

  /// Serves until drained or shut down. Returns 0 on a clean exit (report
  /// written, telemetry flushed), 1 when the session report failed to
  /// validate or write. Call start() first.
  int serve();

  /// Thread-safe in-process equivalents of the wire requests, used by
  /// tests/benches embedding the server. request_shutdown() returns the
  /// number of queued jobs it cancelled.
  void request_drain();
  std::size_t request_shutdown();

  JobManager& jobs() { return jobs_; }

  /// Builds the session run report from the aggregates accumulated by the
  /// dispatcher. Meaningful once serve() returned (or between jobs in
  /// tests); validates against the batch report schema.
  obs::JsonValue session_report() const;

 private:
  struct Connection {
    int fd = -1;
    FrameReader reader;  ///< frames up to kDefaultMaxFrameBytes
    std::string outbuf;  ///< bytes accepted for write but not yet sent
  };

  // -- serving loops ---------------------------------------------------------
  void serve_serial();
  void serve_parallel(int lanes);
  void io_loop(std::vector<std::unique_ptr<Connection>>& conns);
  /// The end of both serving loops: flush pending replies for up to 500 ms,
  /// then close every connection.
  void flush_and_close(std::vector<std::unique_ptr<Connection>>& conns);
  /// One poll/accept/read/write round over `conns`; returns after at most
  /// `timeout_ms`. `listener` < 0 skips accepting (lane without listener).
  void io_once(std::vector<std::unique_ptr<Connection>>& conns,
               int timeout_ms);
  void check_stop_flag();

  // -- request handling ------------------------------------------------------
  /// Handles one frame, returns the reply document.
  obs::JsonValue handle_frame(const std::string& frame);
  obs::JsonValue handle_request(const Request& request);
  obs::JsonValue handle_submit(const Request& request);

  // -- job execution (dispatcher thread only) --------------------------------
  void run_job(std::uint64_t job_id);

  // -- crash safety ----------------------------------------------------------
  /// Replays an existing journal (torn tail dropped + truncated first) and
  /// opens the writer for append. False with a diagnostic on I/O failure.
  bool recover_from_journal(std::string* error);
  /// cancel_queued + a journaled CANCELLED record per job (shutdown path).
  std::size_t cancel_backlog();
  /// Journals a terminal transition; failures are logged, not fatal (the
  /// job still finishes in memory; a restart would re-run it).
  void journal_finished(std::uint64_t job_id, JobState state,
                        const std::string& error_text,
                        const obs::JsonValue* result);

  ServerConfig config_;
  JobManager jobs_;
  obs::Telemetry telemetry_;
  std::ofstream decisions_file_;
  std::unique_ptr<obs::BufferedJsonlEventSink> sink_;
  std::ofstream spans_file_;
  std::unique_ptr<obs::JsonlSpanSink> spans_sink_;
  /// Dispatcher-thread-only decision-latency buffer, flushed into the
  /// registry once per job (one lock amortised over the whole run).
  std::unique_ptr<obs::HistogramScratch> decision_scratch_;

  int listener_ = -1;
  /// Exclusive flock on "<socket_path>.lock", acquired by start() and held
  /// for the daemon's lifetime: serializes startup on a socket path (the
  /// probe-then-unlink takeover alone is a TOCTOU window) and is released
  /// by the kernel even on SIGKILL. The lock *file* is deliberately never
  /// unlinked — deleting it would reopen the race it exists to close.
  int lock_fd_ = -1;
  bool started_ = false;
  std::string scheduler_name_;

  JournalWriter journal_;
  /// start() truncated a torn journal tail (read by serve() for the replay
  /// span; the replay counts are the JobManager's).
  bool journal_torn_tail_ = false;

  std::unique_ptr<RegressionBoundsProvider> model_bounds_;

  obs::Clock* clock_ = nullptr;   ///< config_.clock or the process default
  double session_start_ms_ = 0.0; ///< monotonic zero for latencies + uptime
  std::string started_at_utc_;    ///< the one wall capture (report stamp)

  // -- session aggregates (dispatcher thread only; read after serve()) ------
  std::uint64_t jobs_run_ = 0;
  std::uint64_t total_flops_ = 0;
  double total_makespan_s_ = 0.0;
  double total_overhead_ms_ = 0.0;
  std::uint64_t total_reused_ = 0;
  std::uint64_t total_fetched_ = 0;
  std::uint64_t total_evictions_ = 0;
  std::uint64_t total_writeback_bytes_ = 0;
  std::vector<double> device_busy_s_;
};

}  // namespace micco::service
