// Structured telemetry events and sinks.
//
// The event half of the observability layer records *why* the system did
// what it did, one record per occurrence: every scheduler decision (which
// reuse pattern the pair classified as, which devices were considered, which
// reuse-bound tier admitted the winner, whether the fallback fired) and
// every simulated cluster event (operand fetch, eviction with victim and
// cause, kernel, stage barrier, fault). Sinks are pluggable; the JSONL sink
// writes the decision log, one compact JSON object per line, so logs diff,
// grep and replay deterministically — no wall-clock timestamps, only
// simulated time and sequence numbers. The Chrome timeline is written from
// the same cluster events.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/lock_ranks.hpp"
#include "common/mutex.hpp"
#include "obs/json.hpp"

namespace micco::obs {

/// One scheduler decision (Alg. 1 + Alg. 2 outcome for one tensor pair).
struct DecisionEvent {
  std::uint64_t seq = 0;          ///< global decision number within the run
  std::int64_t vector_index = -1; ///< vector ordinal in the stream
  std::int64_t pair_index = -1;   ///< pair ordinal within the vector
  std::uint64_t tensor_a = 0;
  std::uint64_t tensor_b = 0;
  std::uint64_t tensor_out = 0;
  std::string scheduler;          ///< scheduler name ("MICCO", "Groute", ...)
  std::string pattern;            ///< local reuse pattern ("TwoRepeatedSame"…)
  std::vector<int> candidates;    ///< devices that survived the tier filters
  int chosen = -1;
  std::string mapping;            ///< Fig. 4 mapping class of the final choice
  /// Reuse-bound tier that produced the candidate set: 0 = TwoRepeatedSame
  /// bound, 1 = one-reused bound, 2 = TwoNew bound, -1 = scheduler has no
  /// tiers (baselines).
  int bound_tier = -1;
  std::int64_t bound_value = -1;  ///< the gating bound's value (-1: none)
  std::int64_t balance_num = -1;  ///< balanceNum in force (-1: none)
  bool fallback = false;          ///< every tier was exhausted (implicit rule)
  bool evict_risk = false;        ///< memory-eviction-sensitive policy fired

  JsonValue to_json() const;
};

/// Kinds of cluster-side events: every event the simulator prices, plus the
/// pipeline's recovery records.
enum class ClusterEventKind : std::uint8_t {
  kFetch,          ///< operand materialised on a device (H2D or P2P)
  kOutputAlloc,    ///< a kernel's output allocated on its device
  kEviction,       ///< policy victim pushed out under capacity pressure
  kKernel,         ///< one contraction kernel
  kBarrier,        ///< stage barrier; one record per idle device
  kTransferRetry,  ///< transient transfer fault: wasted attempt + backoff
  kDeviceFailure,  ///< permanent device loss detected
  kCapacityLoss,   ///< spurious capacity shrink applied
  kRecovery,       ///< pipeline re-enqueued work after a device loss
};

const char* to_string(ClusterEventKind kind);

/// True for the kinds the decision log records: every kind except kernels
/// and output allocations, which cost the same wherever a pair runs.
bool in_decision_log(ClusterEventKind kind);

/// What forced an eviction.
enum class EvictionCause : std::uint8_t {
  kNone,          ///< not an eviction event
  kOperandFetch,  ///< making room for an incoming operand
  kOutputAlloc,   ///< making room for the kernel's output
  kCapacityLoss,  ///< usage squeezed out by a spurious capacity-loss fault
};

const char* to_string(EvictionCause cause);

/// One simulated event. Building one allocates nothing: the JSONL `detail`
/// is rendered from `p2p`, `cause` and `policy` by to_json().
struct ClusterEvent {
  ClusterEventKind kind = ClusterEventKind::kFetch;
  int device = -1;
  /// Fetched operand / output / eviction victim / kernel output; unused by
  /// barrier, device-failure and recovery records.
  std::uint64_t tensor = 0;
  std::uint64_t bytes = 0;
  double start_s = 0.0;      ///< simulated time the event started
  double time_s = 0.0;       ///< simulated time the event completed
  double duration_s = 0.0;   ///< priced duration (barrier: idle gap)
  bool p2p = false;          ///< fetch only: peer route instead of H2D
  EvictionCause cause = EvictionCause::kNone;  ///< eviction only
  const char* policy = "";   ///< eviction only: EvictionPolicy::name()
  double victim_age_s = 0.0; ///< eviction only: residency age of the victim
  /// Fault events only: lost tensors (device failure) or re-enqueued tasks
  /// (recovery); emitted when >= 0.
  std::int64_t count = -1;

  JsonValue to_json() const;
};

/// Writes `events` as a Chrome trace-event JSON document ("traceEvents"
/// array of X-phase slices, one track per device; chrome://tracing,
/// Perfetto). Times are in microseconds as the format requires, printed
/// like every JSON number the program writes (shortest round-trip form), so
/// slices a device runs back to back still abut past one simulated second.
/// Recovery records lie on no device timeline and are skipped.
void write_chrome_trace(const std::vector<ClusterEvent>& events,
                        std::ostream& out);

class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void decision(const DecisionEvent& event) = 0;
  virtual void cluster(const ClusterEvent& event) = 0;
};

/// The decision-log writer: one line per decision and per cluster event the
/// log records (in_decision_log), each the event's to_json(). Lines batch in
/// a string and flush to the borrowed stream once the batch crosses
/// `flush_bytes`, amortising stream-formatting overhead. The buffer drains
/// on destruction, on an explicit flush(), and *immediately* after fault
/// events (device failure, capacity loss) so a crash right after a fault
/// still leaves the fault on disk. The stream must outlive the sink.
///
/// The batch buffer (and the borrowed stream, while draining) sit behind an
/// internal annotated mutex: a sink shared across parallel sweep lanes
/// appends whole lines atomically instead of interleaving bytes. Callers
/// that need a *deterministic line order* must still emit from one thread
/// (the run_stream hot path does) — the lock makes concurrent emission
/// safe, not ordered.
class BufferedJsonlEventSink final : public EventSink {
 public:
  static constexpr std::size_t kDefaultFlushBytes = 64 * 1024;

  explicit BufferedJsonlEventSink(std::ostream& out,
                                  std::size_t flush_bytes = kDefaultFlushBytes)
      : out_(out), flush_bytes_(flush_bytes) {
    buffer_.reserve(flush_bytes_ + 4096);
  }
  ~BufferedJsonlEventSink() override { flush(); }

  BufferedJsonlEventSink(const BufferedJsonlEventSink&) = delete;
  BufferedJsonlEventSink& operator=(const BufferedJsonlEventSink&) = delete;

  void decision(const DecisionEvent& event) override;
  void cluster(const ClusterEvent& event) override;

  /// Writes any buffered lines to the stream and flushes the stream itself.
  void flush();

 private:
  void append(const JsonValue& json, bool urgent);
  void flush_locked() MICCO_REQUIRES(mutex_);

  std::ostream& out_;
  std::size_t flush_bytes_;
  Mutex mutex_{"BufferedJsonlEventSink::mutex_", kLockRankEventSink};
  std::string buffer_ MICCO_GUARDED_BY(mutex_);
};

/// Buffers events in memory; used by tests and `micco run --trace`.
class MemoryEventSink final : public EventSink {
 public:
  void decision(const DecisionEvent& event) override {
    decisions_.push_back(event);
  }
  void cluster(const ClusterEvent& event) override {
    cluster_events_.push_back(event);
  }

  const std::vector<DecisionEvent>& decisions() const { return decisions_; }
  const std::vector<ClusterEvent>& cluster_events() const {
    return cluster_events_;
  }
  void clear() {
    decisions_.clear();
    cluster_events_.clear();
  }

 private:
  std::vector<DecisionEvent> decisions_;
  std::vector<ClusterEvent> cluster_events_;
};

}  // namespace micco::obs
