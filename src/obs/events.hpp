// Structured telemetry events and sinks.
//
// The event half of the observability layer records *why* the system did
// what it did, one record per occurrence: every scheduler decision (which
// reuse pattern the pair classified as, which devices were considered, which
// reuse-bound tier admitted the winner, whether the fallback fired) and
// every notable cluster event (operand fetch, eviction with victim and
// cause, stage barrier). Sinks are pluggable; the JSONL sink writes one
// compact JSON object per line so logs diff, grep and replay deterministically
// — no wall-clock timestamps, only simulated time and sequence numbers.
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

/// Kinds of cluster-side events worth a log record.
enum class ClusterEventKind : std::uint8_t {
  kFetch,          ///< operand materialised on a device (H2D or P2P)
  kEviction,       ///< LRU victim pushed out under capacity pressure
  kBarrier,        ///< stage barrier; one record per idle device
  kTransferRetry,  ///< transient transfer fault: wasted attempt + backoff
  kDeviceFailure,  ///< permanent device loss detected
  kCapacityLoss,   ///< spurious capacity shrink applied
  kRecovery,       ///< pipeline re-enqueued work after a device loss
};

const char* to_string(ClusterEventKind kind);

struct ClusterEvent {
  ClusterEventKind kind = ClusterEventKind::kFetch;
  int device = -1;
  std::uint64_t tensor = 0;  ///< fetched operand / eviction victim; 0: barrier
  std::uint64_t bytes = 0;
  double time_s = 0.0;       ///< simulated time the event completed
  double duration_s = 0.0;   ///< priced duration (barrier: idle gap)
  std::string detail;        ///< fetch: "h2d"/"p2p"; eviction: cause
  double victim_age_s = 0.0; ///< eviction only: residency age of the victim
  /// Fault events only: lost tensors (device failure) or re-enqueued tasks
  /// (recovery); emitted when >= 0.
  std::int64_t count = -1;

  JsonValue to_json() const;
};

class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void decision(const DecisionEvent& event) = 0;
  virtual void cluster(const ClusterEvent& event) = 0;
};

/// Writes one compact JSON object per event per line ("JSON Lines"). The
/// stream is borrowed and must outlive the sink.
class JsonlEventSink final : public EventSink {
 public:
  explicit JsonlEventSink(std::ostream& out) : out_(out) {}
  void decision(const DecisionEvent& event) override;
  void cluster(const ClusterEvent& event) override;

 private:
  std::ostream& out_;
};

/// JSONL sink that batches serialized lines in a string and flushes the
/// batch to the borrowed stream once it crosses `flush_bytes`, amortising
/// stream-formatting overhead on decision-heavy runs. Output is line-
/// identical to JsonlEventSink. The buffer drains on destruction, on an
/// explicit flush(), and *immediately* after fault events (device failure,
/// capacity loss) so a crash right after a fault still leaves the fault on
/// disk. The stream is borrowed and must outlive the sink.
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

/// Buffers events in memory; used by tests and the CLI's pretty printer.
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
