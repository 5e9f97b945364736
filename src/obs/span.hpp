// Request tracing: trace contexts, span events and span sinks (DESIGN.md §7).
//
// Every job the daemon admits yields one span tree — a root "job" span with
// "queue" and "dispatch" children, per-vector "sched"/"exec" spans and
// "recovery" spans under dispatch — written as JSONL, one compact object
// per line, and summarizable offline by `micco report --spans`.
//
// Determinism contract (same as the decision log): span records carry NO
// wall-clock values. Ids are allocated from a per-job counter (root = 1),
// the trace id is minted deterministically by the client, durations are
// simulated time, and ordering comes from the sink's monotone sequence
// number — so a `--threads=1` session's trace file is byte-identical across
// identical runs and diffable like any other log.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "common/lock_ranks.hpp"
#include "common/mutex.hpp"
#include "obs/json.hpp"

namespace micco::obs {

class SpanSink;

/// Identity, sink and id allocator for one job's span tree. Minted by the
/// client (trace_id), completed by the server (job_id/tenant, sink); lower
/// layers emit spans to `sink` parented at `parent_span` and allocate child
/// ids with alloc(). Allocation is eager — a parent's id is always smaller
/// than its children's — so trees reassemble regardless of emission order.
struct TraceContext {
  std::string trace_id;
  std::uint64_t job_id = 0;
  std::string tenant;
  /// Where the spans go (not owned); nullptr traces nothing.
  SpanSink* sink = nullptr;
  /// Next span id to hand out; ids are per-job, starting at 1 (the root).
  std::uint64_t next_span = 1;
  /// Parent for spans emitted by the current layer (the server points this
  /// at the dispatch span before entering run_stream).
  std::uint64_t parent_span = 0;

  std::uint64_t alloc() { return next_span++; }
};

/// One span record. Optional fields (tenant, vector_index, sim_time_s,
/// duration_ms) are omitted from the serialized form when unset so records
/// stay compact and byte-stable.
struct SpanEvent {
  std::string trace_id;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;  ///< 0 = root span
  std::string name;             ///< one of names::kSpan* constants
  std::uint64_t job_id = 0;
  std::string tenant;
  std::int64_t vector_index = -1;
  /// Simulated cluster time when the span closed (seconds); < 0: omitted.
  double sim_time_s = -1.0;
  /// Deterministic duration (simulated ms); < 0: omitted.
  double duration_ms = -1.0;
  /// Extra attributes, serialized in insertion order.
  std::vector<std::pair<std::string, std::int64_t>> attrs_int;
  std::vector<std::pair<std::string, double>> attrs_num;
  std::vector<std::pair<std::string, std::string>> attrs_str;

  /// Serializes with the sink-assigned sequence number leading.
  JsonValue to_json(std::uint64_t seq) const;
};

class SpanSink {
 public:
  virtual ~SpanSink() = default;
  /// By value so emitters hand their event over with a move — buffering
  /// sinks keep the strings and attribute vectors without a deep copy,
  /// which matters under the tracing-overhead budget (bench_overhead).
  virtual void span(SpanEvent event) = 0;
  virtual void flush() {}
};

/// Writes one compact JSON object per span per line to a borrowed stream.
/// The internal mutex makes concurrent emission safe (whole lines, never
/// interleaved bytes) and owns the monotone `seq` stamp; a deterministic
/// line *order* additionally requires emitting from one thread, which the
/// daemon's dispatcher does.
class JsonlSpanSink final : public SpanSink {
 public:
  explicit JsonlSpanSink(std::ostream& out) : out_(out) {}

  void span(SpanEvent event) override;
  void flush() override;

 private:
  std::ostream& out_;
  Mutex mutex_{"JsonlSpanSink::mutex_", kLockRankSpanSink};
  std::uint64_t seq_ MICCO_GUARDED_BY(mutex_) = 0;
};

/// Buffers spans in memory; tests and the trace summarizer use it.
class MemorySpanSink final : public SpanSink {
 public:
  void span(SpanEvent event) override { spans_.push_back(std::move(event)); }
  const std::vector<SpanEvent>& spans() const { return spans_; }
  void clear() { spans_.clear(); }

 private:
  std::vector<SpanEvent> spans_;
};

}  // namespace micco::obs
