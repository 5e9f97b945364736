#include "obs/events.hpp"

#include <ostream>

namespace micco::obs {

const char* to_string(ClusterEventKind kind) {
  switch (kind) {
    case ClusterEventKind::kFetch: return "fetch";
    case ClusterEventKind::kOutputAlloc: return "output-alloc";
    case ClusterEventKind::kEviction: return "eviction";
    case ClusterEventKind::kKernel: return "kernel";
    case ClusterEventKind::kBarrier: return "barrier";
    case ClusterEventKind::kTransferRetry: return "transfer-retry";
    case ClusterEventKind::kDeviceFailure: return "device-failure";
    case ClusterEventKind::kCapacityLoss: return "capacity-loss";
    case ClusterEventKind::kRecovery: return "recovery";
  }
  return "?";
}

bool in_decision_log(ClusterEventKind kind) {
  return kind != ClusterEventKind::kKernel &&
         kind != ClusterEventKind::kOutputAlloc;
}

const char* to_string(EvictionCause cause) {
  switch (cause) {
    case EvictionCause::kNone: return "none";
    case EvictionCause::kOperandFetch: return "operand_fetch";
    case EvictionCause::kOutputAlloc: return "output_alloc";
    case EvictionCause::kCapacityLoss: return "capacity_loss";
  }
  return "?";
}

JsonValue DecisionEvent::to_json() const {
  JsonValue out = JsonValue::object();
  out.set("event", "decision");
  out.set("seq", seq);
  out.set("vector", vector_index);
  out.set("pair", pair_index);
  out.set("scheduler", scheduler);
  out.set("a", tensor_a);
  out.set("b", tensor_b);
  out.set("out", tensor_out);
  out.set("pattern", pattern);
  JsonValue cands = JsonValue::array();
  for (const int dev : candidates) cands.push_back(dev);
  out.set("candidates", std::move(cands));
  out.set("chosen", chosen);
  out.set("mapping", mapping);
  out.set("bound_tier", bound_tier);
  out.set("bound_value", bound_value);
  out.set("balance_num", balance_num);
  out.set("fallback", fallback);
  out.set("evict_risk", evict_risk);
  return out;
}

namespace {

/// Kinds whose record names a tensor (the timeline gives them `args`).
bool names_tensor(ClusterEventKind kind) {
  return kind == ClusterEventKind::kFetch ||
         kind == ClusterEventKind::kOutputAlloc ||
         kind == ClusterEventKind::kEviction ||
         kind == ClusterEventKind::kKernel ||
         kind == ClusterEventKind::kTransferRetry;
}

/// Slice name on the Chrome timeline.
const char* slice_name(const ClusterEvent& e) {
  switch (e.kind) {
    case ClusterEventKind::kFetch: return e.p2p ? "fetch_p2p" : "fetch_h2d";
    case ClusterEventKind::kOutputAlloc: return "output_alloc";
    case ClusterEventKind::kEviction: return "eviction";
    case ClusterEventKind::kKernel: return "kernel";
    case ClusterEventKind::kBarrier: return "barrier";
    case ClusterEventKind::kTransferRetry: return "transfer_retry";
    case ClusterEventKind::kDeviceFailure: return "device_failure";
    case ClusterEventKind::kCapacityLoss: return "capacity_loss";
    case ClusterEventKind::kRecovery: return "recovery";
  }
  return "?";
}

}  // namespace

JsonValue ClusterEvent::to_json() const {
  JsonValue out = JsonValue::object();
  out.set("event", to_string(kind));
  out.set("device", device);
  if (names_tensor(kind)) out.set("tensor", tensor);
  // A capacity loss names no tensor; its bytes are the memory lost.
  if (names_tensor(kind) || kind == ClusterEventKind::kCapacityLoss) {
    out.set("bytes", bytes);
  }
  out.set("t_s", time_s);
  out.set("dur_s", duration_s);
  if (kind == ClusterEventKind::kFetch) {
    out.set("detail", p2p ? "p2p" : "h2d");
  } else if (kind == ClusterEventKind::kEviction) {
    // "<cause>/<policy>": the log attributes every eviction to the policy
    // that chose the victim.
    std::string detail = to_string(cause);
    detail += '/';
    detail += policy;
    out.set("detail", std::move(detail));
    out.set("victim_age_s", victim_age_s);
  } else if (kind == ClusterEventKind::kTransferRetry) {
    out.set("detail", "transient");
  }
  if (count >= 0) out.set("count", count);
  return out;
}

void write_chrome_trace(const std::vector<ClusterEvent>& events,
                        std::ostream& out) {
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const ClusterEvent& e : events) {
    if (e.kind == ClusterEventKind::kRecovery) continue;
    if (!first) out << ",";
    first = false;
    JsonValue slice = JsonValue::object();
    slice.set("name", slice_name(e));
    // Perfetto surfaces `args` in the tooltip; keep the top-level schema
    // fields (name/ph/pid/tid/ts/dur) untouched for existing tooling.
    if (names_tensor(e.kind)) {
      JsonValue args = JsonValue::object();
      args.set("tensor", e.tensor);
      if (e.bytes > 0) args.set("bytes", e.bytes);
      if (e.kind == ClusterEventKind::kEviction) {
        args.set("cause", to_string(e.cause));
      }
      slice.set("args", std::move(args));
    }
    slice.set("ph", "X");
    slice.set("pid", 0);
    slice.set("tid", e.device);
    slice.set("ts", e.start_s * 1e6);
    slice.set("dur", e.duration_s * 1e6);
    out << slice.dump();
  }
  out << "]}\n";
}

void BufferedJsonlEventSink::append(const JsonValue& json, bool urgent) {
  const MutexLock lock(mutex_);
  buffer_ += json.dump();
  buffer_ += '\n';
  if (urgent || buffer_.size() >= flush_bytes_) flush_locked();
}

void BufferedJsonlEventSink::decision(const DecisionEvent& event) {
  append(event.to_json(), /*urgent=*/false);
}

void BufferedJsonlEventSink::cluster(const ClusterEvent& event) {
  if (!in_decision_log(event.kind)) return;
  // Fault records must not sit in a process-local buffer: if the run dies
  // right after the fault, the log still has to show it.
  const bool urgent = event.kind == ClusterEventKind::kDeviceFailure ||
                      event.kind == ClusterEventKind::kCapacityLoss;
  append(event.to_json(), urgent);
}

void BufferedJsonlEventSink::flush() {
  const MutexLock lock(mutex_);
  flush_locked();
}

void BufferedJsonlEventSink::flush_locked() {
  if (!buffer_.empty()) {
    out_.write(buffer_.data(),
               static_cast<std::streamsize>(buffer_.size()));
    buffer_.clear();
  }
  out_.flush();
}

}  // namespace micco::obs
