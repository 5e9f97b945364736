// Wire protocol of the scheduling daemon (DESIGN.md §6).
//
// Frames are newline-delimited compact JSON documents ("NDJSON"): one
// request or response object per line, serialized through obs::JsonValue so
// framing is safe for arbitrary tenant/job names — every control character
// (including '\n' itself) is escaped to \u00XX by the writer, so a frame
// boundary is always a real record boundary. The protocol is versioned
// (every request carries "v") and strictly limited: a frame longer than the
// negotiated maximum is discarded with a structured error reply, malformed
// JSON gets an error reply, and nothing on this path ever aborts the
// daemon — external bytes are data, not contracts.
//
// Request types (v1): submit, status, drain, shutdown, stats, metrics.
// Every response carries "ok" (bool); failures add "code" and "message". Submit optionally carries a client-minted "trace" id that the
// daemon threads through the job's whole span tree (DESIGN.md §7) and a
// client-minted "idem" idempotency token (DESIGN.md §8): a resubmit with
// the same (tenant, token) answers from the daemon's journaled dedup table
// — marked "duplicate": true with the original job id — instead of running
// the job again. Further optional reply fields: "interrupted" (the job was
// re-admitted by crash recovery), "replayed" (a finished job answering from
// the replayed journal) and "retry_after" (seconds; advisory backoff on
// draining / queue_full / journal_error rejections).
#pragma once

#include <cstddef>
#include <deque>
#include <optional>
#include <string>
#include <string_view>

#include "obs/json.hpp"

namespace micco::service {

/// Protocol version spoken by this build. Requests with a different "v"
/// are answered with an error reply, never silently misread.
inline constexpr std::int64_t kProtocolVersion = 1;

/// Default ceiling on one frame (request or response line, including the
/// trailing newline). Large enough for a multi-megabyte inline workload,
/// small enough that a misbehaving client cannot balloon daemon memory.
inline constexpr std::size_t kDefaultMaxFrameBytes = 8u * 1024u * 1024u;

/// v1 request vocabulary.
enum class MessageType {
  kSubmit,    ///< enqueue a workload for a tenant
  kStatus,    ///< one job's lifecycle state, and its result once finished
  kDrain,     ///< stop admitting, finish queued + in-flight work, exit
  kShutdown,  ///< stop admitting, cancel queued work, finish in-flight, exit
  kStats,     ///< per-tenant queue depths and session totals
  kMetrics,   ///< live telemetry: uptime, job totals, registry quantiles
};

const char* to_string(MessageType type);

/// Parses a request "type" string; nullopt for unknown types.
std::optional<MessageType> parse_message_type(const std::string& text);

/// One parsed v1 request. Fields are populated per type: submit fills
/// tenant/job_name/workload_text, status fills job_id, the rest carry no
/// payload.
struct Request {
  MessageType type = MessageType::kStats;
  std::string tenant;         ///< submit; defaults to "default"
  std::string job_name;       ///< submit; optional label, may be empty
  std::string workload_text;  ///< submit; micco-workload v1 text
  std::string trace_id;       ///< submit; optional client-minted trace id
  std::string idem;           ///< submit; optional idempotency token
  std::uint64_t job_id = 0;   ///< status
};

/// Error vocabulary used in response "code" fields. Stable strings —
/// clients and tests match on them.
namespace error_code {
inline constexpr const char* kBadFrame = "bad_frame";
inline constexpr const char* kFrameTooLong = "frame_too_long";
inline constexpr const char* kBadVersion = "bad_version";
inline constexpr const char* kUnknownType = "unknown_type";
inline constexpr const char* kBadRequest = "bad_request";
inline constexpr const char* kBadWorkload = "bad_workload";
inline constexpr const char* kQueueFull = "queue_full";
inline constexpr const char* kDraining = "draining";
inline constexpr const char* kUnknownJob = "unknown_job";
/// Client-side: the per-request deadline expired before a reply arrived.
inline constexpr const char* kTimeout = "timeout";
/// The daemon could not make the admission durable (journal append/fsync
/// failure); the job was not accepted.
inline constexpr const char* kJournalError = "journal_error";
}  // namespace error_code

/// Builds the request document for each message type (the client half).
obs::JsonValue make_submit_request(const std::string& tenant,
                                   const std::string& job_name,
                                   const std::string& workload_text,
                                   const std::string& trace_id = "",
                                   const std::string& idem = "");
obs::JsonValue make_job_request(MessageType type, std::uint64_t job_id);
obs::JsonValue make_plain_request(MessageType type);

/// Parses one request document. Returns nullopt and fills `error_reply`
/// with a ready-to-send structured error response on any malformed input
/// (wrong version, unknown type, missing/ill-typed fields).
std::optional<Request> parse_request(const obs::JsonValue& doc,
                                     obs::JsonValue* error_reply);

/// {"ok": true, ...} response skeleton.
obs::JsonValue make_ok_response();

/// {"ok": false, "code": code, "message": message} error response.
obs::JsonValue make_error_response(const std::string& code,
                                   const std::string& message);

/// Serializes one frame: compact dump + '\n'. The writer escapes every
/// control character, so the payload can never contain a bare newline.
std::string encode_frame(const obs::JsonValue& doc);

/// Incremental frame splitter for a byte stream. Bytes arrive in arbitrary
/// chunks (partial frames, many frames per read); next_frame() hands back
/// one complete line at a time. A line whose payload exceeds the maximum
/// frame size is discarded — including the bytes still in flight — and
/// surfaces once as oversized=true so the server can send a frame_too_long
/// reply and keep the connection usable for subsequent frames.
class FrameReader {
 public:
  explicit FrameReader(std::size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  /// Appends raw bytes received from the peer.
  void feed(std::string_view bytes);

  /// Next complete frame (without the trailing '\n'), or nullopt when no
  /// full frame is buffered. When an oversized frame was dropped since the
  /// last call, sets *oversized = true exactly once (the frame itself is
  /// never returned). `oversized` may be nullptr when the caller does not
  /// care (trusted in-process peer).
  std::optional<std::string> next_frame(bool* oversized = nullptr);

  /// Bytes buffered but not yet returned (diagnostics / tests).
  std::size_t buffered_bytes() const {
    return ready_bytes_ + partial_.size();
  }

 private:
  std::size_t max_frame_bytes_;
  std::deque<std::string> ready_;  ///< complete frames awaiting next_frame()
  std::size_t ready_bytes_ = 0;
  std::string partial_;            ///< the in-flight (unterminated) line
  bool discarding_ = false;        ///< mid-oversized-frame: drop until '\n'
  bool pending_oversized_ = false;
};

}  // namespace micco::service
