// Synchronous client for the scheduling daemon (DESIGN.md §6).
//
// One Client owns one Unix-domain connection and speaks the NDJSON protocol
// (service/protocol.hpp) request/reply in lockstep: send one frame, read
// frames until a full line arrives, parse it. Used by the `micco submit /
// status / drain` CLI verbs and by the service tests/benches; it is not
// thread-safe — use one Client per thread.
//
// Robustness (DESIGN.md §8): an optional per-request deadline bounds every
// reply wait (poll before recv; expiry surfaces as a structured "timeout"
// error document, and the connection is closed so a late reply cannot
// desynchronize the request/reply lockstep), connect_retry() reconnects
// with faults::RetryPolicy backoff, and submit_retrying() combines both
// with an idempotency token so a retried submit after a lost reply never
// double-runs the job.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "faults/retry.hpp"
#include "obs/json.hpp"
#include "service/protocol.hpp"

namespace micco::service {

class Client {
 public:
  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects to the daemon socket. Returns false with a diagnostic when the
  /// daemon is not reachable.
  bool connect(const std::string& socket_path, std::string* error);
  /// connect() with RetryPolicy backoff between attempts (wall-clock
  /// sleeps): a client racing daemon startup — or a daemon restarting after
  /// a crash — connects as soon as the socket answers.
  bool connect_retry(const std::string& socket_path,
                     const RetryPolicy& policy, std::string* error);
  bool connected() const { return fd_ >= 0; }
  void close();

  /// Per-request reply deadline in wall milliseconds; 0 (the default)
  /// blocks indefinitely. On expiry read_reply() returns a structured
  /// {"ok": false, "code": "timeout"} document — not a transport failure —
  /// and closes the connection, so a late reply from a wedged daemon can
  /// never be mistaken for the answer to the next request.
  void set_deadline_ms(double deadline_ms) { deadline_ms_ = deadline_ms; }

  /// Sends `request` as one frame and blocks for the reply document.
  /// nullopt with a diagnostic on transport failure (daemon gone, reply
  /// malformed); protocol-level errors come back as parsed {"ok": false}
  /// documents, not as transport failures.
  std::optional<obs::JsonValue> call(const obs::JsonValue& request,
                                     std::string* error);

  /// Lower-level primitives for pipelining: write pre-encoded frame bytes
  /// without waiting, then collect replies one at a time. `call` is
  /// send_raw(encode_frame(request)) followed by one read_reply.
  bool send_raw(const std::string& bytes, std::string* error);
  std::optional<obs::JsonValue> read_reply(std::string* error);

  // -- Convenience wrappers for the v1 request vocabulary -------------------
  /// submit() mints a deterministic trace id for the request (see
  /// mint_trace_id) so every job this client submits arrives with an
  /// end-to-end trace identity without the caller doing anything.
  std::optional<obs::JsonValue> submit(const std::string& tenant,
                                       const std::string& job_name,
                                       const std::string& workload_text,
                                       std::string* error);
  /// The crash-safe submit loop: one trace id and one idempotency token are
  /// minted up front, then the request is retried across timeouts and
  /// transport failures (reconnecting with backoff between attempts).
  /// Structured rejections (queue_full, draining, ...) are final and
  /// returned as-is. Requires a prior successful connect() so the socket
  /// path is known. `idem` may be empty to auto-mint a token from the
  /// trace id plus per-client entropy — unique across client processes, so
  /// an independent submit of the same (tenant, name) is never mistaken
  /// for a retry. The daemon runs the job at most once per (tenant, token)
  /// and answers a duplicate with the original job id and "duplicate":
  /// true, so a one-attempt policy is a single send that still dedupes.
  std::optional<obs::JsonValue> submit_retrying(
      const std::string& tenant, const std::string& job_name,
      const std::string& workload_text, const std::string& idem,
      const RetryPolicy& policy, std::string* error);
  std::optional<obs::JsonValue> status(std::uint64_t job_id,
                                       std::string* error);
  std::optional<obs::JsonValue> stats(std::string* error);
  std::optional<obs::JsonValue> metrics(std::string* error);
  std::optional<obs::JsonValue> drain(std::string* error);
  std::optional<obs::JsonValue> shutdown(std::string* error);

  /// "t-<fnv1a64(tenant, job_name)>-<n>": a pure function of the submit
  /// arguments and this client's 0-based submit sequence — no RNG, no wall
  /// clock — so identical client sessions mint identical ids and traces
  /// stay byte-diffable.
  static std::string mint_trace_id(const std::string& tenant,
                                   const std::string& job_name,
                                   std::uint64_t sequence);

 private:
  int fd_ = -1;
  FrameReader reader_;
  std::uint64_t submit_seq_ = 0;  ///< submits sent over this client
  std::string socket_path_;       ///< last connect() target (for reconnects)
  double deadline_ms_ = 0.0;      ///< 0: block indefinitely
  /// Per-client entropy suffix for auto-minted idempotency tokens, minted
  /// lazily on the first token-less submit_retrying() and reused after.
  std::string idem_nonce_;
};

}  // namespace micco::service
