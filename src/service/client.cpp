#include "service/client.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/stopwatch.hpp"
#include "common/thread_annotations.hpp"
#include "service/journal.hpp"

#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0
#endif

namespace micco::service {

namespace {

void sleep_backoff(double seconds) {
  if (seconds <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

/// Entropy for auto-minted idempotency tokens. The trace id is a pure
/// function of (tenant, job name, sequence) by design, so a token derived
/// from it alone would be identical across independent client processes —
/// and a genuinely new submit would be silently answered as a duplicate of
/// an old job. Mixing pid, monotonic ticks, the client's address and a
/// process-wide counter makes each client's tokens unique without touching
/// the deterministic trace identity (this entropy never reaches decision
/// logs or span traces, only the dedup key).
std::string idem_entropy_nonce(const void* client) {
  // MICCO_LOCK_FREE: monotone uniqueness counter; relaxed fetch_add is
  // enough because only distinctness matters, never ordering.
  static std::atomic<std::uint64_t> counter MICCO_LOCK_FREE{0};
  const std::uint64_t bits[4] = {
      static_cast<std::uint64_t>(::getpid()),
      static_cast<std::uint64_t>(
          std::chrono::steady_clock::now().time_since_epoch().count()),
      static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(client)),
      counter.fetch_add(1) + 1,
  };
  return fnv1a64_hex(std::string_view(
      reinterpret_cast<const char*>(bits), sizeof(bits)));
}

}  // namespace

Client::~Client() { close(); }

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  // Drop any half-read reply so a reconnected session starts in lockstep.
  reader_ = FrameReader{};
}

bool Client::connect(const std::string& socket_path, std::string* error) {
  const auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  if (fd_ >= 0) return fail("already connected");

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    return fail("socket path too long");
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);

  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) return fail("socket(): " + std::string(strerror(errno)));
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const int err = errno;
    close();
    return fail("connect(" + socket_path +
                "): " + std::string(strerror(err)) +
                " (is the daemon running?)");
  }
  socket_path_ = socket_path;
  return true;
}

bool Client::connect_retry(const std::string& socket_path,
                           const RetryPolicy& policy, std::string* error) {
  std::string last_error;
  const int attempts = policy.max_attempts > 0 ? policy.max_attempts : 1;
  for (int attempt = 1; attempt <= attempts; ++attempt) {
    if (connect(socket_path, &last_error)) return true;
    if (attempt < attempts) sleep_backoff(policy.backoff(attempt));
  }
  if (error != nullptr) {
    *error = last_error + " (after " + std::to_string(attempts) + " attempts)";
  }
  return false;
}

std::optional<obs::JsonValue> Client::call(const obs::JsonValue& request,
                                           std::string* error) {
  if (!send_raw(encode_frame(request), error)) return std::nullopt;
  return read_reply(error);
}

bool Client::send_raw(const std::string& bytes, std::string* error) {
  const auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  if (fd_ < 0) return fail("not connected");
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return fail("send(): " + std::string(strerror(errno)));
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

std::optional<obs::JsonValue> Client::read_reply(std::string* error) {
  const auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = message;
    return std::optional<obs::JsonValue>{};
  };
  if (fd_ < 0) return fail("not connected");

  // Deadline expiry is a *structured* outcome, not a transport failure: the
  // caller gets {"ok": false, "code": "timeout"} and the connection is
  // closed so the daemon's eventual reply cannot answer a later request.
  const auto expire = [&]() -> std::optional<obs::JsonValue> {
    close();
    return make_error_response(
        error_code::kTimeout,
        "no reply within " + std::to_string(deadline_ms_) + " ms");
  };

  Stopwatch waited;
  for (;;) {
    if (const std::optional<std::string> line = reader_.next_frame()) {
      std::string parse_error;
      std::optional<obs::JsonValue> doc = obs::parse_json(*line, &parse_error);
      if (!doc.has_value()) {
        return fail("malformed reply: " + parse_error);
      }
      return doc;
    }

    if (deadline_ms_ > 0.0) {
      const double remaining_ms = deadline_ms_ - waited.elapsed_ms();
      if (remaining_ms <= 0.0) return expire();
      pollfd pfd{};
      pfd.fd = fd_;
      pfd.events = POLLIN;
      // Round up so a sub-millisecond remainder still polls once.
      const int timeout_ms = static_cast<int>(remaining_ms) + 1;
      const int ready = ::poll(&pfd, 1, timeout_ms);
      if (ready < 0) {
        if (errno == EINTR) continue;
        return fail("poll(): " + std::string(strerror(errno)));
      }
      if (ready == 0) return expire();
    }

    char buf[64 * 1024];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      reader_.feed(std::string_view(buf, static_cast<std::size_t>(n)));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return fail(n == 0 ? "daemon closed the connection"
                       : "recv(): " + std::string(strerror(errno)));
  }
}

std::string Client::mint_trace_id(const std::string& tenant,
                                  const std::string& job_name,
                                  std::uint64_t sequence) {
  // FNV-1a 64-bit over tenant + unit separator + job name: stable across
  // platforms, no RNG involved.
  return "t-" + fnv1a64_hex(tenant + '\x1f' + job_name) + '-' +
         std::to_string(sequence);
}

std::optional<obs::JsonValue> Client::submit(const std::string& tenant,
                                             const std::string& job_name,
                                             const std::string& workload_text,
                                             std::string* error) {
  const std::string trace_id =
      mint_trace_id(tenant, job_name, submit_seq_++);
  return call(make_submit_request(tenant, job_name, workload_text, trace_id),
              error);
}

std::optional<obs::JsonValue> Client::submit_retrying(
    const std::string& tenant, const std::string& job_name,
    const std::string& workload_text, const std::string& idem,
    const RetryPolicy& policy, std::string* error) {
  const auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = message;
    return std::optional<obs::JsonValue>{};
  };
  if (socket_path_.empty()) {
    return fail("submit_retrying: connect() first (socket path unknown)");
  }

  // One identity for the whole loop: every wire attempt carries the same
  // trace and the same idempotency token, so however many times the request
  // is resent the daemon runs the job exactly once. An auto-minted token is
  // the deterministic trace id *plus* per-client entropy (minted once per
  // Client, reused across its submits): dedup must span the retries of one
  // call, never two independent client sessions submitting the same
  // (tenant, name).
  const std::string trace_id =
      mint_trace_id(tenant, job_name, submit_seq_++);
  if (idem.empty() && idem_nonce_.empty()) {
    idem_nonce_ = idem_entropy_nonce(this);
  }
  const std::string token =
      idem.empty() ? trace_id + '-' + idem_nonce_ : idem;
  const std::string frame = encode_frame(
      make_submit_request(tenant, job_name, workload_text, trace_id, token));

  std::string last_error = "submit_retrying: no attempt made";
  const int attempts = policy.max_attempts > 0 ? policy.max_attempts : 1;
  for (int attempt = 1; attempt <= attempts; ++attempt) {
    if (attempt > 1) sleep_backoff(policy.backoff(attempt - 1));
    if (!connected() && !connect(socket_path_, &last_error)) continue;
    if (!send_raw(frame, &last_error)) {
      close();
      continue;
    }
    std::optional<obs::JsonValue> reply = read_reply(&last_error);
    if (!reply.has_value()) {
      close();
      continue;
    }
    // A client-side deadline expiry is structured but retryable: the daemon
    // may or may not have seen the submit, which is exactly what the
    // idempotency token exists for. Every other reply — accepted or a
    // structured rejection — is final.
    const obs::JsonValue* code = reply->find("code");
    if (code != nullptr && code->kind() == obs::JsonValue::Kind::kString &&
        code->as_string() == error_code::kTimeout) {
      last_error = "deadline expired waiting for submit reply";
      continue;
    }
    return reply;
  }
  return fail(last_error + " (after " + std::to_string(attempts) +
              " attempts)");
}

std::optional<obs::JsonValue> Client::status(std::uint64_t job_id,
                                             std::string* error) {
  return call(make_job_request(MessageType::kStatus, job_id), error);
}

std::optional<obs::JsonValue> Client::stats(std::string* error) {
  return call(make_plain_request(MessageType::kStats), error);
}

std::optional<obs::JsonValue> Client::metrics(std::string* error) {
  return call(make_plain_request(MessageType::kMetrics), error);
}

std::optional<obs::JsonValue> Client::drain(std::string* error) {
  return call(make_plain_request(MessageType::kDrain), error);
}

std::optional<obs::JsonValue> Client::shutdown(std::string* error) {
  return call(make_plain_request(MessageType::kShutdown), error);
}

}  // namespace micco::service
