// Shared harness of the daemon suites (test_service, test_recovery,
// test_protocol_fuzz): per-process scratch paths, small workload texts, a
// Server serving on a background thread, and a poll-until-finished helper.
#pragma once

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "obs/json.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "workload/serialize.hpp"
#include "workload/synthetic.hpp"

namespace micco::service::harness {

/// A fresh per-process scratch path for one test (any stale leftover is
/// unlinked).
inline std::string tmp_file_path(const std::string& tag) {
  const std::string path =
      "/tmp/micco_svc_" + std::to_string(::getpid()) + "_" + tag;
  ::unlink(path.c_str());
  return path;
}

inline std::string test_socket_path(const std::string& tag) {
  return tmp_file_path(tag + ".sock");
}

/// A small deterministic workload serialized to the wire text format.
inline std::string workload_text(std::uint64_t seed, int vectors = 1,
                                 int vector_size = 8) {
  SyntheticConfig cfg;
  cfg.num_vectors = vectors;
  cfg.vector_size = vector_size;
  cfg.seed = seed;
  std::ostringstream out;
  save_stream(generate_synthetic(cfg), out);
  return out.str();
}

/// Parses, but is structurally invalid: the one task's output is its own
/// first operand, so it consumes tensor 1 before any stage produced it. A
/// daemon that ran it would trip a simulator precondition.
inline constexpr const char* kSelfConsumingWorkload =
    "micco-workload v1\n"
    "meta 1 4 1 0.5 uniform\n"
    "vectors 1\n"
    "vector 1\n"
    "task 1 2 4 1 2 2 4 1 1 2 4 1\n";

/// Its one task writes the output id 2^64 - 1, kInvalidTensor, which the
/// simulator refuses; the second text spells it -1, which an unsigned
/// `operator>>` wraps to the same id.
inline constexpr const char* kInvalidOutputWorkload =
    "micco-workload v1\n"
    "meta 2 4 1 0 uniform\n"
    "vectors 1\n"
    "vector 1\n"
    "task 0 2 4 1 1 2 4 1 18446744073709551615 2 4 1\n";
inline constexpr const char* kSignedOutputWorkload =
    "micco-workload v1\n"
    "meta 2 4 1 0 uniform\n"
    "vectors 1\n"
    "vector 1\n"
    "task 0 2 4 1 1 2 4 1 -1 2 4 1\n";

inline std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Runs serve() on a background thread once start() succeeded.
class ServeSession {
 public:
  explicit ServeSession(ServerConfig config) : server_(std::move(config)) {}
  ServeSession(const ServeSession&) = delete;
  ServeSession& operator=(const ServeSession&) = delete;

  ~ServeSession() {
    if (thread_.joinable()) {
      server_.request_shutdown();
      thread_.join();
    }
  }

  bool begin(std::string* error) {
    if (!server_.start(error)) return false;
    thread_ = std::thread([this] { exit_code_ = server_.serve(); });
    return true;
  }

  int join() {
    thread_.join();
    return exit_code_;
  }

  Server& server() { return server_; }

 private:
  Server server_;
  int exit_code_ = -1;
  std::thread thread_;  ///< last: it uses the members above
};

/// Polls status until the job leaves QUEUED/RUNNING; returns the final
/// status reply.
inline obs::JsonValue wait_for_job(Client& client, std::uint64_t job_id) {
  for (;;) {
    std::string error;
    const auto reply = client.status(job_id, &error);
    EXPECT_TRUE(reply.has_value()) << error;
    if (!reply.has_value()) return obs::JsonValue();
    const std::string& state = reply->at("state").as_string();
    if (state != "QUEUED" && state != "RUNNING") return *reply;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

}  // namespace micco::service::harness
