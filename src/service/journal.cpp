#include "service/journal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/stopwatch.hpp"

namespace micco::service {

namespace {

// Envelope geometry: {"v":1,"crc":"<16 hex>","rec":<record>}
//                    |-- 14 ---|---16---|--- 8 --|
inline constexpr std::string_view kEnvelopePrefix = "{\"v\":1,\"crc\":\"";
inline constexpr std::string_view kEnvelopeSeparator = "\",\"rec\":";
inline constexpr std::size_t kCrcBegin = 14;
inline constexpr std::size_t kCrcLen = 16;
inline constexpr std::size_t kRecBegin = 38;  // 14 + 16 + 8
/// prefix + crc + separator + at least "{}" + closing '}'.
inline constexpr std::size_t kMinLineBytes = kRecBegin + 3;

bool is_hex_lower(char c) {
  return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
}

// -- EINTR-retrying durability wrappers -------------------------------------
// The only raw ::write/::fsync calls in the tree (micco-lint:
// raw-durability-io). Both retry interrupted syscalls; write_all also
// resumes short writes so a journal line is either fully appended or the
// caller learns it was not.

bool write_all(int fd, const char* data, std::size_t size, int* err_out) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      *err_out = errno;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

bool fsync_retry(int fd, int* err_out) {
  for (;;) {
    if (::fsync(fd) == 0) return true;
    if (errno == EINTR) continue;
    *err_out = errno;
    return false;
  }
}

/// fsyncs the directory containing `path` — the classic WAL directory-sync
/// step. A newly created journal file (or a truncation's new size) is only
/// durable once the directory entry itself is; without this, a power loss
/// can forget the file existed, or resurrect a torn tail that recovery
/// believed it removed.
bool fsync_parent_dir(const std::string& path, int* err_out) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? "."
                              : path.substr(0, slash == 0 ? 1 : slash);
  int fd = -1;
  for (;;) {
    fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd >= 0 || errno != EINTR) break;
  }
  if (fd < 0) {
    *err_out = errno;
    return false;
  }
  const bool ok = fsync_retry(fd, err_out);
  ::close(fd);
  return ok;
}

}  // namespace

std::string fnv1a64_hex(std::string_view bytes) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  std::string hex;
  hex.reserve(kCrcLen);
  for (int nibble = 15; nibble >= 0; --nibble) {
    hex += "0123456789abcdef"[(hash >> (nibble * 4)) & 0xf];
  }
  return hex;
}

const char* to_string(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kNever: return "never";
    case FsyncPolicy::kAlways: return "always";
  }
  return "?";
}

std::optional<FsyncPolicy> parse_fsync_policy(const std::string& text) {
  if (text == "never") return FsyncPolicy::kNever;
  if (text == "always") return FsyncPolicy::kAlways;
  return std::nullopt;
}

const char* to_string(RecordKind kind) {
  switch (kind) {
    case RecordKind::kAdmitted: return "admitted";
    case RecordKind::kDispatched: return "dispatched";
    case RecordKind::kFinished: return "finished";
  }
  return "?";
}

namespace {

std::optional<RecordKind> parse_record_kind(const std::string& text) {
  if (text == "admitted") return RecordKind::kAdmitted;
  if (text == "dispatched") return RecordKind::kDispatched;
  if (text == "finished") return RecordKind::kFinished;
  return std::nullopt;
}

obs::JsonValue record_to_json(const JournalRecord& record) {
  obs::JsonValue doc = obs::JsonValue::object();
  doc.set("kind", to_string(record.kind));
  doc.set("job", record.job_id);
  switch (record.kind) {
    case RecordKind::kAdmitted:
      doc.set("tenant", record.tenant);
      if (!record.name.empty()) doc.set("name", record.name);
      if (!record.trace_id.empty()) doc.set("trace", record.trace_id);
      if (!record.idem.empty()) doc.set("idem", record.idem);
      doc.set("workload", record.workload_text);
      break;
    case RecordKind::kDispatched:
      break;
    case RecordKind::kFinished:
      doc.set("state", record.state);
      if (!record.error.empty()) doc.set("error", record.error);
      if (record.has_result) {
        doc.set("digest", fnv1a64_hex(record.result.dump()));
        doc.set("result", record.result);
      }
      break;
  }
  return doc;
}

std::optional<JournalRecord> record_from_json(const obs::JsonValue& doc) {
  if (doc.kind() != obs::JsonValue::Kind::kObject) return std::nullopt;
  const obs::JsonValue* kind_field = doc.find("kind");
  if (kind_field == nullptr ||
      kind_field->kind() != obs::JsonValue::Kind::kString) {
    return std::nullopt;
  }
  const std::optional<RecordKind> kind =
      parse_record_kind(kind_field->as_string());
  if (!kind.has_value()) return std::nullopt;
  const obs::JsonValue* job = doc.find("job");
  if (job == nullptr || job->kind() != obs::JsonValue::Kind::kInt ||
      job->as_int() < 0) {
    return std::nullopt;
  }

  JournalRecord record;
  record.kind = *kind;
  record.job_id = static_cast<std::uint64_t>(job->as_int());

  const auto take_string = [&doc](const char* key, std::string* out) {
    const obs::JsonValue* field = doc.find(key);
    if (field == nullptr) return true;  // optional field absent
    if (field->kind() != obs::JsonValue::Kind::kString) return false;
    *out = field->as_string();
    return true;
  };

  switch (*kind) {
    case RecordKind::kAdmitted: {
      const obs::JsonValue* tenant = doc.find("tenant");
      const obs::JsonValue* workload = doc.find("workload");
      if (tenant == nullptr ||
          tenant->kind() != obs::JsonValue::Kind::kString ||
          workload == nullptr ||
          workload->kind() != obs::JsonValue::Kind::kString) {
        return std::nullopt;
      }
      record.tenant = tenant->as_string();
      record.workload_text = workload->as_string();
      if (!take_string("name", &record.name) ||
          !take_string("trace", &record.trace_id) ||
          !take_string("idem", &record.idem)) {
        return std::nullopt;
      }
      break;
    }
    case RecordKind::kDispatched:
      break;
    case RecordKind::kFinished: {
      const obs::JsonValue* state = doc.find("state");
      if (state == nullptr ||
          state->kind() != obs::JsonValue::Kind::kString) {
        return std::nullopt;
      }
      record.state = state->as_string();
      if (record.state != "DONE" && record.state != "FAILED" &&
          record.state != "CANCELLED") {
        return std::nullopt;
      }
      if (!take_string("error", &record.error)) return std::nullopt;
      const obs::JsonValue* result = doc.find("result");
      if (result != nullptr) {
        std::string digest;
        if (!take_string("digest", &digest) || digest.empty()) {
          return std::nullopt;
        }
        // End-to-end result integrity: the digest covers the compact dump,
        // which round-trips bit-exactly through parse/dump.
        if (fnv1a64_hex(result->dump()) != digest) return std::nullopt;
        record.result = *result;
        record.has_result = true;
      }
      break;
    }
  }
  return record;
}

}  // namespace

std::string encode_journal_line(const JournalRecord& record) {
  const std::string rec = record_to_json(record).dump();
  std::string line;
  line.reserve(kRecBegin + rec.size() + 2);
  line += kEnvelopePrefix;
  line += fnv1a64_hex(rec);
  line += kEnvelopeSeparator;
  line += rec;
  line += '}';
  line += '\n';
  return line;
}

std::optional<JournalRecord> parse_journal_line(std::string_view line) {
  if (line.size() < kMinLineBytes) return std::nullopt;
  if (line.substr(0, kCrcBegin) != kEnvelopePrefix) return std::nullopt;
  if (line.substr(kCrcBegin + kCrcLen, kEnvelopeSeparator.size()) !=
      kEnvelopeSeparator) {
    return std::nullopt;
  }
  if (line.back() != '}') return std::nullopt;
  const std::string_view crc = line.substr(kCrcBegin, kCrcLen);
  for (const char c : crc) {
    if (!is_hex_lower(c)) return std::nullopt;
  }
  const std::string_view rec = line.substr(kRecBegin,
                                           line.size() - kRecBegin - 1);
  if (fnv1a64_hex(rec) != crc) return std::nullopt;

  std::string parse_error;
  const std::optional<obs::JsonValue> doc =
      obs::parse_json(std::string(rec), &parse_error);
  if (!doc.has_value()) return std::nullopt;
  return record_from_json(*doc);
}

JournalReadResult read_journal_text(std::string_view text) {
  JournalReadResult out;
  std::size_t pos = 0;
  std::uint64_t line_no = 0;
  while (pos < text.size()) {
    ++line_no;
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) {
      out.truncated = true;
      out.note = "torn tail: line " + std::to_string(line_no) +
                 " has no terminating newline (" +
                 std::to_string(text.size() - pos) + " bytes dropped)";
      return out;
    }
    std::optional<JournalRecord> record =
        parse_journal_line(text.substr(pos, nl - pos));
    if (!record.has_value()) {
      out.truncated = true;
      out.note = "corrupt record at line " + std::to_string(line_no) + " (" +
                 std::to_string(text.size() - pos) + " bytes dropped)";
      return out;
    }
    out.records.push_back(std::move(*record));
    pos = nl + 1;
    out.bytes_consumed = pos;
  }
  return out;
}

JournalReadResult read_journal_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    JournalReadResult out;
    struct stat st {};
    if (::stat(path.c_str(), &st) != 0 && errno == ENOENT) {
      return out;  // first session: no journal yet
    }
    out.truncated = true;
    out.note = "cannot read journal " + path;
    return out;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return read_journal_text(buffer.str());
}

bool truncate_journal_file(const std::string& path, std::size_t bytes,
                           std::string* error) {
  const auto fail = [&](const std::string& op, int err) {
    if (error != nullptr) {
      *error = op + "(" + path + "): " + std::string(strerror(err));
    }
    return false;
  };
  int fd = -1;
  for (;;) {
    fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
    if (fd >= 0 || errno != EINTR) break;
  }
  if (fd < 0) return fail("open", errno);
  for (;;) {
    if (::ftruncate(fd, static_cast<off_t>(bytes)) == 0) break;
    if (errno == EINTR) continue;
    const int err = errno;
    ::close(fd);
    return fail("ftruncate", err);
  }
  // The dropped tail must stay dropped across a power cut: the new size is
  // durable only after the file fsync, and the directory sync closes the
  // remaining metadata gap. Otherwise a crash could resurrect the corrupt
  // tail recovery believed it removed.
  int err = 0;
  if (!fsync_retry(fd, &err)) {
    ::close(fd);
    return fail("fsync", err);
  }
  ::close(fd);
  if (!fsync_parent_dir(path, &err)) return fail("fsync-dir", err);
  return true;
}

// ---------------------------------------------------------------------------
// JournalWriter

JournalWriter::~JournalWriter() { close(); }

bool JournalWriter::open(const JournalConfig& config, std::string* error) {
  const auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  const MutexLock lock(mutex_);
  if (fd_ >= 0) return fail("journal already open");
  config_ = config;
  if (config_.path.empty()) return true;  // journaling disabled
  int fd = -1;
  for (;;) {
    fd = ::open(config_.path.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC,
                0644);
    if (fd >= 0 || errno != EINTR) break;
  }
  if (fd < 0) {
    return fail("cannot open journal " + config_.path + ": " +
                std::string(strerror(errno)));
  }
  // The O_CREAT above may have just created the file; its directory entry
  // must be durable before any appended record can claim to be, so sync
  // the parent directory once per open. This one-shot startup fsync stays
  // under the lock: fd_ must not become visible to appenders until the
  // entry is durable, and open() runs before any traffic exists to stall.
  int dir_err = 0;
  // micco-lint: allow(blocking-under-lock) one-shot startup: directory entry must be durable before fd_ is published
  if (!fsync_parent_dir(config_.path, &dir_err)) {
    ::close(fd);
    return fail("cannot fsync journal directory of " + config_.path + ": " +
                std::string(strerror(dir_err)));
  }
  fd_ = fd;
  return true;
}

void JournalWriter::set_telemetry(obs::Counter* records, obs::Counter* bytes,
                                  obs::Histogram* fsync_ms) {
  const MutexLock lock(mutex_);
  records_counter_ = records;
  bytes_counter_ = bytes;
  fsync_ms_ = fsync_ms;
}

bool JournalWriter::append(const JournalRecord& record, std::string* error) {
  const std::string line = encode_journal_line(record);
  int fd = -1;
  bool want_sync = false;
  std::uint64_t appended = 0;
  std::uint64_t crash_after = 0;
  obs::Histogram* fsync_ms = nullptr;
  {
    const MutexLock lock(mutex_);
    if (fd_ < 0) {
      if (error != nullptr) *error = "journal not open";
      return false;
    }
    int err = 0;
    // The write must stay under the lock: concurrent appends have to reach
    // the O_APPEND fd one whole record at a time, or two half-records
    // interleave and recovery sees a corrupt line.
    // micco-lint: allow(blocking-under-lock) O_APPEND record framing requires serializing the write itself
    if (!write_all(fd_, line.data(), line.size(), &err)) {
      if (error != nullptr) {
        *error = "journal write failed: " + std::string(strerror(err));
      }
      return false;
    }
    ++appended_;
    if (records_counter_ != nullptr) records_counter_->add();
    if (bytes_counter_ != nullptr) bytes_counter_->add(line.size());
    want_sync = config_.fsync == FsyncPolicy::kAlways;
    fd = fd_;
    appended = appended_;
    crash_after = config_.crash_after_records;
    fsync_ms = fsync_ms_;
  }

  // The durability fsync runs OFF the lock: it is the slowest operation in
  // the hot path (milliseconds on real disks) and holding mutex_ across it
  // stalled every concurrent append and is_open()/records_appended() probe
  // for the full device round trip. An fsync covers every byte written to
  // the fd before it started, so this thread's record — written above,
  // earlier in program order — is durable when fsync_retry returns no
  // matter how appends interleave. (close() only runs after appends
  // quiesce, so the snapshot fd stays valid.)
  if (want_sync) {
    Stopwatch watch;
    int err = 0;
    if (!fsync_retry(fd, &err)) {
      if (error != nullptr) {
        *error = "journal fsync failed: " + std::string(strerror(err));
      }
      return false;
    }
    if (fsync_ms != nullptr) fsync_ms->observe(watch.elapsed_ms());
  }

  // Chaos hook: die the instant the Nth record is durable, so the harness
  // can probe recovery at every boundary between journal records.
  if (crash_after > 0 && appended >= crash_after) {
    ::raise(SIGKILL);
  }
  return true;
}

void JournalWriter::close() {
  const MutexLock lock(mutex_);
  if (fd_ < 0) return;
  // Nothing is left to sync: kAlways synced every append, kNever syncs
  // nothing.
  ::close(fd_);
  fd_ = -1;
}

bool JournalWriter::is_open() const {
  const MutexLock lock(mutex_);
  return fd_ >= 0;
}

std::uint64_t JournalWriter::records_appended() const {
  const MutexLock lock(mutex_);
  return appended_;
}

}  // namespace micco::service
