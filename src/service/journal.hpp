// Durable write-ahead journal of job lifecycle records (DESIGN.md §8).
//
// The daemon's crash-safety contract rests on one append-only NDJSON file:
// every job transition that must survive a crash — admitted, finished — is
// appended (and, per the fsync policy, flushed to stable storage) *before*
// the transition becomes externally visible. On restart the journal is
// replayed in order: finished jobs answer status again, jobs that were
// QUEUED or RUNNING re-enter the queue in their original admission order,
// and a (tenant, idempotency-token) dedup table is rebuilt so a client's
// resubmit after a lost reply never double-runs.
//
// Wire format. One record per line, wrapped in a fixed-offset checksum
// envelope:
//
//   {"v":1,"crc":"<16 hex>","rec":<record object>}\n
//
// The crc is FNV-1a 64-bit over the raw bytes of the <record object>
// substring, so verification needs no JSON canonicalization — the reader
// checksums exactly the bytes the writer wrote. The envelope prefix and the
// `","rec":` separator sit at fixed offsets (the JSON writer escapes every
// control character, so a newline is always a record boundary).
//
// Torn-write tolerance. A crash mid-append leaves a tail that is missing
// its newline, fails its checksum, or is not valid JSON. The reader stops
// cleanly at the first such record and reports how many bytes of intact
// prefix precede it; recovery truncates the file there and appends on. The
// reader never aborts on any input — journal bytes are data, not contracts.
//
// All raw ::write/::fsync durability I/O in the tree lives behind this
// module's EINTR-retrying wrappers; micco-lint's `raw-durability-io` rule
// keeps it that way.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/lock_ranks.hpp"
#include "common/mutex.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace micco::service {

/// FNV-1a 64-bit of `bytes` as 16 lowercase hex digits. The journal's
/// checksum and the result digest both use it; it is also the hash behind
/// Client::mint_trace_id, so the whole service layer shares one function.
std::string fnv1a64_hex(std::string_view bytes);

/// When appended records reach stable storage.
enum class FsyncPolicy {
  kNever,   ///< never fsync (tests / throwaway journals)
  kAlways,  ///< fsync after every append (the durability default)
};

const char* to_string(FsyncPolicy policy);
/// Parses "never" / "always"; nullopt otherwise.
std::optional<FsyncPolicy> parse_fsync_policy(const std::string& text);

struct JournalConfig {
  /// Journal file path; empty disables journaling entirely.
  std::string path;
  FsyncPolicy fsync = FsyncPolicy::kAlways;
  /// Crash-injection hook for the chaos harness: when non-zero, the writer
  /// raises SIGKILL immediately after the Nth record (of any kind) becomes
  /// durable — the scripted crash points of the kill-9 tests.
  std::uint64_t crash_after_records = 0;
};

enum class RecordKind {
  kAdmitted,    ///< job accepted; workload + identity made durable
  /// Job handed to the dispatcher. No longer written; older journals hold
  /// it, so the reader still parses it and replay skips it.
  kDispatched,
  kFinished,    ///< terminal transition with retained result + digest
};

const char* to_string(RecordKind kind);

/// One journal record. Field population follows the kind: admitted carries
/// the full identity + workload text, dispatched only the job id, finished
/// the terminal state plus (when retained) the result document and its
/// digest.
struct JournalRecord {
  RecordKind kind = RecordKind::kAdmitted;
  std::uint64_t job_id = 0;
  std::string tenant;         ///< admitted
  std::string name;           ///< admitted; optional label
  std::string trace_id;       ///< admitted; client-minted, may be empty
  std::string idem;           ///< admitted; idempotency token, may be empty
  std::string workload_text;  ///< admitted; micco-workload v1 text
  std::string state;          ///< finished: "DONE" / "FAILED" / "CANCELLED"
  std::string error;          ///< finished + FAILED
  obs::JsonValue result;      ///< finished; retained result document
  bool has_result = false;
};

/// Serializes one record into its full envelope line (trailing '\n'
/// included). Finished records with a result also embed
/// "digest": fnv1a64_hex(result.dump()) so replayed results are
/// end-to-end verifiable, not just envelope-checksummed.
std::string encode_journal_line(const JournalRecord& record);

/// Parses one envelope line (no trailing '\n'). nullopt on any defect:
/// short line, malformed envelope, checksum mismatch, invalid JSON, unknown
/// kind, missing fields, or a result digest that does not match.
std::optional<JournalRecord> parse_journal_line(std::string_view line);

/// Outcome of reading a journal: the intact prefix, decoded.
struct JournalReadResult {
  std::vector<JournalRecord> records;
  /// Bytes of intact prefix (complete, valid lines including their '\n').
  /// Recovery truncates the file to this length before appending.
  std::size_t bytes_consumed = 0;
  /// True when trailing bytes were dropped (torn or corrupt tail).
  bool truncated = false;
  /// Human-readable account of why reading stopped, empty when clean.
  std::string note;
};

/// Decodes journal text, stopping cleanly at the first torn or corrupt
/// record. Never aborts, whatever the input.
JournalReadResult read_journal_text(std::string_view text);

/// read_journal_text over a file's contents. A missing file reads as an
/// empty, clean journal (first session); an unreadable one as truncated at
/// byte 0 with a note.
JournalReadResult read_journal_file(const std::string& path);

/// Truncates the journal file to `bytes` (dropping a torn tail before the
/// writer reopens it for append). Returns false with a diagnostic on
/// failure.
bool truncate_journal_file(const std::string& path, std::size_t bytes,
                           std::string* error);

/// Append-only journal writer. Thread-safe: handle_submit (any I/O lane)
/// and the dispatcher append concurrently; the internal mutex serializes
/// appends so lines never interleave. All I/O goes through EINTR-retrying
/// wrappers confined to journal.cpp.
class JournalWriter {
 public:
  JournalWriter() = default;
  ~JournalWriter();

  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Opens (creating if needed) the configured journal for append. Returns
  /// false with a diagnostic on failure. A config with an empty path leaves
  /// the writer closed (journaling disabled) and returns true.
  bool open(const JournalConfig& config, std::string* error);

  /// Optional telemetry: per-append record/byte counters and the fsync
  /// latency histogram. Not owned; must outlive the writer.
  void set_telemetry(obs::Counter* records, obs::Counter* bytes,
                     obs::Histogram* fsync_ms);

  /// Appends one record and applies the fsync policy. False with a
  /// diagnostic when the write (or a policy-required fsync) failed — the
  /// caller must then treat the transition as not durable.
  bool append(const JournalRecord& record, std::string* error);

  void close();
  bool is_open() const;
  std::uint64_t records_appended() const;

 private:
  mutable Mutex mutex_{"JournalWriter::mutex_", kLockRankJournal};
  JournalConfig config_;
  int fd_ MICCO_GUARDED_BY(mutex_) = -1;
  std::uint64_t appended_ MICCO_GUARDED_BY(mutex_) = 0;
  obs::Counter* records_counter_ MICCO_GUARDED_BY(mutex_) = nullptr;
  obs::Counter* bytes_counter_ MICCO_GUARDED_BY(mutex_) = nullptr;
  obs::Histogram* fsync_ms_ MICCO_GUARDED_BY(mutex_) = nullptr;
};

}  // namespace micco::service
