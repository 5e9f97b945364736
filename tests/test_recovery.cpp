// Restart recovery of the scheduling daemon (DESIGN.md §8): a second
// Server session replaying the journal of a first one. A finished job
// journals exactly [admitted, finished] and answers status again,
// interrupted jobs re-run with a byte-identical decision log and span
// trace (also from a journal holding the `dispatched` records older daemons
// wrote), idempotent resubmits dedupe across the restart, an admission that
// fails the structure check replays as FAILED, and a torn journal tail is
// dropped and truncated before serving continues.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "obs/names.hpp"
#include "serve_harness.hpp"
#include "service/journal.hpp"

namespace micco::service {
namespace {

using namespace harness;

/// Kinds of the records currently in a journal file, in order.
std::vector<RecordKind> journal_kinds(const std::string& path) {
  std::vector<RecordKind> kinds;
  for (const JournalRecord& record : read_journal_file(path).records) {
    kinds.push_back(record.kind);
  }
  return kinds;
}

/// A registry counter from a `metrics` reply; 0 when it was never created.
std::int64_t served_counter(const obs::JsonValue& metrics_reply,
                            const char* name) {
  const obs::JsonValue* counter =
      metrics_reply.at("metrics").at("counters").find(name);
  return counter == nullptr ? 0 : counter->as_int();
}

/// submit_retrying with one attempt: a single send carrying `idem`.
std::optional<obs::JsonValue> submit_once(Client& client,
                                          const std::string& tenant,
                                          const std::string& name,
                                          const std::string& workload,
                                          const std::string& idem,
                                          std::string* error) {
  RetryPolicy once;
  once.max_attempts = 1;
  return client.submit_retrying(tenant, name, workload, idem, once, error);
}

TEST(Recovery, FinishedJobsAnswerAfterRestart) {
  const std::string journal = tmp_file_path("fin.journal");
  std::string error;

  // Session 1: run one job to completion under the journal.
  {
    const std::string socket = test_socket_path("fin1");
    ServerConfig config;
    config.socket_path = socket;
    config.cluster.num_devices = 4;
    config.journal.path = journal;
    ServeSession session(std::move(config));
    ASSERT_TRUE(session.begin(&error)) << error;
    Client client;
    ASSERT_TRUE(client.connect(socket, &error)) << error;
    const auto submitted =
        client.submit("alice", "one", workload_text(11), &error);
    ASSERT_TRUE(submitted.has_value()) << error;
    ASSERT_TRUE(submitted->at("ok").as_bool()) << submitted->dump();
    EXPECT_EQ(wait_for_job(client, 1).at("state").as_string(), "DONE");
    // Two appends for the one job: its admission and its finish.
    const auto reply = client.metrics(&error);
    ASSERT_TRUE(reply.has_value()) << error;
    EXPECT_EQ(served_counter(*reply, obs::names::kServiceJournalRecords), 2);
    ASSERT_TRUE(client.drain(&error).has_value()) << error;
    client.close();
    EXPECT_EQ(session.join(), 0);
  }

  // The journal recorded the lifecycle, write-ahead first, and nothing a
  // replay does not read.
  const std::vector<RecordKind> kinds = journal_kinds(journal);
  ASSERT_EQ(kinds.size(), 2u);
  EXPECT_EQ(kinds[0], RecordKind::kAdmitted);
  EXPECT_EQ(kinds[1], RecordKind::kFinished);

  // Session 2: replay. The finished job answers status, result included,
  // without re-running, flagged as replayed.
  {
    const std::string socket = test_socket_path("fin2");
    ServerConfig config;
    config.socket_path = socket;
    config.cluster.num_devices = 4;
    config.journal.path = journal;
    ServeSession session(std::move(config));
    ASSERT_TRUE(session.begin(&error)) << error;
    Client client;
    ASSERT_TRUE(client.connect(socket, &error)) << error;

    const auto status = client.status(1, &error);
    ASSERT_TRUE(status.has_value()) << error;
    ASSERT_TRUE(status->at("ok").as_bool()) << status->dump();
    EXPECT_EQ(status->at("state").as_string(), "DONE");
    EXPECT_TRUE(status->at("replayed").as_bool()) << status->dump();
    EXPECT_TRUE(status->at("result").at("completed").as_bool());
    EXPECT_GT(status->at("result").at("makespan_s").as_double(), 0.0);

    // stats() is the one book of job totals: it counts the replayed job
    // as submitted, admitted and completed, and the registry restates
    // none of it (its service.* numbers are the ones stats() lacks).
    const auto reply = client.metrics(&error);
    ASSERT_TRUE(reply.has_value()) << error;
    const obs::JsonValue& stats = reply->at("stats");
    for (const char* key : {"submitted", "admitted", "completed", "replayed"}) {
      EXPECT_EQ(stats.at(key).as_int(), 1) << key;
    }
    for (const char* kind : {"counters", "gauges"}) {
      for (const auto& [name, value] :
           reply->at("metrics").at(kind).members()) {
        EXPECT_TRUE(!name.starts_with("service.") ||
                    name == obs::names::kServiceDispatched ||
                    name == obs::names::kServiceJournalRecords ||
                    name == obs::names::kServiceJournalBytes ||
                    name == obs::names::kServiceTornTail)
            << name;
      }
    }

    ASSERT_TRUE(client.drain(&error).has_value()) << error;
    client.close();
    EXPECT_EQ(session.join(), 0);
  }
}

TEST(Recovery, InterruptedJobRerunsByteIdentically) {
  // The journal compatibility case: the crashed journal below is written
  // by hand the way older daemons wrote it, with a `dispatched` record
  // after the admission. Replay must read that record and skip it — not
  // truncate the journal there — both while the job is interrupted and
  // once it has finished.
  //
  // Reference: an uninterrupted session running the job, logging decisions
  // and spans.
  const std::string ref_decisions = tmp_file_path("ref.decisions");
  const std::string ref_spans = tmp_file_path("ref.spans");
  const std::string trace = Client::mint_trace_id("alice", "redo", 0);
  const std::string workload = workload_text(21, 2);
  std::string error;
  {
    const std::string socket = test_socket_path("ref");
    ServerConfig config;
    config.socket_path = socket;
    config.cluster.num_devices = 4;
    config.decisions_path = ref_decisions;
    config.spans_path = ref_spans;
    ServeSession session(std::move(config));
    ASSERT_TRUE(session.begin(&error)) << error;
    Client client;
    ASSERT_TRUE(client.connect(socket, &error)) << error;
    const auto submitted = client.submit("alice", "redo", workload, &error);
    ASSERT_TRUE(submitted.has_value()) << error;
    ASSERT_TRUE(submitted->at("ok").as_bool()) << submitted->dump();
    EXPECT_EQ(wait_for_job(client, 1).at("state").as_string(), "DONE");
    ASSERT_TRUE(client.drain(&error).has_value()) << error;
    client.close();
    EXPECT_EQ(session.join(), 0);
  }

  // Crash simulation: a journal holding the admitted and dispatched
  // records but no finished one — the daemon died mid-run.
  const std::string journal = tmp_file_path("redo.journal");
  {
    JournalRecord admitted;
    admitted.kind = RecordKind::kAdmitted;
    admitted.job_id = 1;
    admitted.tenant = "alice";
    admitted.name = "redo";
    admitted.trace_id = trace;
    admitted.workload_text = workload;
    JournalRecord dispatched;
    dispatched.kind = RecordKind::kDispatched;
    dispatched.job_id = 1;
    std::ofstream out(journal, std::ios::binary);
    out << encode_journal_line(admitted) << encode_journal_line(dispatched);
  }

  const std::string rec_decisions = tmp_file_path("rec.decisions");
  const std::string rec_spans = tmp_file_path("rec.spans");
  {
    const std::string socket = test_socket_path("rec");
    ServerConfig config;
    config.socket_path = socket;
    config.cluster.num_devices = 4;
    config.journal.path = journal;
    config.decisions_path = rec_decisions;
    config.spans_path = rec_spans;
    ServeSession session(std::move(config));
    ASSERT_TRUE(session.begin(&error)) << error;
    Client client;
    ASSERT_TRUE(client.connect(socket, &error)) << error;

    // The replayed job is visible immediately, flagged interrupted, and
    // runs to completion.
    const obs::JsonValue done = wait_for_job(client, 1);
    EXPECT_EQ(done.at("state").as_string(), "DONE");
    EXPECT_TRUE(done.at("interrupted").as_bool()) << done.dump();
    ASSERT_TRUE(client.drain(&error).has_value()) << error;
    client.close();
    EXPECT_EQ(session.join(), 0);
  }

  // Decision log: byte-identical to the uninterrupted session.
  const std::string ref_log = read_file(ref_decisions);
  ASSERT_FALSE(ref_log.empty());
  EXPECT_EQ(read_file(rec_decisions), ref_log);

  // Span trace: identical prefix plus exactly one journal-replay root span.
  const std::string ref_trace = read_file(ref_spans);
  const std::string rec_trace = read_file(rec_spans);
  ASSERT_GT(rec_trace.size(), ref_trace.size());
  EXPECT_EQ(rec_trace.compare(0, ref_trace.size(), ref_trace), 0);
  const std::string extra = rec_trace.substr(ref_trace.size());
  EXPECT_NE(extra.find(obs::names::kSpanJournalReplay), std::string::npos);
  EXPECT_EQ(extra.find('\n'), extra.size() - 1);

  // The journal now closes the story: admitted, dispatched, finished(DONE).
  const JournalReadResult replayed = read_journal_file(journal);
  EXPECT_FALSE(replayed.truncated) << replayed.note;
  ASSERT_EQ(replayed.records.size(), 3u);
  EXPECT_EQ(replayed.records[1].kind, RecordKind::kDispatched);
  EXPECT_EQ(replayed.records[2].kind, RecordKind::kFinished);
  EXPECT_EQ(replayed.records[2].state, "DONE");

  // A second restart answers DONE from that journal, flagged replayed, and
  // runs nothing.
  const std::string done_decisions = tmp_file_path("done.decisions");
  {
    const std::string socket = test_socket_path("done");
    ServerConfig config;
    config.socket_path = socket;
    config.cluster.num_devices = 4;
    config.journal.path = journal;
    config.decisions_path = done_decisions;
    ServeSession session(std::move(config));
    ASSERT_TRUE(session.begin(&error)) << error;
    Client client;
    ASSERT_TRUE(client.connect(socket, &error)) << error;
    const auto status = client.status(1, &error);
    ASSERT_TRUE(status.has_value()) << error;
    EXPECT_EQ(status->at("state").as_string(), "DONE") << status->dump();
    EXPECT_TRUE(status->at("replayed").as_bool()) << status->dump();
    ASSERT_TRUE(client.drain(&error).has_value()) << error;
    client.close();
    EXPECT_EQ(session.join(), 0);
  }
  EXPECT_EQ(read_file(done_decisions), "");
}

TEST(Recovery, IdempotentResubmitRunsExactlyOnceAcrossRestart) {
  const std::string journal = tmp_file_path("idem.journal");
  std::string error;

  // Session 1: idempotent submit, then a same-session duplicate.
  {
    const std::string socket = test_socket_path("idem1");
    ServerConfig config;
    config.socket_path = socket;
    config.cluster.num_devices = 4;
    config.journal.path = journal;
    ServeSession session(std::move(config));
    ASSERT_TRUE(session.begin(&error)) << error;
    Client client;
    ASSERT_TRUE(client.connect(socket, &error)) << error;

    const auto first = submit_once(client, "alice", "once",
                                   workload_text(31), "tok-1", &error);
    ASSERT_TRUE(first.has_value()) << error;
    ASSERT_TRUE(first->at("ok").as_bool()) << first->dump();
    EXPECT_EQ(first->at("job_id").as_int(), 1);
    EXPECT_EQ(first->find("duplicate"), nullptr);

    const auto again = submit_once(client, "alice", "once",
                                   workload_text(31), "tok-1", &error);
    ASSERT_TRUE(again.has_value()) << error;
    ASSERT_TRUE(again->at("ok").as_bool()) << again->dump();
    EXPECT_EQ(again->at("job_id").as_int(), 1);
    EXPECT_TRUE(again->at("duplicate").as_bool());

    // Same token, different tenant → an independent job, not a duplicate.
    const auto other = submit_once(client, "bob", "once", workload_text(31),
                                   "tok-1", &error);
    ASSERT_TRUE(other.has_value()) << error;
    ASSERT_TRUE(other->at("ok").as_bool()) << other->dump();
    EXPECT_EQ(other->at("job_id").as_int(), 2);

    EXPECT_EQ(wait_for_job(client, 1).at("state").as_string(), "DONE");
    EXPECT_EQ(wait_for_job(client, 2).at("state").as_string(), "DONE");
    ASSERT_TRUE(client.drain(&error).has_value()) << error;
    client.close();
    EXPECT_EQ(session.join(), 0);
  }

  // Session 2: the dedup table is rebuilt from the journal, so the token
  // answers with the original, already-finished job — nothing re-runs.
  {
    const std::string socket = test_socket_path("idem2");
    ServerConfig config;
    config.socket_path = socket;
    config.cluster.num_devices = 4;
    config.journal.path = journal;
    ServeSession session(std::move(config));
    ASSERT_TRUE(session.begin(&error)) << error;
    Client client;
    ASSERT_TRUE(client.connect(socket, &error)) << error;

    const auto resubmit = submit_once(client, "alice", "once",
                                      workload_text(31), "tok-1", &error);
    ASSERT_TRUE(resubmit.has_value()) << error;
    ASSERT_TRUE(resubmit->at("ok").as_bool()) << resubmit->dump();
    EXPECT_EQ(resubmit->at("job_id").as_int(), 1);
    EXPECT_TRUE(resubmit->at("duplicate").as_bool());
    EXPECT_EQ(resubmit->at("state").as_string(), "DONE");
    EXPECT_TRUE(resubmit->at("replayed").as_bool());

    const auto reply = client.metrics(&error);
    ASSERT_TRUE(reply.has_value()) << error;
    EXPECT_EQ(reply->at("stats").at("duplicates").as_int(), 1);
    // Nothing ran in this session.
    EXPECT_EQ(served_counter(*reply, obs::names::kServiceDispatched), 0);
    ASSERT_TRUE(client.drain(&error).has_value()) << error;
    client.close();
    EXPECT_EQ(session.join(), 0);
  }

  // Exactly-once across both sessions: one DONE finished record for job 1
  // in the whole journal, and no dispatched record.
  int dispatched_job1 = 0;
  int finished_job1 = 0;
  for (const JournalRecord& record : read_journal_file(journal).records) {
    if (record.job_id != 1) continue;
    if (record.kind == RecordKind::kDispatched) ++dispatched_job1;
    if (record.kind == RecordKind::kFinished) ++finished_job1;
  }
  EXPECT_EQ(dispatched_job1, 0);
  EXPECT_EQ(finished_job1, 1);
}

TEST(Recovery, OrphanedFinishedRecordNeverSettlesALaterAdmission) {
  // A finished record positioned BEFORE its job's admitted record is an
  // orphan (e.g. a crash wedged between a shutdown-cancel append and the
  // admission append it raced, followed by the id being re-issued). Replay
  // must not let it settle the admitted job: the job re-runs as
  // interrupted instead of being answered with a state it never reached.
  const std::string journal = tmp_file_path("orphan.journal");
  {
    JournalRecord orphan;
    orphan.kind = RecordKind::kFinished;
    orphan.job_id = 1;
    orphan.state = "CANCELLED";
    JournalRecord admitted;
    admitted.kind = RecordKind::kAdmitted;
    admitted.job_id = 1;
    admitted.tenant = "alice";
    admitted.name = "orphaned";
    admitted.workload_text = workload_text(51);
    std::ofstream out(journal, std::ios::binary);
    out << encode_journal_line(orphan) << encode_journal_line(admitted);
  }

  std::string error;
  {
    const std::string socket = test_socket_path("orphan");
    ServerConfig config;
    config.socket_path = socket;
    config.cluster.num_devices = 4;
    config.journal.path = journal;
    ServeSession session(std::move(config));
    ASSERT_TRUE(session.begin(&error)) << error;
    Client client;
    ASSERT_TRUE(client.connect(socket, &error)) << error;
    const obs::JsonValue done = wait_for_job(client, 1);
    EXPECT_EQ(done.at("state").as_string(), "DONE") << done.dump();
    EXPECT_TRUE(done.at("interrupted").as_bool()) << done.dump();
    EXPECT_EQ(done.find("replayed"), nullptr) << done.dump();
    ASSERT_TRUE(client.drain(&error).has_value()) << error;
    client.close();
    EXPECT_EQ(session.join(), 0);
  }

  // A finished record that FOLLOWS the admission settles it as usual: the
  // re-run above appended finished(DONE), so a second replay answers DONE
  // without re-running.
  {
    const std::string socket = test_socket_path("orphan2");
    ServerConfig config;
    config.socket_path = socket;
    config.cluster.num_devices = 4;
    config.journal.path = journal;
    ServeSession session(std::move(config));
    ASSERT_TRUE(session.begin(&error)) << error;
    Client client;
    ASSERT_TRUE(client.connect(socket, &error)) << error;
    const auto status = client.status(1, &error);
    ASSERT_TRUE(status.has_value()) << error;
    EXPECT_EQ(status->at("state").as_string(), "DONE") << status->dump();
    EXPECT_TRUE(status->at("replayed").as_bool()) << status->dump();
    ASSERT_TRUE(client.drain(&error).has_value()) << error;
    client.close();
    EXPECT_EQ(session.join(), 0);
  }
}

TEST(Recovery, StructurallyInvalidAdmissionReplaysAsFailed) {
  // A journal holding the admission of a workload that consumes its own
  // output (an older daemon admitted it unchecked and aborted running it,
  // on every restart). Replay fails the job, and the daemon serves.
  const std::string journal = tmp_file_path("selfmw_replay.journal");
  std::string error;
  {
    JournalConfig journal_config;
    journal_config.path = journal;
    JournalWriter writer;
    ASSERT_TRUE(writer.open(journal_config, &error)) << error;
    JournalRecord admitted;
    admitted.kind = RecordKind::kAdmitted;
    admitted.job_id = 1;
    admitted.tenant = "alice";
    admitted.name = "self";
    admitted.workload_text = kSelfConsumingWorkload;
    ASSERT_TRUE(writer.append(admitted, &error)) << error;
  }

  const std::string socket = test_socket_path("selfmw_replay");
  ServerConfig config;
  config.socket_path = socket;
  config.cluster.num_devices = 1;
  config.journal.path = journal;
  ServeSession session(std::move(config));
  ASSERT_TRUE(session.begin(&error)) << error;
  Client client;
  ASSERT_TRUE(client.connect(socket, &error)) << error;
  const auto status = client.status(1, &error);
  ASSERT_TRUE(status.has_value()) << error;
  EXPECT_EQ(status->at("state").as_string(), "FAILED") << status->dump();
  EXPECT_NE(status->at("error").as_string().find("consumes tensor 1"),
            std::string::npos)
      << status->dump();

  const auto good = client.submit("alice", "valid", workload_text(3), &error);
  ASSERT_TRUE(good.has_value()) << error;
  ASSERT_TRUE(good->at("ok").as_bool()) << good->dump();
  EXPECT_EQ(wait_for_job(client, 2).at("state").as_string(), "DONE");
  ASSERT_TRUE(client.drain(&error).has_value()) << error;
  client.close();
  EXPECT_EQ(session.join(), 0);
}

TEST(Recovery, TornTailIsDroppedAndServingContinues) {
  const std::string journal = tmp_file_path("torn.journal");
  std::string error;

  // An admitted record followed by a torn half-append (a dispatched record,
  // as older daemons wrote one after each admission).
  JournalRecord admitted;
  admitted.kind = RecordKind::kAdmitted;
  admitted.job_id = 1;
  admitted.tenant = "alice";
  admitted.name = "torn";
  admitted.workload_text = workload_text(41);
  const std::string intact = encode_journal_line(admitted);
  {
    std::ofstream out(journal, std::ios::binary);
    JournalRecord half;
    half.kind = RecordKind::kDispatched;
    half.job_id = 1;
    out << intact << encode_journal_line(half).substr(0, 20);
  }

  {
    const std::string socket = test_socket_path("torn");
    ServerConfig config;
    config.socket_path = socket;
    config.cluster.num_devices = 4;
    config.journal.path = journal;
    ServeSession session(std::move(config));
    ASSERT_TRUE(session.begin(&error)) << error;
    Client client;
    ASSERT_TRUE(client.connect(socket, &error)) << error;
    const obs::JsonValue done = wait_for_job(client, 1);
    EXPECT_EQ(done.at("state").as_string(), "DONE");
    EXPECT_TRUE(done.at("interrupted").as_bool()) << done.dump();
    ASSERT_TRUE(client.drain(&error).has_value()) << error;
    client.close();
    EXPECT_EQ(session.join(), 0);
  }

  // The tail was truncated before appending: the journal reads back clean,
  // with the re-run's finished record following the intact prefix directly.
  const JournalReadResult read = read_journal_file(journal);
  EXPECT_FALSE(read.truncated) << read.note;
  ASSERT_EQ(read.records.size(), 2u);
  EXPECT_EQ(read.records[0].kind, RecordKind::kAdmitted);
  EXPECT_EQ(read.records[1].kind, RecordKind::kFinished);
  EXPECT_EQ(read.records[1].state, "DONE");
}

}  // namespace
}  // namespace micco::service
