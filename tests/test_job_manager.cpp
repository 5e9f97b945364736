// Unit tests for the daemon's job book of record: admission control,
// weighted fair-share dispatch, the job lifecycle, and drain semantics.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "service/job_manager.hpp"
#include "workload/synthetic.hpp"

namespace micco::service {
namespace {

WorkloadStream tiny_stream(std::uint64_t seed = 1) {
  SyntheticConfig cfg;
  cfg.num_vectors = 1;
  cfg.vector_size = 8;
  cfg.seed = seed;
  return generate_synthetic(cfg);
}

CompletionTiming queue_only(double queue_ms) {
  CompletionTiming timing;
  timing.queue_latency_ms = queue_ms;
  timing.e2e_latency_ms = queue_ms;
  return timing;
}

TEST(JobManager, LifecycleQueuedRunningDone) {
  JobManager jobs;
  const SubmitOutcome outcome = jobs.submit("alice", "job-a", tiny_stream());
  ASSERT_TRUE(outcome.admitted);
  EXPECT_EQ(outcome.job_id, 1u);
  EXPECT_EQ(jobs.status(1)->state, JobState::kQueued);
  EXPECT_EQ(jobs.status(1)->queue_position, 0);
  EXPECT_FALSE(jobs.status_with_result(1)->result.has_value());

  const auto picked = jobs.next_job();
  ASSERT_TRUE(picked.has_value());
  EXPECT_EQ(*picked, 1u);
  EXPECT_EQ(jobs.status(1)->state, JobState::kRunning);
  const WorkloadStream stream = jobs.take_stream(1);
  EXPECT_FALSE(stream.vectors.empty());

  obs::JsonValue result = obs::JsonValue::object();
  result.set("makespan_s", 0.5);
  jobs.complete(1, std::move(result), queue_only(12.0));
  EXPECT_EQ(jobs.status(1)->state, JobState::kDone);
  ASSERT_TRUE(jobs.status_with_result(1)->result.has_value());
  EXPECT_DOUBLE_EQ(
      jobs.status_with_result(1)->result->at("makespan_s").as_double(), 0.5);
  EXPECT_EQ(jobs.queued_total(), 0u);
  EXPECT_EQ(jobs.stats().at("running").as_int(), 0);
}

TEST(JobManager, FailedJobKeepsErrorAndResult) {
  JobManager jobs;
  ASSERT_TRUE(jobs.submit("t", "", tiny_stream()).admitted);
  ASSERT_TRUE(jobs.next_job().has_value());
  obs::JsonValue result = obs::JsonValue::object();
  result.set("completed", false);
  jobs.fail(1, "device 0 lost", std::move(result), queue_only(3.0));
  EXPECT_EQ(jobs.status(1)->state, JobState::kFailed);
  EXPECT_EQ(jobs.status(1)->error, "device 0 lost");
  EXPECT_TRUE(jobs.status_with_result(1)->result.has_value());
}

TEST(JobManager, UnknownJobQueriesReturnNullopt) {
  JobManager jobs;
  EXPECT_FALSE(jobs.status(42).has_value());
  EXPECT_FALSE(jobs.status_with_result(42).has_value());
  EXPECT_FALSE(jobs.next_job().has_value());
}

TEST(JobManager, PerTenantQueueDepthRejects) {
  AdmissionConfig config;
  config.max_queue_per_tenant = 2;
  JobManager jobs(config);
  EXPECT_TRUE(jobs.submit("a", "", tiny_stream()).admitted);
  EXPECT_TRUE(jobs.submit("a", "", tiny_stream()).admitted);
  const SubmitOutcome rejected = jobs.submit("a", "", tiny_stream());
  EXPECT_FALSE(rejected.admitted);
  EXPECT_EQ(rejected.reject_code, "queue_full");
  EXPECT_FALSE(rejected.reject_reason.empty());
  // Another tenant is unaffected by a's full queue.
  EXPECT_TRUE(jobs.submit("b", "", tiny_stream()).admitted);
}

TEST(JobManager, TotalQueueDepthRejects) {
  AdmissionConfig config;
  config.max_queue_per_tenant = 64;
  config.max_queued_total = 3;
  JobManager jobs(config);
  EXPECT_TRUE(jobs.submit("a", "", tiny_stream()).admitted);
  EXPECT_TRUE(jobs.submit("b", "", tiny_stream()).admitted);
  EXPECT_TRUE(jobs.submit("c", "", tiny_stream()).admitted);
  const SubmitOutcome rejected = jobs.submit("d", "", tiny_stream());
  EXPECT_FALSE(rejected.admitted);
  EXPECT_EQ(rejected.reject_code, "queue_full");
}

TEST(JobManager, DrainRejectsNewWorkButFinishesBacklog) {
  JobManager jobs;
  ASSERT_TRUE(jobs.submit("a", "", tiny_stream()).admitted);
  jobs.begin_drain();
  EXPECT_TRUE(jobs.draining());
  const SubmitOutcome rejected = jobs.submit("a", "", tiny_stream());
  EXPECT_FALSE(rejected.admitted);
  EXPECT_EQ(rejected.reject_code, "draining");
  // The queued job still dispatches; the drain ends once it finished.
  EXPECT_FALSE(jobs.drained());
  ASSERT_TRUE(jobs.next_job().has_value());
  EXPECT_FALSE(jobs.drained());
  jobs.complete(1, obs::JsonValue::object(), queue_only(1.0));
  EXPECT_TRUE(jobs.drained());
}

TEST(JobManager, CancelQueuedEmptiesBacklog) {
  // Shutdown order: stop admission, then cancel the backlog.
  JobManager jobs;
  ASSERT_TRUE(jobs.submit("a", "", tiny_stream()).admitted);
  ASSERT_TRUE(jobs.submit("b", "", tiny_stream()).admitted);
  ASSERT_TRUE(jobs.next_job().has_value());  // job 1 now RUNNING
  jobs.begin_drain();
  EXPECT_EQ(jobs.cancel_queued().size(), 1u);  // job 2 cancelled
  EXPECT_EQ(jobs.status(2)->state, JobState::kCancelled);
  EXPECT_FALSE(jobs.drained());  // job 1 still in flight
  jobs.complete(1, obs::JsonValue::object(), queue_only(1.0));
  EXPECT_TRUE(jobs.drained());
  EXPECT_FALSE(jobs.next_job().has_value());
}

TEST(JobManager, FairShareFollowsWeights) {
  // alice weight 3, bob weight 1 → over 8 dispatches alice gets 6, bob 2.
  AdmissionConfig config;
  config.tenant_weights["alice"] = 3;
  JobManager jobs(config);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(jobs.submit("alice", "", tiny_stream()).admitted);
  }
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(jobs.submit("bob", "", tiny_stream()).admitted);
  }
  std::map<std::string, int> dispatched;
  for (int i = 0; i < 8; ++i) {
    const auto id = jobs.next_job();
    ASSERT_TRUE(id.has_value());
    ++dispatched[jobs.status(*id)->tenant];
    jobs.complete(*id, obs::JsonValue::object(), queue_only(0.0));
  }
  EXPECT_EQ(dispatched["alice"], 6);
  EXPECT_EQ(dispatched["bob"], 2);
}

TEST(JobManager, EqualWeightsAlternate) {
  JobManager jobs;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(jobs.submit("a", "", tiny_stream()).admitted);
    ASSERT_TRUE(jobs.submit("b", "", tiny_stream()).admitted);
  }
  std::vector<std::string> order;
  while (const auto id = jobs.next_job()) {
    order.push_back(jobs.status(*id)->tenant);
    jobs.complete(*id, obs::JsonValue::object(), queue_only(0.0));
  }
  const std::vector<std::string> expected{"a", "b", "a", "b", "a", "b"};
  EXPECT_EQ(order, expected);
}

TEST(JobManager, IdleTenantCannotBankCredit) {
  // b sits idle while a dispatches many jobs; when b finally submits it must
  // not get a burst of consecutive dispatches (stride re-entry rule).
  JobManager jobs;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(jobs.submit("a", "", tiny_stream()).admitted);
  }
  for (int i = 0; i < 10; ++i) {
    const auto id = jobs.next_job();
    ASSERT_TRUE(id.has_value());
    jobs.complete(*id, obs::JsonValue::object(), queue_only(0.0));
  }
  // Now b joins with a backlog, a refills too.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(jobs.submit("b", "", tiny_stream()).admitted);
    ASSERT_TRUE(jobs.submit("a", "", tiny_stream()).admitted);
  }
  std::vector<std::string> order;
  for (int i = 0; i < 4; ++i) {
    const auto id = jobs.next_job();
    ASSERT_TRUE(id.has_value());
    order.push_back(jobs.status(*id)->tenant);
    jobs.complete(*id, obs::JsonValue::object(), queue_only(0.0));
  }
  // Alternation, not a b-burst. Tie at re-entry breaks by name: a first.
  const std::vector<std::string> expected{"a", "b", "a", "b"};
  EXPECT_EQ(order, expected);
}

TEST(JobManager, MaxWeightTenantStillLetsOthersThrough) {
  // At the largest weight a dispatch still advances the tenant's pass (by
  // 1), so a weight-1 tenant behind a 20-job backlog dispatches second.
  AdmissionConfig config;
  config.tenant_weights["alice"] = AdmissionConfig::kMaxWeight;
  ASSERT_EQ(config.validate(), "");
  JobManager jobs(config);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(jobs.submit("alice", "", tiny_stream()).admitted);
  }
  ASSERT_TRUE(jobs.submit("bob", "", tiny_stream()).admitted);
  std::vector<std::string> order;
  while (const auto id = jobs.next_job()) {
    order.push_back(jobs.status(*id)->tenant);
    jobs.complete(*id, obs::JsonValue::object(), queue_only(0.0));
  }
  ASSERT_EQ(order.size(), 21u);
  EXPECT_EQ(order[1], "bob");
}

TEST(JobManager, AdmissionConfigBoundsEveryWeight) {
  AdmissionConfig config;
  EXPECT_EQ(config.validate(), "");
  for (const int weight : {0, -1, AdmissionConfig::kMaxWeight + 1}) {
    config.tenant_weights["bob"] = weight;
    EXPECT_NE(config.validate().find("tenant 'bob' has weight " +
                                     std::to_string(weight)),
              std::string::npos)
        << config.validate();
  }
}

TEST(JobManager, StatsAndMetricsAccounting) {
  obs::MetricsRegistry registry;
  AdmissionConfig config;
  config.max_queue_per_tenant = 1;
  JobManager jobs(config);
  jobs.set_registry(&registry);

  ASSERT_TRUE(jobs.submit("a", "", tiny_stream()).admitted);
  ASSERT_FALSE(jobs.submit("a", "", tiny_stream()).admitted);
  ASSERT_TRUE(jobs.next_job().has_value());
  jobs.complete(1, obs::JsonValue::object(), queue_only(7.0));

  const obs::JsonValue stats = jobs.stats();
  EXPECT_EQ(stats.at("submitted").as_int(), 2);
  EXPECT_EQ(stats.at("admitted").as_int(), 1);
  EXPECT_EQ(stats.at("rejected").as_int(), 1);
  EXPECT_EQ(stats.at("completed").as_int(), 1);
  EXPECT_EQ(stats.at("queued").as_int(), 0);
  EXPECT_EQ(stats.at("tenants").at("a").at("admitted").as_int(), 1);
  EXPECT_EQ(stats.at("tenants").at("a").at("rejected").as_int(), 1);
  EXPECT_EQ(stats.at("running").as_int(), 0);

  // stats() is the one book of these totals: the registry keeps only the
  // dispatch count, which stats() does not hold, and no gauge.
  const obs::JsonValue snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.at("counters").members().size(), 1u)
      << snapshot.dump();
  EXPECT_EQ(snapshot.at("counters").at(obs::names::kServiceDispatched).as_int(),
            1);
  EXPECT_TRUE(snapshot.at("gauges").members().empty()) << snapshot.dump();
}

TEST(JobManager, TenantFirstSeenInARefusalReportsItsWeight) {
  // The weight comes from the admission config whether the tenant's first
  // submit was admitted or refused, before admission or by a drain.
  AdmissionConfig config;
  config.tenant_weights = {{"t2", 3}, {"t3", 5}};
  JobManager jobs(config);
  (void)jobs.reject("t2", "bad_workload", "unparsable");
  jobs.begin_drain();
  ASSERT_FALSE(jobs.submit("t3", "", tiny_stream()).admitted);

  const obs::JsonValue tenants = jobs.stats().at("tenants");
  EXPECT_EQ(tenants.at("t2").at("weight").as_int(), 3);
  EXPECT_EQ(tenants.at("t2").at("rejected").as_int(), 1);
  EXPECT_EQ(tenants.at("t3").at("weight").as_int(), 5);
  EXPECT_EQ(tenants.at("t3").at("rejected").as_int(), 1);
}

TEST(JobManager, ConcurrentSubmitsKeepAccountingExact) {
  // Eight submitter threads race a dispatcher thread; whatever interleaving
  // happens, admitted + rejected == submitted and every admitted job reaches
  // a terminal state.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 40;
  AdmissionConfig config;
  config.max_queue_per_tenant = 8;  // tight: forces real rejections
  JobManager jobs(config);

  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&jobs, t] {
      const std::string tenant = "tenant-" + std::to_string(t % 4);
      for (int i = 0; i < kPerThread; ++i) {
        jobs.submit(tenant, "", tiny_stream(static_cast<std::uint64_t>(i)));
      }
    });
  }
  std::thread dispatcher([&jobs] {
    int drained_rounds = 0;
    while (drained_rounds < 100) {
      if (const auto id = jobs.next_job()) {
        (void)jobs.take_stream(*id);
        jobs.complete(*id, obs::JsonValue::object(), queue_only(0.0));
        drained_rounds = 0;
      } else {
        ++drained_rounds;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  });
  for (std::thread& t : submitters) t.join();
  dispatcher.join();
  // Finish anything still queued after the dispatcher gave up.
  while (const auto id = jobs.next_job()) {
    (void)jobs.take_stream(*id);
    jobs.complete(*id, obs::JsonValue::object(), queue_only(0.0));
  }

  const obs::JsonValue stats = jobs.stats();
  EXPECT_EQ(stats.at("submitted").as_int(), kThreads * kPerThread);
  EXPECT_EQ(stats.at("admitted").as_int() + stats.at("rejected").as_int(),
            stats.at("submitted").as_int());
  EXPECT_EQ(stats.at("completed").as_int(), stats.at("admitted").as_int());
  EXPECT_EQ(stats.at("queued").as_int(), 0);
  EXPECT_EQ(stats.at("running").as_int(), 0);
}

TEST(JobManager, JobIdsAreMonotoneFromOne) {
  JobManager jobs;
  for (std::uint64_t i = 1; i <= 5; ++i) {
    const SubmitOutcome outcome = jobs.submit("t", "", tiny_stream());
    ASSERT_TRUE(outcome.admitted);
    EXPECT_EQ(outcome.job_id, i);
  }
}

TEST(JobManager, StatusWithResultIsOneConsistentSnapshot) {
  JobManager jobs;
  ASSERT_TRUE(jobs.submit("alice", "job", tiny_stream()).admitted);
  EXPECT_FALSE(jobs.status_with_result(42).has_value());

  auto snap = jobs.status_with_result(1);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->status.state, JobState::kQueued);
  EXPECT_FALSE(snap->result.has_value());

  ASSERT_TRUE(jobs.next_job().has_value());
  obs::JsonValue result = obs::JsonValue::object();
  result.set("makespan_s", 0.25);
  jobs.complete(1, std::move(result), queue_only(1.0));

  snap = jobs.status_with_result(1);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->status.state, JobState::kDone);
  ASSERT_TRUE(snap->result.has_value());
  EXPECT_DOUBLE_EQ(snap->result->at("makespan_s").as_double(), 0.25);
}

TEST(JobManager, DispatchInfoCarriesTraceIdentityAndProvenance) {
  JobManager jobs;
  ASSERT_TRUE(
      jobs.submit("alice", "first", tiny_stream(), "t-abc-0").admitted);
  ASSERT_TRUE(jobs.submit("alice", "second", tiny_stream()).admitted);

  ASSERT_TRUE(jobs.next_job().has_value());
  const DispatchInfo first = jobs.dispatch_info(1);
  EXPECT_EQ(first.trace_id, "t-abc-0");
  EXPECT_EQ(first.tenant, "alice");
  EXPECT_EQ(jobs.status(1)->name, "first");  // the name lives in status
  EXPECT_EQ(first.dispatch_seq, 1u);
  EXPECT_EQ(first.depth_at_submit, 0u);  // queue was empty at submit

  obs::JsonValue result = obs::JsonValue::object();
  jobs.complete(1, std::move(result), queue_only(1.0));
  ASSERT_TRUE(jobs.next_job().has_value());
  const DispatchInfo second = jobs.dispatch_info(2);
  EXPECT_TRUE(second.trace_id.empty());  // client sent no trace
  EXPECT_EQ(second.dispatch_seq, 2u);
  EXPECT_EQ(second.depth_at_submit, 1u);  // "first" was queued ahead of it
}

TEST(JobManager, CompletionTimingFeedsLatencyHistograms) {
  obs::MetricsRegistry registry;
  JobManager jobs;
  jobs.set_registry(&registry);
  ASSERT_TRUE(jobs.submit("alice", "job", tiny_stream()).admitted);
  ASSERT_TRUE(jobs.next_job().has_value());

  CompletionTiming timing;
  timing.queue_latency_ms = 12.0;
  timing.e2e_latency_ms = 120.0;
  timing.sim_makespan_ms = 500.0;
  jobs.complete(1, obs::JsonValue::object(), timing);

  const auto histogram_sum = [&registry](const std::string& name) {
    const obs::Histogram* h = registry.find_histogram(name);
    return h == nullptr ? -1.0 : h->sum();
  };
  EXPECT_DOUBLE_EQ(histogram_sum(obs::names::kServiceQueueLatencyMs), 12.0);
  EXPECT_DOUBLE_EQ(histogram_sum(obs::names::tenant_metric(
                       "alice", obs::names::kTenantQueueLatencyMs)),
                   12.0);
  EXPECT_DOUBLE_EQ(histogram_sum(obs::names::tenant_metric(
                       "alice", obs::names::kTenantE2eLatencyMs)),
                   120.0);
  EXPECT_DOUBLE_EQ(histogram_sum(obs::names::tenant_metric(
                       "alice", obs::names::kTenantJobSimMs)),
                   500.0);
}

TEST(JobManager, SloCountersJudgeE2eLatencyWhenConfigured) {
  AdmissionConfig config;
  config.slo_ms = 100.0;
  obs::MetricsRegistry registry;
  JobManager jobs(config);
  jobs.set_registry(&registry);

  const auto finish_with_e2e = [&jobs](std::uint64_t id, double e2e_ms) {
    ASSERT_TRUE(jobs.next_job().has_value());
    CompletionTiming timing;
    timing.e2e_latency_ms = e2e_ms;
    jobs.complete(id, obs::JsonValue::object(), timing);
  };
  ASSERT_TRUE(jobs.submit("alice", "fast", tiny_stream()).admitted);
  finish_with_e2e(1, 50.0);  // within SLO
  ASSERT_TRUE(jobs.submit("alice", "slow", tiny_stream()).admitted);
  finish_with_e2e(2, 250.0);  // miss
  ASSERT_TRUE(jobs.submit("alice", "edge", tiny_stream()).admitted);
  finish_with_e2e(3, 100.0);  // boundary counts as ok

  const obs::JsonValue stats = jobs.stats();
  const obs::JsonValue& alice = stats.at("tenants").at("alice");
  EXPECT_EQ(alice.at("slo_ok").as_int(), 2);
  EXPECT_EQ(alice.at("slo_miss").as_int(), 1);
  // Only stats() counts SLO outcomes; the registry keeps the latencies.
  const obs::Histogram* e2e = registry.find_histogram(
      obs::names::tenant_metric("alice", obs::names::kTenantE2eLatencyMs));
  ASSERT_NE(e2e, nullptr);
  EXPECT_EQ(e2e->count(), 3u);
  const obs::JsonValue snapshot = registry.snapshot();
  for (const auto& [name, value] : snapshot.at("counters").members()) {
    EXPECT_FALSE(name.starts_with(obs::names::kTenantPrefix)) << name;
  }
}

TEST(JobManager, HeldSubmitIsInvisibleUntilReleased) {
  // The server's write-ahead dispatch gate: a held admission is in the book
  // of record (queued, counted, deduped) but next_job() must not pick it —
  // or even skip past it to a later job of the same tenant — until the
  // admitted record went durable and release_job() clears the hold.
  JobManager jobs;
  const SubmitOutcome held = jobs.submit("alice", "wal", tiny_stream(), "",
                                         "tok-held", /*hold=*/true);
  ASSERT_TRUE(held.admitted);
  EXPECT_EQ(jobs.queued_total(), 1u);
  EXPECT_FALSE(jobs.next_job().has_value());

  // A second tenant's releasable job dispatches around the held one.
  const SubmitOutcome other =
      jobs.submit("bob", "free", tiny_stream(), "", "");
  ASSERT_TRUE(other.admitted);
  const auto first = jobs.next_job();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, other.job_id);
  EXPECT_FALSE(jobs.next_job().has_value());  // alice's is still held

  EXPECT_TRUE(jobs.release_job(held.job_id));
  const auto second = jobs.next_job();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, held.job_id);

  // Not QUEUED any more: a late release reports false.
  EXPECT_FALSE(jobs.release_job(held.job_id));
  EXPECT_FALSE(jobs.release_job(999));
}

TEST(JobManager, HeldSubmitRollsBackLikeAnyQueuedJob) {
  // A failed journal append cancels the held admission: the job leaves the
  // queue, the idempotency token is released, and a resubmit with the same
  // token admits a fresh job instead of answering duplicate.
  JobManager jobs;
  const SubmitOutcome held = jobs.submit("alice", "wal", tiny_stream(), "",
                                         "tok-roll", /*hold=*/true);
  ASSERT_TRUE(held.admitted);
  EXPECT_TRUE(jobs.cancel_queued_job(held.job_id));
  EXPECT_EQ(jobs.status(held.job_id)->state, JobState::kCancelled);
  EXPECT_FALSE(jobs.next_job().has_value());

  const SubmitOutcome retry = jobs.submit("alice", "wal", tiny_stream(), "",
                                          "tok-roll", /*hold=*/true);
  ASSERT_TRUE(retry.admitted);
  EXPECT_FALSE(retry.duplicate);
  EXPECT_NE(retry.job_id, held.job_id);
}

/// A dispatcher blocked in wait_next_job() on its own thread, as a
/// --threads=N daemon runs it.
class BlockedDispatcher {
 public:
  explicit BlockedDispatcher(JobManager& jobs)
      : result_(picked_.get_future()),
        thread_([this, &jobs] { picked_.set_value(jobs.wait_next_job()); }) {
    // Time to reach the wait before the test changes the book.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  BlockedDispatcher(const BlockedDispatcher&) = delete;
  BlockedDispatcher& operator=(const BlockedDispatcher&) = delete;
  ~BlockedDispatcher() { thread_.join(); }

  bool returned(std::chrono::milliseconds within) const {
    return result_.wait_for(within) == std::future_status::ready;
  }
  std::optional<std::uint64_t> job() { return result_.get(); }

 private:
  std::promise<std::optional<std::uint64_t>> picked_;
  std::future<std::optional<std::uint64_t>> result_;
  std::thread thread_;  ///< last: it uses the members above
};

TEST(JobManager, DispatchWaitEndsWhenTheLastHeldJobOfADrainIsCancelled) {
  // A journal append fails while a drain is under way and the held job is
  // the only one queued: the rollback's cancel must wake the dispatcher,
  // which then finds the book drained and returns.
  JobManager jobs;
  const SubmitOutcome held = jobs.submit("alice", "wal", tiny_stream(), "",
                                         "", /*hold=*/true);
  ASSERT_TRUE(held.admitted);
  BlockedDispatcher dispatcher(jobs);
  jobs.begin_drain();
  // A held job counts as queued, so the drain is not finished yet.
  EXPECT_FALSE(jobs.drained());
  EXPECT_FALSE(dispatcher.returned(std::chrono::milliseconds(20)));

  EXPECT_TRUE(jobs.cancel_queued_job(held.job_id));
  const bool woke = dispatcher.returned(std::chrono::seconds(5));
  if (!woke) jobs.cancel_queued();  // wakes it, so the thread can be joined
  ASSERT_TRUE(woke) << "the cancel left the dispatcher asleep";
  EXPECT_FALSE(dispatcher.job().has_value());
  EXPECT_TRUE(jobs.drained());
}

TEST(JobManager, DispatchWaitTakesTheJobBehindACancelledHeldJob) {
  // The held job at the front of a tenant's queue blocks the jobs behind
  // it; cancelling it must wake the dispatcher for the next one.
  JobManager jobs;
  const SubmitOutcome held = jobs.submit("alice", "wal", tiny_stream(), "",
                                         "", /*hold=*/true);
  const SubmitOutcome next = jobs.submit("alice", "next", tiny_stream());
  ASSERT_TRUE(held.admitted);
  ASSERT_TRUE(next.admitted);
  BlockedDispatcher dispatcher(jobs);
  EXPECT_FALSE(dispatcher.returned(std::chrono::milliseconds(20)));

  EXPECT_TRUE(jobs.cancel_queued_job(held.job_id));
  const bool woke = dispatcher.returned(std::chrono::seconds(5));
  if (!woke) jobs.submit("bob", "", tiny_stream());  // any unheld submit wakes
  ASSERT_TRUE(woke) << "the cancel left the dispatcher asleep";
  EXPECT_EQ(dispatcher.job(), std::optional<std::uint64_t>(next.job_id));
  EXPECT_EQ(jobs.status(next.job_id)->state, JobState::kRunning);
}

TEST(JobManager, SubmitTimeIsStampedWhenTheJobBecomesDispatchable) {
  // Unheld jobs at submit, held ones at release; replayed ones carry none.
  obs::ManualClock clock;
  clock.advance_ms(10.0);
  JobManager jobs(AdmissionConfig{}, &clock);
  ASSERT_TRUE(jobs.submit("alice", "now", tiny_stream()).admitted);
  const SubmitOutcome held = jobs.submit("bob", "wal", tiny_stream(), "", "",
                                         /*hold=*/true);
  jobs.restore_queued(7, "carol", "replayed", "", "", tiny_stream());
  clock.advance_ms(5.0);
  EXPECT_TRUE(jobs.release_job(held.job_id));

  std::map<std::uint64_t, double> submit_ms;
  while (const auto id = jobs.next_job()) {
    submit_ms[*id] = jobs.dispatch_info(*id).submit_ms;
  }
  EXPECT_EQ(submit_ms.at(1), 10.0);
  EXPECT_EQ(submit_ms.at(held.job_id), 15.0);
  EXPECT_EQ(submit_ms.at(7), -1.0);
}

TEST(JobManager, SloCountersStayZeroWithoutAnSlo) {
  JobManager jobs;  // slo_ms defaults to 0 = disabled
  ASSERT_TRUE(jobs.submit("alice", "job", tiny_stream()).admitted);
  ASSERT_TRUE(jobs.next_job().has_value());
  CompletionTiming timing;
  timing.e2e_latency_ms = 1e9;  // would miss any real SLO
  jobs.complete(1, obs::JsonValue::object(), timing);
  const obs::JsonValue stats = jobs.stats();
  const obs::JsonValue& alice = stats.at("tenants").at("alice");
  EXPECT_EQ(alice.at("slo_ok").as_int(), 0);
  EXPECT_EQ(alice.at("slo_miss").as_int(), 0);
}

}  // namespace
}  // namespace micco::service
