// The global lock-rank table (DESIGN.md §10.4).
//
// Every long-lived micco::Mutex is constructed with a name and one of these
// ranks; the runtime discipline (common/mutex.hpp) requires ranks to
// strictly decrease along every acquisition chain, which makes any cycle —
// including ones the static lock-order analysis cannot see, like the
// g_config_mutex -> Pool::mutex_ edge hidden inside ~Pool — abort loudly in
// debug builds instead of deadlocking on an unlucky schedule.
//
// Placement rule: a mutex's rank must be strictly greater than the rank of
// every mutex that can be acquired while it is held. Leave gaps (the table
// steps by 5–10) so a new lock slots in without renumbering the world.
// micco-lint's lock-order-cycle rule cross-checks the statically visible
// edges; keep the two in sync when adding a lock.
#pragma once

namespace micco {

// parallel/: pool configuration serializes pool construction/teardown,
// which joins workers that hold the pool and loop locks.
inline constexpr int kLockRankParallelConfig = 90;  ///< g_config_mutex
inline constexpr int kLockRankPool = 80;            ///< Pool::mutex_
inline constexpr int kLockRankLoop = 70;            ///< Loop::mutex

// service/: the server state lock fans out to the job table and journal;
// the job table updates metrics; the journal observes fsync latency.
inline constexpr int kLockRankServerState = 60;  ///< Server::state_mutex_
inline constexpr int kLockRankJobManager = 50;   ///< JobManager::mutex_
inline constexpr int kLockRankJournal = 45;      ///< JournalWriter::mutex_

// obs/: sinks and metrics are leaves — everything may log or record a
// metric, so nothing below them may acquire anything above.
inline constexpr int kLockRankEventSink = 30;  ///< BufferedJsonlEventSink
inline constexpr int kLockRankSpanSink = 25;   ///< JsonlSpanSink
inline constexpr int kLockRankMetrics = 20;    ///< MetricsRegistry::mutex_
inline constexpr int kLockRankHistogram = 10;  ///< Histogram::mutex_

}  // namespace micco
