// The one home of every metric and span name (DESIGN.md §7c).
//
// Instrumentation sites across sched/, gpusim/, core/ and service/ refer to
// these constants instead of spelling dotted name literals inline, so the
// whole telemetry vocabulary is greppable in one place and a renamed metric
// cannot silently fork into two series. micco-lint's `metric-name-literal`
// rule enforces this: a string literal that looks like a dotted metric name
// ("sched.…", "cluster.…", "service.…") anywhere outside this header is a
// lint finding.
//
// Naming conventions:
//   sched.*            scheduler decisions and their classification
//   cluster.*          simulated-cluster events (fetches, evictions, barriers)
//   cluster.device.N.* per-device rollups
//   mem.*              eviction-policy and memory-arbiter accounting
//   mem.tenant.T.*     per-tenant modeled residency gauges
//   service.*          daemon lifecycle counters and queue gauges
//   service.tenant.T.* per-tenant latency histograms and SLO counters
// Histogram names carry their unit as the last suffix segment (_ms, _us,
// _bytes, _s); counters are unsuffixed event counts.
#pragma once

#include <string>
#include <vector>

namespace micco::obs::names {

// -- sched.* ---------------------------------------------------------------
inline constexpr const char* kSchedDecisions = "sched.decisions";
inline constexpr const char* kSchedFallback = "sched.fallback";
inline constexpr const char* kSchedEvictRisk = "sched.evict_risk";
inline constexpr const char* kSchedBoundSlack = "sched.bound_slack";
/// Wall-clock per-decision latency on the hot path, recorded only when a
/// HistogramScratch is attached (the daemon does; batch runs stay
/// byte-identical without it).
inline constexpr const char* kSchedDecisionLatencyUs =
    "sched.decision_latency_us";

/// Indexed by LocalReusePattern / MappingClass−1 / reuse-bound tier.
inline constexpr const char* kSchedPattern[4] = {
    "sched.pattern.two_repeated_same", "sched.pattern.two_repeated_diff",
    "sched.pattern.one_repeated", "sched.pattern.two_new"};
inline constexpr const char* kSchedMapping[4] = {
    "sched.mapping.both_reused", "sched.mapping.first_reused",
    "sched.mapping.second_reused", "sched.mapping.none_reused"};
inline constexpr const char* kSchedTier[3] = {
    "sched.tier.two_repeated_same", "sched.tier.one_reused",
    "sched.tier.two_new"};

/// Counters of the retired reuse-pattern cache. Nothing registers them any
/// more; perfbench's ledger still reads them (its
/// sched.pattern_cache_hit_ratio row, now 0 over 0 lookups) until the next
/// benchmark change drops that row.
inline constexpr const char* kSchedPatternCacheHits =
    "sched.pattern_cache.hits";
inline constexpr const char* kSchedPatternCacheMisses =
    "sched.pattern_cache.misses";

// -- cluster.* -------------------------------------------------------------
inline constexpr const char* kClusterFetchBytes = "cluster.fetch.bytes";
inline constexpr const char* kClusterEvictionVictimAgeS =
    "cluster.eviction.victim_age_s";
inline constexpr const char* kClusterBarrierIdleS = "cluster.barrier.idle_s";
/// Residency-epoch bumps in the incremental cluster index: one per tensor
/// placement or removal (fetch, output alloc, eviction, discard, device
/// failure).
inline constexpr const char* kClusterEpochBumps = "cluster.index.epoch_bumps";
/// Per-device gauge prefix: "cluster.device.<N>." + {utilization, busy_s}.
inline constexpr const char* kClusterDevicePrefix = "cluster.device.";
inline constexpr const char* kDeviceUtilizationSuffix = "utilization";
inline constexpr const char* kDeviceBusySSuffix = "busy_s";

// -- mem.* (memory co-design subsystem, DESIGN.md §11) ---------------------
/// Per-policy eviction counters: "mem.evictions.<policy>" /
/// "mem.evicted_bytes.<policy>" with the policy's metric-safe name ("lru",
/// "reuse_distance") appended via mem_policy_metric().
/// Registered only while an eviction policy is attached — the policy-free
/// default path keeps registry snapshots byte-identical to pre-policy runs.
inline constexpr const char* kMemEvictionsPrefix = "mem.evictions.";
inline constexpr const char* kMemEvictedBytesPrefix = "mem.evicted_bytes.";
/// Victim next-use distance (pairs until reuse) observed at each eviction by
/// the future-use-aware policies; victims with no known future use are not
/// observed (they are the free wins, not part of the tradeoff).
inline constexpr const char* kMemReuseDistance = "mem.reuse_distance";
/// Cold cross-tenant bytes the arbiter pre-evicted at job admissions.
inline constexpr const char* kMemArbiterPreevictedBytes =
    "mem.arbiter.preevicted_bytes";
/// Admissions the arbiter arbitrated (with or without pre-eviction).
inline constexpr const char* kMemArbiterAdmissions = "mem.arbiter.admissions";
/// Per-tenant modeled residency gauge: "mem.tenant.<T>." + suffix.
inline constexpr const char* kMemTenantPrefix = "mem.tenant.";
inline constexpr const char* kMemTenantResidentBytesSuffix = "resident_bytes";

inline std::string mem_policy_metric(const char* prefix,
                                     const char* policy_name) {
  return std::string(prefix) + policy_name;
}

inline std::string mem_tenant_metric(const std::string& tenant,
                                     const char* suffix) {
  return std::string(kMemTenantPrefix) + tenant + "." + suffix;
}

// -- service.* -------------------------------------------------------------
inline constexpr const char* kServiceQueued = "service.queued";
inline constexpr const char* kServiceRunning = "service.running";
inline constexpr const char* kServiceQueueDepthPrefix = "service.queue_depth.";
inline constexpr const char* kServiceSubmitted = "service.submitted";
inline constexpr const char* kServiceAdmitted = "service.admitted";
inline constexpr const char* kServiceRejected = "service.rejected";
inline constexpr const char* kServiceDispatched = "service.dispatched";
inline constexpr const char* kServiceCompleted = "service.completed";
inline constexpr const char* kServiceFailed = "service.failed";
inline constexpr const char* kServiceCancelled = "service.cancelled";
/// Submit → dispatch wall time across all tenants.
inline constexpr const char* kServiceQueueLatencyMs =
    "service.queue_latency_ms";
/// A submit carrying an already-journaled (tenant, idempotency token) pair
/// answered from the dedup table instead of admitting a second run.
inline constexpr const char* kServiceDuplicateSubmits =
    "service.duplicate_submits";

// -- service.journal.* / service.recovery.* --------------------------------
inline constexpr const char* kServiceJournalRecords = "service.journal.records";
inline constexpr const char* kServiceJournalBytes = "service.journal.bytes";
/// Wall latency of each policy-required fsync on the journal append path.
inline constexpr const char* kServiceJournalFsyncMs =
    "service.journal.fsync_ms";
/// Jobs whose finished record replayed from the journal at startup (they
/// answer status/result without re-running).
inline constexpr const char* kServiceReplayedFinished =
    "service.recovery.replayed_finished";
/// Jobs re-admitted at startup because they were QUEUED or RUNNING at crash
/// time.
inline constexpr const char* kServiceRequeued = "service.recovery.requeued";
/// Journal recoveries that dropped a torn or corrupt tail before replay.
inline constexpr const char* kServiceTornTail = "service.recovery.torn_tail";

// -- service.tenant.<T>.* --------------------------------------------------
inline constexpr const char* kTenantPrefix = "service.tenant.";
/// Per-tenant metric suffixes (appended as kTenantPrefix + tenant + "." +
/// suffix via tenant_metric()).
inline constexpr const char* kTenantQueueLatencyMs = "queue_latency_ms";
inline constexpr const char* kTenantE2eLatencyMs = "e2e_latency_ms";
/// Simulated job makespan (deterministic; cross-checkable against the root
/// job span's duration_ms in the trace file).
inline constexpr const char* kTenantJobSimMs = "job_sim_ms";
inline constexpr const char* kTenantSloOk = "slo_ok";
inline constexpr const char* kTenantSloMiss = "slo_miss";

inline std::string tenant_metric(const std::string& tenant,
                                 const char* suffix) {
  return std::string(kTenantPrefix) + tenant + "." + suffix;
}

// -- span names (trace model, DESIGN.md §7a) -------------------------------
inline constexpr const char* kSpanJob = "job";          ///< root, one per job
inline constexpr const char* kSpanQueue = "queue";      ///< admission → dispatch
inline constexpr const char* kSpanDispatch = "dispatch";///< execution container
inline constexpr const char* kSpanSched = "sched";      ///< one vector's decisions
inline constexpr const char* kSpanExec = "exec";        ///< one vector's execution
inline constexpr const char* kSpanRecovery = "recovery";///< re-enqueue after loss
/// Root span (own trace "journal-replay") a recovering daemon emits once,
/// after the re-run jobs' trees, summarizing the startup journal replay.
inline constexpr const char* kSpanJournalReplay = "journal_replay";

// -- shared histogram bounds ----------------------------------------------
/// Wall-latency bounds (ms) for queue/e2e histograms: 1ms … 10s, log decades.
inline std::vector<double> wall_latency_bounds_ms() {
  return {1.0, 10.0, 100.0, 1000.0, 10000.0};
}

/// Simulated-makespan bounds (ms). Shared between the daemon's per-tenant
/// job_sim_ms histograms and the offline trace summarizer so quantiles
/// recomputed from a trace file match the served values exactly.
inline std::vector<double> job_sim_ms_bounds() {
  return {0.01, 0.1, 1.0, 10.0, 100.0, 1000.0, 10000.0, 100000.0};
}

/// Per-decision latency bounds (µs) for the hot-path scratch histogram.
inline std::vector<double> decision_latency_bounds_us() {
  return {0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 1000.0};
}

/// Journal fsync latency bounds (ms): SSDs land around 0.1–1 ms, spinning
/// disks and contended CI machines in the upper decades.
inline std::vector<double> journal_fsync_bounds_ms() {
  return {0.01, 0.1, 1.0, 10.0, 100.0};
}

/// Victim next-use distance bounds (pairs until reuse) for the
/// mem.reuse_distance histogram: vectors run tens to a few thousand pairs,
/// power-of-two decades.
inline std::vector<double> reuse_distance_bounds() {
  return {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 1024.0};
}

}  // namespace micco::obs::names
