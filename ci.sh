#!/usr/bin/env sh
# Local CI: strict-warning Debug build with runtime lock-rank enforcement
# compiled in, the micco-lint determinism & concurrency gate (required —
# scope-aware lock-order/blocking/WAL rules, lock-graph export, and a stale-
# suppression audit), full test suite, a telemetry smoke test (`micco run
# --report --decisions` must emit a valid, deterministic report + decision
# log on a generated stream), a fault-injection smoke test (kill a device
# mid-stream and require a clean recovery), a serve smoke test (the
# scheduling daemon end to end: submit/wait/drain over a Unix socket with
# byte-identical decision logs AND byte-identical span traces across
# sessions, a `micco top --once` dashboard frame, and an offline
# `micco report --spans` well-formedness pass), a configuration smoke test
# (out-of-range train/run/generate/serve flags, malformed flag values,
# unknown flags and a workload given to `report` exit 2, unwritable output
# paths and a structurally invalid workload exit 1, and a daemon rejects
# that workload and keeps serving; nothing aborts or runs),
# a chaos smoke test
# (tools/chaos_smoke.sh: kill -9 the daemon at every scripted journal crash
# point, restart on the same journal, and require byte-identical recovered
# decision logs plus exactly-once idempotent resubmits), an eviction-policy
# smoke test (both mem/ policies on an oversubscribed workload, LRU as the
# default, plus a two-tenant daemon session whose dashboard lists each
# tenant's modeled residency), an
# ASan+UBSan-instrumented build + test pass (which covers the protocol fuzz
# and journal torn-write suites under ASan), a TSan pass over the
# parallel-layer, observability and service tests at 8 worker threads, a Release-mode bench_sched_micro smoke
# run (decision throughput + cross-thread-count tuner label identity), the
# Release-mode eviction-policy gate (bench_oversubscription --gate:
# reuse-distance must not pay more eviction-caused transfer bytes than LRU
# on f0d2/f0d4), the
# Release-mode tracing-overhead gate (bench_overhead --gate: full tracing
# must cost < 2 % end to end), the end-to-end benchmark smoke
# (perfbench/run.py --smoke: every workload in both modes with all of its
# correctness checks, including the bit-identical reference run), and — when
# LLVM tooling is on
# PATH — a clang-tidy pass over the compilation database plus a Clang build
# with -Werror=thread-safety checking the MICCO_GUARDED_BY/REQUIRES
# annotations (both skip with a notice on GCC-only hosts).
#
# Usage: ./ci.sh [build-dir]     (default: build-ci)
set -eu

BUILD_DIR="${1:-build-ci}"
SAN_BUILD_DIR="${BUILD_DIR}-asan"
TSAN_BUILD_DIR="${BUILD_DIR}-tsan"
REL_BUILD_DIR="${BUILD_DIR}-rel"
PERFBENCH_BUILD_DIR="${BUILD_DIR}-perfbench"
CLANG_BUILD_DIR="${BUILD_DIR}-clang"

echo "== configure (${BUILD_DIR}, Debug, -Wall -Wextra -Werror, lock ranks) =="
# -DMICCO_MUTEX_RANKS=1 makes the runtime lock-rank checks explicit (they
# default on in Debug anyway): every ctest suite, smoke daemon and death
# test below runs with rank-inversion enforcement live (DESIGN.md §10.4).
cmake -B "${BUILD_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DMICCO_MUTEX_RANKS=1 \
  -DCMAKE_CXX_FLAGS="-Wall -Wextra -Werror"

echo "== build =="
cmake --build "${BUILD_DIR}" -j "$(nproc 2>/dev/null || echo 4)"

echo "== lint (micco_lint, required) =="
# The determinism & concurrency gate (DESIGN.md §5e, §10). Non-zero exit
# fails CI — including lock-order cycles, blocking-under-lock and WAL-rule
# findings from the scope-aware analysis; the JSON invocation is what
# dashboards/scripts consume and doubles as a schema smoke test. The
# tree-wide run also exports the extracted lock-order graph as Graphviz,
# printed into the CI log (one line per node and per edge) so the certified
# concurrency surface is recorded alongside the build.
"${BUILD_DIR}/tools/micco_lint" --format=text \
  --lock-graph="${BUILD_DIR}/lock_graph.dot" src tools bench
"${BUILD_DIR}/tools/micco_lint" --format=json src > /dev/null
cat "${BUILD_DIR}/lock_graph.dot"

echo "== lint suppressions (no stale allow() directives) =="
# Lists every in-tree allow() with its rule, reason and blame date; exits
# 22 (failing CI) if any directive no longer suppresses anything.
"${BUILD_DIR}/tools/micco_lint" --suppressions src tools bench

echo "== test =="
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "$(nproc 2>/dev/null || echo 4)"

echo "== report smoke test =="
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "${SMOKE_DIR}"' EXIT

"${BUILD_DIR}/tools/micco" generate --out="${SMOKE_DIR}/smoke.mw" \
  --vectors=2 --vector-size=24 --batch=16
"${BUILD_DIR}/tools/micco" run "${SMOKE_DIR}/smoke.mw" --gpus=4 \
  --report="${SMOKE_DIR}/r1.json" --decisions="${SMOKE_DIR}/d1.jsonl"
"${BUILD_DIR}/tools/micco" run "${SMOKE_DIR}/smoke.mw" --gpus=4 \
  --report="${SMOKE_DIR}/r2.json" --decisions="${SMOKE_DIR}/d2.jsonl"

# The decision log must be byte-identical across identical runs.
cmp "${SMOKE_DIR}/d1.jsonl" "${SMOKE_DIR}/d2.jsonl"

# The report must be JSON a stock parser accepts, with the headline fields.
if command -v python3 >/dev/null 2>&1; then
  python3 - "${SMOKE_DIR}/r1.json" "${SMOKE_DIR}/d1.jsonl" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
for key in ("schema_version", "scheduler", "derived", "devices", "registry"):
    assert key in report, f"report missing {key!r}"
# Every decision lands in exactly one sched.pattern.* counter, so the
# pattern counters sum to the decision records of the log.
with open(sys.argv[2]) as f:
    logged = sum(1 for line in f if json.loads(line)["event"] == "decision")
classified = sum(v for k, v in report["registry"]["counters"].items()
                 if k.startswith("sched.pattern."))
assert 0 < classified == logged, (classified, logged)
print("report smoke test OK:", report["scheduler"],
      f"{report['derived']['gflops']:.0f} GFLOPS,",
      len(report["devices"]), "devices")
EOF
else
  grep -q '"schema_version"' "${SMOKE_DIR}/r1.json"
  echo "report smoke test OK (python3 unavailable; grep check only)"
fi

echo "== fault-injection smoke test =="
# Kill 1 of 4 devices shortly after the stream starts; the run must still
# complete, flag the recovery in the report, and validate the plan file.
cat > "${SMOKE_DIR}/plan.txt" <<'EOF'
# smoke plan: one mid-stream device loss
fail 1 0.001
EOF
"${BUILD_DIR}/tools/micco" faults "${SMOKE_DIR}/plan.txt" --gpus=4
"${BUILD_DIR}/tools/micco" run "${SMOKE_DIR}/smoke.mw" --gpus=4 \
  --fault-plan="${SMOKE_DIR}/plan.txt" --report="${SMOKE_DIR}/rf.json" \
  --decisions="${SMOKE_DIR}/df.jsonl"
grep -q '"recovered": true' "${SMOKE_DIR}/rf.json"
grep -q '"devices_lost": 1' "${SMOKE_DIR}/rf.json"
echo "fault smoke test OK: device loss absorbed, recovered=true"

# An invalid plan must be rejected with a non-zero exit, not an abort.
if "${BUILD_DIR}/tools/micco" faults "${SMOKE_DIR}/plan.txt" --gpus=1 \
    >/dev/null 2>&1; then
  echo "fault smoke test FAILED: out-of-range plan accepted" >&2
  exit 1
fi

echo "== serve smoke test =="
# End-to-end daemon path (DESIGN.md §6): start `micco serve` on a private
# socket, submit workloads from two tenants, wait for completion, drain,
# and require a clean exit plus a session report. Two sessions fed the same
# submission sequence must produce byte-identical decision logs AND
# byte-identical span traces (the deterministic-serving contract at
# --threads=1). The first session also serves one `micco top` dashboard
# frame over the live metrics verb.
"${BUILD_DIR}/tools/micco" generate --out="${SMOKE_DIR}/w.mw" \
  --vectors=2 --vector-size=16 --seed=5
for session in 1 2; do
  rm -f "${SMOKE_DIR}/svc.sock"
  "${BUILD_DIR}/tools/micco" serve --socket="${SMOKE_DIR}/svc.sock" \
    --gpus=4 --threads=1 \
    --decisions="${SMOKE_DIR}/sd${session}.jsonl" \
    --spans="${SMOKE_DIR}/ss${session}.jsonl" \
    --report="${SMOKE_DIR}/sr${session}.json" &
  SERVE_PID=$!
  for _ in $(seq 1 100); do
    [ -S "${SMOKE_DIR}/svc.sock" ] && break
    sleep 0.1
  done
  "${BUILD_DIR}/tools/micco" submit "${SMOKE_DIR}/w.mw" \
    --socket="${SMOKE_DIR}/svc.sock" --tenant=alice --wait
  "${BUILD_DIR}/tools/micco" submit "${SMOKE_DIR}/w.mw" \
    --socket="${SMOKE_DIR}/svc.sock" --tenant=bob --wait
  "${BUILD_DIR}/tools/micco" status --socket="${SMOKE_DIR}/svc.sock" \
    > /dev/null
  if [ "${session}" = 1 ]; then
    "${BUILD_DIR}/tools/micco" top --socket="${SMOKE_DIR}/svc.sock" --once \
      > "${SMOKE_DIR}/top.txt"
    grep -q 'micco top' "${SMOKE_DIR}/top.txt"
    grep -q 'job_sim_ms' "${SMOKE_DIR}/top.txt"
  fi
  "${BUILD_DIR}/tools/micco" drain --socket="${SMOKE_DIR}/svc.sock"
  wait "${SERVE_PID}"
done
cmp "${SMOKE_DIR}/sd1.jsonl" "${SMOKE_DIR}/sd2.jsonl"
cmp "${SMOKE_DIR}/ss1.jsonl" "${SMOKE_DIR}/ss2.jsonl"
grep -q '"schema_version"' "${SMOKE_DIR}/sr1.json"
# The offline trace summarizer must accept the session trace as well-formed
# (single root per trace, contiguous sequence numbers, resolvable parents).
"${BUILD_DIR}/tools/micco" report --spans="${SMOKE_DIR}/ss1.jsonl" \
  > "${SMOKE_DIR}/trace_summary.json"
grep -q '"well_formed": true' "${SMOKE_DIR}/trace_summary.json"
echo "serve smoke test OK: deterministic decision logs + span traces," \
  "top frame rendered, trace summary well-formed"

echo "== configuration validation smoke test =="
# Out-of-range configuration is a usage error: the verb names the problem
# and exits 2 instead of tripping a library precondition (exit 134). So is
# a flag the verb never reads, and a value its parser cannot read in full:
# a typo must not silently run the default or a truncated number.
expect_exit() {
  want=$1
  shift
  set +e
  "$@" > /dev/null 2> "${SMOKE_DIR}/config_err.txt"
  rc=$?
  set -e
  if [ "${rc}" != "${want}" ]; then
    echo "config smoke test FAILED: exit ${rc}, want ${want}: $*" >&2
    cat "${SMOKE_DIR}/config_err.txt" >&2
    exit 1
  fi
}
expect_exit_2() { expect_exit 2 "$@"; }
for flag in --samples=0 --samples=-4 --batch=0 --gpus=0; do
  expect_exit_2 "${BUILD_DIR}/tools/micco" train \
    --out="${SMOKE_DIR}/bad.mm" "${flag}"
done
expect_exit_2 "${BUILD_DIR}/tools/micco" run "${SMOKE_DIR}/w.mw" --gpus=0
expect_exit_2 "${BUILD_DIR}/tools/micco" run "${SMOKE_DIR}/w.mw" --gpus=0 \
  --report="${SMOKE_DIR}/bad.json"
# `report` only summarises span traces; workloads run through `run`.
expect_exit_2 "${BUILD_DIR}/tools/micco" report "${SMOKE_DIR}/w.mw"
for flag in --vectors=0 --vector-size=3 --tensor=0 --batch=0 --repeat=2; do
  expect_exit_2 "${BUILD_DIR}/tools/micco" generate \
    --out="${SMOKE_DIR}/bad.mw" "${flag}"
done
expect_exit_2 "${BUILD_DIR}/tools/micco" serve \
  --socket="${SMOKE_DIR}/bad.sock" --gpus=0
expect_exit_2 "${BUILD_DIR}/tools/micco" run "${SMOKE_DIR}/w.mw" --gpus=4 \
  --oversub=2 --evict-polcy=reuse-distance
expect_exit_2 "${BUILD_DIR}/tools/micco" run "${SMOKE_DIR}/w.mw" \
  --sched-incremental=off
for flag in --gpus=4x --p2p=ture --oversub=2x --evict-policy=; do
  expect_exit_2 "${BUILD_DIR}/tools/micco" run "${SMOKE_DIR}/w.mw" \
    --oversub=2 "${flag}"
done
expect_exit_2 "${BUILD_DIR}/tools/micco" run "${SMOKE_DIR}/w.mw" --gpus=4x \
  --p2p=ture --oversub=2x
expect_exit_2 "${BUILD_DIR}/tools/micco" train --out="${SMOKE_DIR}/bad.mm" \
  --samples=12x
for flag in --mem-arbiter=on --mem-arbiter=maybe --gpus=4x; do
  expect_exit_2 "${BUILD_DIR}/tools/micco" serve \
    --socket="${SMOKE_DIR}/bad.sock" "${flag}"
done
# An output path that cannot be opened fails before any work with exit 1.
for flag in --trace --report --decisions; do
  expect_exit 1 "${BUILD_DIR}/tools/micco" run "${SMOKE_DIR}/w.mw" \
    "${flag}=${SMOKE_DIR}/missing/out"
done
expect_exit 1 "${BUILD_DIR}/tools/micco" generate \
  --out="${SMOKE_DIR}/missing/w.mw"
expect_exit 1 "${BUILD_DIR}/tools/micco" train \
  --out="${SMOKE_DIR}/missing/m.mm"
# A workload that parses but consumes a tensor before producing it: `run`
# refuses it (exit 1), `report` takes no workload (exit 2), and a journaled
# daemon answers its submit with bad_workload, runs the next job and drains
# cleanly instead of aborting in a simulator precondition.
cat > "${SMOKE_DIR}/self.mw" <<'EOF'
micco-workload v1
meta 1 4 1 0.5 uniform
vectors 1
vector 1
task 1 2 4 1 2 2 4 1 1 2 4 1
EOF
expect_exit 1 "${BUILD_DIR}/tools/micco" run "${SMOKE_DIR}/self.mw"
expect_exit_2 "${BUILD_DIR}/tools/micco" report "${SMOKE_DIR}/self.mw"
rm -f "${SMOKE_DIR}/svc.sock"
"${BUILD_DIR}/tools/micco" serve --socket="${SMOKE_DIR}/svc.sock" \
  --gpus=1 --threads=1 --journal="${SMOKE_DIR}/self.journal" &
SERVE_PID=$!
for _ in $(seq 1 100); do
  [ -S "${SMOKE_DIR}/svc.sock" ] && break
  sleep 0.1
done
expect_exit 1 "${BUILD_DIR}/tools/micco" submit "${SMOKE_DIR}/self.mw" \
  --socket="${SMOKE_DIR}/svc.sock"
grep -q 'bad_workload' "${SMOKE_DIR}/config_err.txt"
"${BUILD_DIR}/tools/micco" submit "${SMOKE_DIR}/w.mw" \
  --socket="${SMOKE_DIR}/svc.sock" --wait
"${BUILD_DIR}/tools/micco" drain --socket="${SMOKE_DIR}/svc.sock"
wait "${SERVE_PID}"
echo "config smoke test OK: every out-of-range, malformed or unknown flag" \
  "exited 2, every unwritable output path and the invalid workload" \
  "exited 1, the daemon rejected that workload and kept serving"

echo "== eviction-policy smoke test =="
# Memory co-design subsystem (DESIGN.md §11): both eviction policies must
# complete the same oversubscribed meson workload via the CLI, a run with no
# policy flag must evict under LRU, and a two-tenant daemon session must
# list each tenant's modeled residency on the top dashboard.
for policy in lru reuse-distance; do
  "${BUILD_DIR}/tools/micco" run "${SMOKE_DIR}/w.mw" --gpus=4 --oversub=2 \
    --evict-policy="${policy}" > "${SMOKE_DIR}/policy_${policy}.txt"
  grep -q 'eviction policy' "${SMOKE_DIR}/policy_${policy}.txt"
done
"${BUILD_DIR}/tools/micco" run "${SMOKE_DIR}/w.mw" --gpus=4 --oversub=2 \
  > "${SMOKE_DIR}/policy_default.txt"
grep -q 'eviction policy lru' "${SMOKE_DIR}/policy_default.txt"
rm -f "${SMOKE_DIR}/svc.sock"
"${BUILD_DIR}/tools/micco" serve --socket="${SMOKE_DIR}/svc.sock" \
  --gpus=4 --threads=1 --evict-policy=reuse-distance &
SERVE_PID=$!
for _ in $(seq 1 100); do
  [ -S "${SMOKE_DIR}/svc.sock" ] && break
  sleep 0.1
done
"${BUILD_DIR}/tools/micco" submit "${SMOKE_DIR}/w.mw" \
  --socket="${SMOKE_DIR}/svc.sock" --tenant=alice --wait
"${BUILD_DIR}/tools/micco" submit "${SMOKE_DIR}/w.mw" \
  --socket="${SMOKE_DIR}/svc.sock" --tenant=bob --wait
"${BUILD_DIR}/tools/micco" top --socket="${SMOKE_DIR}/svc.sock" --once \
  > "${SMOKE_DIR}/residency_top.txt"
grep -q 'mem.tenant.alice.resident_bytes' "${SMOKE_DIR}/residency_top.txt"
grep -q 'mem.tenant.bob.resident_bytes' "${SMOKE_DIR}/residency_top.txt"
"${BUILD_DIR}/tools/micco" drain --socket="${SMOKE_DIR}/svc.sock"
wait "${SERVE_PID}"
echo "eviction-policy smoke test OK: both policies ran, lru is the default," \
  "the daemon listed per-tenant residency"

echo "== chaos smoke test (kill -9 + journal recovery) =="
# DESIGN.md §8: SIGKILL the daemon at each journal crash point, restart on
# the same journal, and require byte-identical recovered decision logs and
# exactly-once idempotent resubmission.
sh tools/chaos_smoke.sh "${BUILD_DIR}/tools/micco" "${SMOKE_DIR}/chaos"

echo "== configure (${SAN_BUILD_DIR}, ASan+UBSan) =="
cmake -B "${SAN_BUILD_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"

echo "== build (sanitizers) =="
cmake --build "${SAN_BUILD_DIR}" -j "$(nproc 2>/dev/null || echo 4)"

echo "== test (sanitizers) =="
ctest --test-dir "${SAN_BUILD_DIR}" --output-on-failure \
  -j "$(nproc 2>/dev/null || echo 4)"

echo "== configure (${TSAN_BUILD_DIR}, TSan) =="
# ThreadSanitizer pass over the concurrent layers: the parallel-pool suites
# (pool semantics, nesting, determinism) plus the service-daemon suites
# (concurrent submits over I/O lanes, JobManager accounting, protocol
# framing) run with the pool forced to 8 worker threads so cross-thread
# interleavings happen even on small hosts. Benches are skipped: TSan only
# needs the test binary.
cmake -B "${TSAN_BUILD_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DMICCO_BUILD_BENCH=OFF \
  -DMICCO_BUILD_EXAMPLES=OFF \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-sanitize-recover=all" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"

echo "== build (TSan) =="
cmake --build "${TSAN_BUILD_DIR}" -j "$(nproc 2>/dev/null || echo 4)" \
  --target micco_tests

echo "== test (TSan, parallel + service suites, 8 threads) =="
# OVERSUBSCRIBE lifts the pool's hardware-concurrency lane cap so the forced
# 8-thread interleavings actually happen on 1-2 core CI runners.
MICCO_THREADS=8 MICCO_THREADS_OVERSUBSCRIBE=1 \
  "${TSAN_BUILD_DIR}/tests/micco_tests" \
  --gtest_filter='Parallel*:Service*:JobManager*:Protocol*:Journal*:Recovery*'

echo "== configure (${REL_BUILD_DIR}, Release) =="
cmake -B "${REL_BUILD_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=Release \
  -DMICCO_BUILD_TESTS=OFF \
  -DMICCO_BUILD_EXAMPLES=OFF

echo "== build (Release, bench_sched_micro + bench_overhead + bench_oversubscription) =="
cmake --build "${REL_BUILD_DIR}" -j "$(nproc 2>/dev/null || echo 4)" \
  --target bench_sched_micro --target bench_overhead \
  --target bench_oversubscription

echo "== bench_sched_micro gate (Release) =="
# Exits non-zero if tuner labels diverge across 1/2/4/8 threads, if the
# paired Groute/MICCO decisions-per-sec ratio (median of interleaved rounds)
# regresses past the checked-in threshold (1.5 at 8 GPUs — measured
# ~1.1-1.2, plus headroom), or if the tuner's 4-thread speedup drops below 1.0
# (skipped and recorded as such on runners with fewer than 4 hardware
# threads; see bench_sched_micro.cpp). BENCH_sched.json
# is refreshed on every run so the tracked numbers never go stale silently.
"${REL_BUILD_DIR}/bench/bench_sched_micro" --smoke --gate \
  --out="BENCH_sched.json"
grep -q '"tuner_labels_identical_across_threads": true' "BENCH_sched.json"

echo "== bench_sched_micro gate, 64 GPUs (Release) =="
# At 64 devices on this warm-cluster microbench MICCO's data-centric tiers
# (holders only) outscale Groute's all-device scan; the gate pins that
# inversion: ratio must stay <= 1.0.
"${REL_BUILD_DIR}/bench/bench_sched_micro" --smoke --gate --gpus=64 \
  --gate-max-ratio=1.0 --out="${SMOKE_DIR}/bench_sched_64.json"

echo "== eviction-policy gate (Release) =="
# Exits non-zero when ReuseDistancePolicy pays MORE eviction-caused
# transfer bytes (write-backs + re-fetches of evicted tensors) than LRU on
# the f0d2/f0d4 oversubscription benches, or when any policy materially
# flips the Groute-vs-MICCO GFLOPS ranking. BENCH_mem.json is refreshed on
# every run so the tracked numbers never go stale silently.
"${REL_BUILD_DIR}/bench/bench_oversubscription" --quick --gate \
  --out="BENCH_mem.json"
grep -q '"gate_passed": true' "BENCH_mem.json"

echo "== tracing overhead gate (Release) =="
# Exits non-zero when full tracing (spans + decision-latency scratch) costs
# more than 2 % of end-to-end run time (DESIGN.md §7).
"${REL_BUILD_DIR}/bench/bench_overhead" --gate --gpus=4

echo "== end-to-end benchmark smoke (Release) =="
# Every perfbench workload in both modes on a short window. The numbers are
# not gated here; the run fails on any correctness check: stream structure,
# FLOP and operand accounting, a model file or reference run that differs
# across set-ups, simulated metrics that are not bit-identical across
# repetitions, and daemon results that differ from offline runs. perfbench
# builds its own Release tree.
CARGO_TARGET_DIR="${PERFBENCH_BUILD_DIR}" python3 perfbench/run.py --smoke

echo "== clang-tidy =="
if command -v clang-tidy >/dev/null 2>&1; then
  # The Debug configure above exported compile_commands.json
  # (CMAKE_EXPORT_COMPILE_COMMANDS is on unconditionally); .clang-tidy at
  # the repo root holds the curated check list.
  find src tools bench -name '*.cpp' -print \
    | xargs clang-tidy -p "${BUILD_DIR}" --quiet
else
  echo "clang-tidy not found; skipping (install LLVM tooling to enable)"
fi

echo "== clang thread-safety analysis =="
if command -v clang++ >/dev/null 2>&1; then
  # Clang's -Wthread-safety checks the MICCO_GUARDED_BY/MICCO_REQUIRES
  # annotations (common/thread_annotations.hpp); they expand to nothing
  # under GCC, so only a Clang build can verify them.
  cmake -B "${CLANG_BUILD_DIR}" -S . \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_COMPILER=clang++ \
    -DMICCO_BUILD_BENCH=OFF \
    -DMICCO_BUILD_EXAMPLES=OFF \
    -DCMAKE_CXX_FLAGS="-Wthread-safety -Werror=thread-safety"
  cmake --build "${CLANG_BUILD_DIR}" -j "$(nproc 2>/dev/null || echo 4)"
else
  echo "clang++ not found; skipping (annotations are no-ops under GCC)"
fi

echo "== ci.sh: all green =="
