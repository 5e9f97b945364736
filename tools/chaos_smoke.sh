#!/usr/bin/env sh
# chaos_smoke.sh — kill -9 crash/recovery harness for the scheduling daemon.
#
# Runs one reference (uninterrupted) `micco serve` session, then SIGKILLs a
# daemon at every scripted journal crash point (--journal-crash-after=K
# raises SIGKILL the instant record K becomes durable), restarts it on the
# same journal, and asserts the recovered state:
#   K=1 (after `admitted`)   the job re-runs; recovered decision log is
#                            byte-identical to the reference session, and
#                            the span trace matches modulo the final
#                            journal_replay summary line;
#   K=2 (after `finished`)   recovery replays the result without re-running
#                            anything (empty decision log), and a duplicate
#                            resubmit under the same idempotency token
#                            answers DONE instantly — exactly-once across
#                            the crash.
# A job journals exactly two records, so these are all its crash points;
# the reference journal is checked to hold just those two. (A journal whose
# job crashed after an older daemon's `dispatched` record is replayed by
# Recovery.InterruptedJobRerunsByteIdentically.)
# The restarted daemon binds over the stale socket the crash left behind
# (the probe-then-unlink start path), and the resubmit reconnects with
# --retry-max while the restart is still in flight.
#
# Usage: tools/chaos_smoke.sh <micco-binary> <scratch-dir>
set -eu

MICCO="${1:?usage: chaos_smoke.sh <micco-binary> <scratch-dir>}"
DIR="${2:?usage: chaos_smoke.sh <micco-binary> <scratch-dir>}"
mkdir -p "${DIR}"

SOCKET="${DIR}/chaos.sock"

wait_for_socket() {
  for _ in $(seq 1 100); do
    [ -S "$1" ] && return 0
    sleep 0.1
  done
  echo "chaos: socket $1 never appeared" >&2
  return 1
}

"${MICCO}" generate --out="${DIR}/w.mw" --vectors=2 --vector-size=16 --seed=7

echo "-- chaos: reference session (uninterrupted) --"
"${MICCO}" serve --socket="${SOCKET}" --gpus=4 --threads=1 \
  --journal="${DIR}/ref.journal" \
  --decisions="${DIR}/ref_decisions.jsonl" \
  --spans="${DIR}/ref_spans.jsonl" &
REF_PID=$!
wait_for_socket "${SOCKET}"
"${MICCO}" submit "${DIR}/w.mw" --socket="${SOCKET}" --tenant=alice \
  --idem=chaos-tok --wait
"${MICCO}" drain --socket="${SOCKET}"
wait "${REF_PID}"

# One job writes exactly two journal records, admitted and finished, and
# no dispatched one. Crash after each in turn.
if [ "$(wc -l < "${DIR}/ref.journal")" -ne 2 ] ||
    grep -q '"kind":"dispatched"' "${DIR}/ref.journal"; then
  echo "chaos: reference journal is not [admitted, finished]" >&2
  cat "${DIR}/ref.journal" >&2
  exit 1
fi
for K in 1 2; do
  echo "-- chaos: SIGKILL after journal record ${K} --"
  rm -f "${DIR}/k${K}.journal"
  "${MICCO}" serve --socket="${SOCKET}" --gpus=4 --threads=1 \
    --journal="${DIR}/k${K}.journal" --journal-crash-after="${K}" \
    --decisions="${DIR}/k${K}_crash_decisions.jsonl" &
  SERVE_PID=$!
  wait_for_socket "${SOCKET}"
  # At K=1 the daemon dies before the submit reply is sent; the client sees
  # a dead connection and a non-zero exit, which is fine — the idempotency
  # token is what makes the later resubmit safe.
  "${MICCO}" submit "${DIR}/w.mw" --socket="${SOCKET}" --tenant=alice \
    --idem=chaos-tok --deadline-ms=5000 || true
  RC=0
  wait "${SERVE_PID}" || RC=$?
  if [ "${RC}" -ne 137 ]; then
    echo "chaos: expected SIGKILL exit 137 at K=${K}, got ${RC}" >&2
    exit 1
  fi

  # Restart on the same journal. No `rm` of the stale socket: the probe
  # connect must find it dead and unlink it. The resubmit retries its
  # connection because the restart races it.
  "${MICCO}" serve --socket="${SOCKET}" --gpus=4 --threads=1 \
    --journal="${DIR}/k${K}.journal" \
    --decisions="${DIR}/k${K}_decisions.jsonl" \
    --spans="${DIR}/k${K}_spans.jsonl" &
  SERVE_PID=$!
  "${MICCO}" submit "${DIR}/w.mw" --socket="${SOCKET}" --tenant=alice \
    --idem=chaos-tok --deadline-ms=5000 --retry-max=8 --retry-backoff=0.1 \
    --wait > "${DIR}/k${K}_resubmit.txt"
  cat "${DIR}/k${K}_resubmit.txt"
  # Every crash point journaled the admitted record (it is durable before
  # the reply), so the resubmit is always a dedup hit, never a second job.
  grep -q "duplicate" "${DIR}/k${K}_resubmit.txt"
  "${MICCO}" drain --socket="${SOCKET}"
  wait "${SERVE_PID}"

  if [ "${K}" -lt 2 ]; then
    # Interrupted before the finished record: recovery re-runs the job, and
    # the decision log must be byte-identical to the uninterrupted session.
    cmp "${DIR}/k${K}_decisions.jsonl" "${DIR}/ref_decisions.jsonl"
    # The span trace matches too, modulo the final journal_replay summary.
    sed '$d' "${DIR}/k${K}_spans.jsonl" > "${DIR}/k${K}_spans_trimmed.jsonl"
    cmp "${DIR}/k${K}_spans_trimmed.jsonl" "${DIR}/ref_spans.jsonl"
    grep -q "journal_replay" "${DIR}/k${K}_spans.jsonl"
  else
    # Crashed after the finished record: recovery replays the result and
    # must not re-run anything (exactly-once), so no scheduling decisions.
    if [ -s "${DIR}/k${K}_decisions.jsonl" ]; then
      echo "chaos: K=2 recovery re-ran an already-finished job" >&2
      exit 1
    fi
  fi
done

echo "chaos smoke OK: every crash point recovered, decision logs" \
  "byte-identical, idempotent resubmit ran exactly once across kill -9"
