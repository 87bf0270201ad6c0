#!/usr/bin/env bash
# Real-signal variant of the `resume` ctest fixtures (`ctest -L resume`):
# start a campaign with a journal, kill it mid-flight, resume from the
# journal, and require the resumed CSV to be byte-identical to an
# uninterrupted run's (docs/ROBUSTNESS.md).
#
#   scripts/kill_and_resume.sh <build-dir> [TERM|KILL|WORKER]
#
# SIGTERM exercises the graceful path: nvct drains in-flight trials, flushes
# the journal, and exits 130. SIGKILL proves crash safety: the process gets
# no chance to clean up, yet the journal on disk is still a complete,
# lintable prefix (at most one un-flushed batch of trials is lost). WORKER
# SIGKILLs an individual fork-evaluator worker child instead of the campaign:
# nvct must self-heal — respawn the worker, retry the interrupted trial, and
# finish with a CSV byte-identical to an undisturbed run's. Every mode
# asserts that no worker child outlives the campaign (no orphans).
set -euo pipefail

BUILD_DIR=${1:?usage: kill_and_resume.sh <build-dir> [TERM|KILL|WORKER]}
SIGNAL=${2:-TERM}
NVCT="$BUILD_DIR/tools/nvct"
TRACE_LINT="$BUILD_DIR/tools/trace_lint"
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

APP=sp
TESTS=1000
# 2^53 + 1: no double holds it, so the journal's header must be read
# exactly for --resume to accept the campaign's own journal.
SEED=9007199254740993
JOURNAL="$WORK/journal.jsonl"

# The campaign (and its pre-forked workers) all carry the unique journal
# path on their command line: after the campaign is gone, any process still
# matching it is an orphaned worker.
assert_no_orphans() {
  sleep 0.5  # PDEATHSIG delivery / pool teardown race headroom
  if pgrep -f "$JOURNAL" > /dev/null 2>&1; then
    echo "FAIL: orphaned worker processes survived the campaign:"
    pgrep -af "$JOURNAL" || true
    exit 1
  fi
  echo "ok: no orphaned workers"
}

if [[ "$SIGNAL" == WORKER ]]; then
  echo "== campaign with a SIGKILLed worker child =="
  "$NVCT" --app "$APP" --tests "$TESTS" --seed "$SEED" --no-progress \
    --journal "$JOURNAL" --journal-flush-every 4 \
    --csv-out "$WORK/healed.csv" --metrics-out "$WORK/healed_metrics.json" &
  PID=$!

  # Wait until trials are flowing so the kill lands on a busy worker pool.
  for _ in $(seq 1 300); do
    if [[ -f "$JOURNAL" ]] && (( $(wc -l < "$JOURNAL") >= 3 )); then
      break
    fi
    if ! kill -0 "$PID" 2>/dev/null; then
      echo "FAIL: campaign finished before the worker kill (grow TESTS)"
      wait "$PID" || true
      exit 1
    fi
    sleep 0.05
  done

  WORKER_PID=$(pgrep -P "$PID" | head -n 1 || true)
  [[ -n "$WORKER_PID" ]] || { echo "FAIL: no worker child to kill"; exit 1; }
  echo "== SIGKILL worker $WORKER_PID (campaign $PID keeps running) =="
  kill -KILL "$WORKER_PID"

  wait "$PID" || { echo "FAIL: campaign died with its worker"; exit 1; }
  assert_no_orphans
  "$TRACE_LINT" --journal "$JOURNAL"

  python3 - "$WORK/healed_metrics.json" <<'EOF'
import json, sys
counters = json.load(open(sys.argv[1]))["counters"]
deaths = counters.get("campaign.worker_kills", 0) + counters.get(
    "campaign.worker_crashes", 0)
assert deaths >= 1, f"no worker death recorded: {deaths}"
assert counters.get("campaign.worker_respawns", 0) >= 0
print(f"ok: {deaths} worker death(s) recorded, "
      f"{counters.get('campaign.worker_respawns', 0)} respawn(s)")
EOF

  echo "== undisturbed reference run =="
  "$NVCT" --app "$APP" --tests "$TESTS" --seed "$SEED" --no-progress \
    --csv-out "$WORK/fresh.csv"

  if cmp "$WORK/healed.csv" "$WORK/fresh.csv"; then
    echo "PASS: campaign self-healed; results byte-identical to undisturbed run"
  else
    echo "FAIL: self-healed CSV differs from the undisturbed run"
    exit 1
  fi
  exit 0
fi

echo "== campaign under SIG$SIGNAL =="
"$NVCT" --app "$APP" --tests "$TESTS" --seed "$SEED" --no-progress \
  --journal "$JOURNAL" --journal-flush-every 4 &
PID=$!

# Wait until the journal holds at least a header plus 8 decided trials, so
# the kill lands mid-campaign rather than before or after it.
for _ in $(seq 1 300); do
  if [[ -f "$JOURNAL" ]] && (( $(wc -l < "$JOURNAL") >= 9 )); then
    break
  fi
  if ! kill -0 "$PID" 2>/dev/null; then
    echo "FAIL: campaign finished before the kill (grow TESTS)"
    wait "$PID" || true
    exit 1
  fi
  sleep 0.05
done

kill "-$SIGNAL" "$PID"
set +e
wait "$PID"
STATUS=$?
set -e
if [[ "$SIGNAL" == TERM ]]; then
  # Graceful drain: distinct interrupted exit code.
  [[ $STATUS -eq 130 ]] || { echo "FAIL: expected exit 130, got $STATUS"; exit 1; }
else
  # SIGKILL: death by signal (128 + 9).
  [[ $STATUS -eq 137 ]] || { echo "FAIL: expected exit 137, got $STATUS"; exit 1; }
fi

# The graceful drain must have destroyed the worker pool; under SIGKILL the
# workers' parent-death signal must have taken them down.
assert_no_orphans

DECIDED=$(( $(wc -l < "$JOURNAL") - 1 ))
echo "== journal holds $DECIDED decided trials; linting =="
"$TRACE_LINT" --journal "$JOURNAL"
(( DECIDED >= 1 && DECIDED < TESTS )) || {
  echo "FAIL: kill did not land mid-campaign ($DECIDED/$TESTS)"; exit 1; }

echo "== resuming =="
"$NVCT" --app "$APP" --tests "$TESTS" --seed "$SEED" --no-progress \
  --journal "$JOURNAL" --resume "$JOURNAL" \
  --csv-out "$WORK/resumed.csv"
assert_no_orphans

echo "== uninterrupted reference run =="
"$NVCT" --app "$APP" --tests "$TESTS" --seed "$SEED" --no-progress \
  --csv-out "$WORK/fresh.csv"

if cmp "$WORK/resumed.csv" "$WORK/fresh.csv"; then
  echo "PASS: resumed campaign is byte-identical to the uninterrupted run"
else
  echo "FAIL: resumed CSV differs from the uninterrupted run"
  exit 1
fi
