#!/usr/bin/env bash
# Sharded-campaign driver (docs/INTERNALS.md "Sharded campaigns"): fan one
# crash campaign out over k local nvct processes with --shard i/k, watch the
# per-shard live status snapshots, fold the shard journals back together
# with `nvct merge` and `nvct report`, and byte-check the merged journal,
# CSV and report against an unsharded reference run.
#
#   scripts/shard_campaign.sh <build-dir> [shards] [app] [tests] [extra nvct args...]
#
# e.g. scripts/shard_campaign.sh build 3 is 300 --seed 2 --threads 2
#
# Every shard is an ordinary nvct invocation — the SSH-ready command line
# for each is printed before launch, so distributing the same campaign over
# machines is copy-paste: run shard i on host i against a shared (or
# scp'd-back) journal directory, then `nvct merge` anywhere. A shard that
# dies mid-run leaves a crash-safe journal; re-run its exact command line
# plus `--resume <its journal>` and merge as normal.
set -euo pipefail

BUILD_DIR=${1:?usage: shard_campaign.sh <build-dir> [shards] [app] [tests] [extra nvct args...]}
SHARDS=${2:-3}
APP=${3:-sp}
TESTS=${4:-60}
shift $(( $# > 4 ? 4 : $# ))
EXTRA_ARGS=("$@")
NVCT="$BUILD_DIR/tools/nvct"
TRACE_LINT="$BUILD_DIR/tools/trace_lint"
WORK=${SHARD_WORK_DIR:-$(mktemp -d)}
[[ -n "${SHARD_WORK_DIR:-}" ]] || trap 'rm -rf "$WORK"' EXIT

echo "== fanning $APP --tests $TESTS out over $SHARDS shard processes =="
PIDS=()
for (( i = 0; i < SHARDS; i++ )); do
  CMD=("$NVCT" --app "$APP" --tests "$TESTS" --shard "$i/$SHARDS"
       --journal "$WORK/shard_$i.jsonl"
       --status-out "$WORK/shard_$i.status.json" --status-interval-ms 200
       --no-progress "${EXTRA_ARGS[@]+"${EXTRA_ARGS[@]}"}")
  echo "shard $i/$SHARDS: ${CMD[*]}"
  "${CMD[@]}" > "$WORK/shard_$i.log" 2>&1 &
  PIDS+=($!)
done

# Stream progress from the live status snapshots while the shards run.
while :; do
  RUNNING=0
  for PID in "${PIDS[@]}"; do
    kill -0 "$PID" 2>/dev/null && RUNNING=$((RUNNING + 1))
  done
  LINE="shards running: $RUNNING/$SHARDS"
  for (( i = 0; i < SHARDS; i++ )); do
    STATUS="$WORK/shard_$i.status.json"
    if [[ -f "$STATUS" ]]; then
      DECIDED=$(grep -o '"decided":[0-9]*' "$STATUS" | cut -d: -f2 || true)
      OWNED=$(grep -o '"tests":[0-9]*' "$STATUS" | cut -d: -f2 || true)
      LINE+="  [$i] ${DECIDED:-0}/${OWNED:-?}"
    else
      LINE+="  [$i] -"
    fi
  done
  echo "$LINE"
  (( RUNNING == 0 )) && break
  sleep 0.5
done

FAILED=0
for (( i = 0; i < SHARDS; i++ )); do
  if ! wait "${PIDS[$i]}"; then
    echo "FAIL: shard $i exited nonzero:"
    tail -n 5 "$WORK/shard_$i.log"
    FAILED=1
  fi
done
(( FAILED == 0 )) || exit 1

echo "== linting the per-shard status snapshots and journals =="
MERGE_ARGS=()
for (( i = 0; i < SHARDS; i++ )); do
  "$TRACE_LINT" --status "$WORK/shard_$i.status.json" \
    --journal "$WORK/shard_$i.jsonl"
  MERGE_ARGS+=(--journal "$WORK/shard_$i.jsonl")
done

echo "== merging $SHARDS shard journals =="
"$NVCT" merge "${MERGE_ARGS[@]}" \
  --journal-out "$WORK/merged.jsonl" \
  --csv-out "$WORK/merged.csv" \
  --metrics-out "$WORK/merged_metrics.json"
"$NVCT" report "${MERGE_ARGS[@]}" --out "$WORK/merged_report.md"

echo "== unsharded reference run =="
"$NVCT" --app "$APP" --tests "$TESTS" --no-progress \
  --journal "$WORK/reference.jsonl" --csv-out "$WORK/reference.csv" \
  "${EXTRA_ARGS[@]+"${EXTRA_ARGS[@]}"}" > /dev/null
"$NVCT" report --journal "$WORK/reference.jsonl" --out "$WORK/reference_report.md"

OK=1
cmp "$WORK/merged.jsonl" "$WORK/reference.jsonl" \
  || { echo "FAIL: merged journal differs from the unsharded run"; OK=0; }
cmp "$WORK/merged.csv" "$WORK/reference.csv" \
  || { echo "FAIL: merged CSV differs from the unsharded run"; OK=0; }
cmp "$WORK/merged_report.md" "$WORK/reference_report.md" \
  || { echo "FAIL: merged report differs from the unsharded run's"; OK=0; }
(( OK == 1 )) || exit 1
echo "PASS: $SHARDS-shard merge is byte-identical to the unsharded campaign"
