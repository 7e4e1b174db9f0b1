#!/bin/sh
# Determinism + parallel-perf gate, run by `make ci-determinism` and CI.
#
# Four contracts:
#   1. Checker JSON is byte-identical at the default snapshot stride and
#      with waypoints disabled (--stride 0), and between --jobs 1 and
#      --jobs 2 on two sabotaged cells whose reports carry violations.
#      The checker's --metrics export is byte-identical across the same
#      two strides and the same two job widths.
#      The incremental engine is compared with the full-replay
#      reference engine in the test suite (test/suite_check.ml).
#   2. Lint JSON parses and is byte-identical between --jobs 1 and
#      --jobs 4.
#   3. The shard service's --metrics export is byte-identical between
#      --jobs 1 and --jobs 2 (each shard counts into its own registry,
#      so two worker domains never share a counter), and its
#      mid-migration crash sweep JSON between --jobs 1 and --jobs 4
#      (the sweep's crash points are a sample seeded by --seed).
#   4. The record-once lint fan-out must not regress under parallelism:
#      j4 wall time <= 1.5x j1 (the old per-rule-re-execution fan-out
#      was 3-4x slower at j4 on a single-core box).
set -eu

SIM="${SIM:-_build/default/bin/wsp_sim.exe}"
cd "$(dirname "$0")/.."

now_ms() { echo $(($(date +%s%N) / 1000000)); }

echo "== checker: default stride vs --stride 0 =="
"$SIM" check --workload hash_table --config undo --points 200 --txns 8 \
  --json check-inc.json > /dev/null
"$SIM" check --workload hash_table --config undo --points 200 --txns 8 \
  --stride 0 --json check-s0.json > /dev/null
cmp check-inc.json check-s0.json

echo "== checker: --metrics byte-identical across --stride and --jobs =="
# A cursor judges its chunk of points on one machine, reset between
# points, so the simulated counters must not depend on how the points
# are chunked (--stride) or spread over domains (--jobs).
for run in default s0 j1 j2; do
  case $run in
    default) extra="" ;;
    s0) extra="--stride 0" ;;
    j1) extra="--jobs 1" ;;
    j2) extra="--jobs 2" ;;
  esac
  "$SIM" check --points 200 --seed 42 $extra --metrics "check-m-$run.json" \
    > /dev/null
done
cmp check-m-default.json check-m-s0.json
cmp check-m-j1.json check-m-j2.json

echo "== checker: --jobs 2 byte-identical to --jobs 1, with violations =="
# Each cell must exit 1 (violations found) at both widths.
check_jobs() {
  for j in 1 2; do
    rc=0
    "$SIM" check "$@" --no-shrink --jobs "$j" --json "check-j$j.json" \
      > /dev/null || rc=$?
    if [ "$rc" -ne 1 ]; then
      echo "FAIL: check $* --jobs $j exited $rc, expected 1 (violations)"
      exit 1
    fi
  done
  cmp check-j1.json check-j2.json
}
check_jobs --workload block_kv --config wsp --broken wsp-save
check_jobs --workload hash_table --config undo --broken fences

echo "== lint: valid JSON, --jobs 4 byte-identical to --jobs 1 =="
"$SIM" lint --expect R3 --jobs 1 --json lint-det-j1.json > /dev/null
"$SIM" lint --expect R3 --jobs 4 --json lint-det-j4.json > /dev/null
python3 -c "import json; json.load(open('lint-det-j1.json'))"
cmp lint-det-j1.json lint-det-j4.json

echo "== shard: --metrics --jobs 2 byte-identical to --jobs 1 =="
KV_ARGS="--shards 2 --keyspace 2000000 --theta 0 --mix 20/75/5 --config undo \
  --heap-mib 16"
"$SIM" shard $KV_ARGS --jobs 1 --metrics shard-metrics-j1.json > /dev/null
"$SIM" shard $KV_ARGS --jobs 2 --metrics shard-metrics-j2.json > /dev/null
cmp shard-metrics-j1.json shard-metrics-j2.json

echo "== shard: --sweep --json --jobs 4 byte-identical to --jobs 1 =="
SWEEP_ARGS="--shards 3 --clients 32 --queue-cap 32 --requests 6000 \
  --keyspace 1200 --config undo --grow-at 30 --sweep --sweep-points 8"
"$SIM" shard $SWEEP_ARGS --jobs 1 --json shard-sweep-j1.json > /dev/null
"$SIM" shard $SWEEP_ARGS --jobs 4 --json shard-sweep-j4.json > /dev/null
cmp shard-sweep-j1.json shard-sweep-j4.json

echo "== lint: parallel perf guard (j4 <= 1.5x j1) =="
# Warm-up run so neither timed run pays first-touch costs.
"$SIM" lint --expect R3 --jobs 1 --json /dev/null > /dev/null
t0=$(now_ms)
"$SIM" lint --expect R3 --jobs 1 --json /dev/null > /dev/null
t1=$(now_ms)
"$SIM" lint --expect R3 --jobs 4 --json /dev/null > /dev/null
t2=$(now_ms)
j1=$((t1 - t0))
j4=$((t2 - t1))
echo "lint j1: ${j1}ms, j4: ${j4}ms"
if [ $((j4 * 2)) -gt $((j1 * 3)) ]; then
  echo "FAIL: lint --jobs 4 took ${j4}ms > 1.5x the ${j1}ms of --jobs 1"
  exit 1
fi

rm -f check-inc.json check-s0.json check-j1.json check-j2.json \
  check-m-default.json check-m-s0.json check-m-j1.json check-m-j2.json \
  lint-det-j1.json lint-det-j4.json \
  shard-metrics-j1.json shard-metrics-j2.json shard-sweep-j1.json \
  shard-sweep-j4.json
echo "ci-determinism: all gates passed"
