#!/bin/sh
# Sharded-service + fleet-storm smoke, run by `make shard-smoke` and CI.
#
# Five contracts:
#   1. The shard report JSON is byte-identical between --jobs 1 and
#      --jobs 4: the report carries simulated quantities only, and each
#      worker domain owns its shard exclusively, so parallel serving
#      must not be observable in the output.
#   2. A mid-run power failure saves, crashes and restores every shard
#      with zero acknowledged-write loss (the CLI exits 1 on any loss),
#      and the crash run's JSON is job-width deterministic too.
#   3. The same holds on undo-logged heaps, where restore replays the
#      per-shard undo log instead of relying on flush-on-commit.
#   4. The fleet storm sweep is deterministic for a seed at >=1000
#      nodes with contended restore slots.
#   5. Grow, shrink and crash triggers at or past the last round fire
#      once after it, losslessly, with job-width deterministic JSON.
#
# Malformed or conflicting shard flags are refused in
# scripts/refusals.sh.
set -eu

SIM="${SIM:-_build/default/bin/wsp_sim.exe}"
cd "$(dirname "$0")/.."

# queue_cap = clients: nothing sheds, so the run is also comparable
# against a single-shard oracle (the test suite's equivalence property).
SHARD_ARGS="--shards 4 --clients 64 --queue-cap 64 --requests 20000 --keyspace 4000"

echo "== shard: --jobs 4 JSON byte-identical to --jobs 1 =="
"$SIM" shard $SHARD_ARGS --jobs 1 --json shard-j1.json > /dev/null
"$SIM" shard $SHARD_ARGS --jobs 4 --json shard-j4.json > /dev/null
cmp shard-j1.json shard-j4.json
# No crash requested: the field must render as JSON null, never as a
# -1 (or any other) sentinel round index.
grep -q '"crash_at": null,' shard-j1.json

echo "== shard: mid-run power failure restores all shards losslessly =="
"$SIM" shard $SHARD_ARGS --crash-at 150 --jobs 1 --json shard-crash-j1.json > /dev/null
"$SIM" shard $SHARD_ARGS --crash-at 150 --jobs 4 --json shard-crash-j4.json > /dev/null
cmp shard-crash-j1.json shard-crash-j4.json
grep -q '"crash_at": 150,' shard-crash-j1.json
grep -q '"lost_acked": 0,' shard-crash-j1.json

echo "== shard: undo-logged heaps crash losslessly too =="
"$SIM" shard $SHARD_ARGS --config undo --crash-at 150 --json shard-crash-ul.json > /dev/null
grep -q '"lost_acked": 0,' shard-crash-ul.json

echo "== storm: 1500-node fleet sweep is seed-deterministic =="
"$SIM" storm --nodes 1500 --slots 48 --json storm-a.json > /dev/null
"$SIM" storm --nodes 1500 --slots 48 --json storm-b.json > /dev/null
cmp storm-a.json storm-b.json

echo "== shard: past-the-end triggers fire after the last round =="
# 20000 requests / 64 clients = 313 rounds (0..312).
"$SIM" shard $SHARD_ARGS --grow-at 312 --shrink-at 400 --crash-at 500 \
  --jobs 1 --json shard-tail-j1.json > /dev/null
"$SIM" shard $SHARD_ARGS --grow-at 312 --shrink-at 400 --crash-at 500 \
  --jobs 4 --json shard-tail-j4.json > /dev/null
cmp shard-tail-j1.json shard-tail-j4.json
grep -q '"lost_acked": 0,' shard-tail-j1.json
grep -q '"misplaced_keys": 0,' shard-tail-j1.json
grep -q '"change": "shrink", "at_round": 313,' shard-tail-j1.json

rm -f shard-j1.json shard-j4.json shard-crash-j1.json shard-crash-j4.json \
  shard-crash-ul.json storm-a.json storm-b.json shard-tail-j1.json \
  shard-tail-j4.json
echo "shard-smoke: all gates passed"
