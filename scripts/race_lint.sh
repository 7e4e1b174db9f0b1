#!/bin/sh
# Cross-domain persistency race gate, run by `make race-lint` and CI.
#
# Five contracts:
#   1. The clean Delay-Free structures (dqueue, dcounter, handoff) pass
#      the concurrent lint with no R6-R9 diagnostics under FoC-UL and
#      FoF alike.
#   2. The racy variants are convicted by exactly the advertised rules
#      per structure — the bare run exits 1, the per-structure
#      allowlist run exits 0: ack-before-persist + unpublished-fence
#      (dqueue-racy), durability race on top (dcounter-racy), and the
#      handoff-order violation (handoff-racy) — the latter under FoF
#      too, because a store never issued at the destination cannot be
#      saved there.
#   3. The full concurrent report is byte-identical between --jobs 1
#      and --jobs 4, and --buses widens the domain fan-in without
#      changing the verdict.
#   4. The shard service's race lint passes a clean live-topology run
#      (exit 0, zero race errors in the JSON).
#   5. The tombstone-first migration sabotage is convicted twice over:
#      statically by R8 (--broken-handoff --race-lint exits 1) and
#      dynamically by the mid-migration crash sweep (--sweep exits 1).
#
# Lint flags that the chosen registry would ignore are refused in
# scripts/refusals.sh.
set -eu

SIM="${SIM:-_build/default/bin/wsp_sim.exe}"
cd "$(dirname "$0")/.."

echo "== race lint: clean structures are race-free =="
for s in dqueue dcounter handoff; do
  "$SIM" lint --concurrent --workload "$s" > /dev/null
done

echo "== race lint: racy variants convicted per structure =="
if "$SIM" lint --concurrent --workload dqueue-racy > /dev/null; then
  echo "dqueue-racy escaped conviction"; exit 1; fi
"$SIM" lint --concurrent --workload dqueue-racy \
  --expect R3 --expect R7 --expect R9 > /dev/null
"$SIM" lint --concurrent --workload dcounter-racy \
  --expect R6 --expect R7 --expect R9 > /dev/null
"$SIM" lint --concurrent --workload handoff-racy --expect R8 > /dev/null
if "$SIM" lint --concurrent --workload handoff-racy --config fof \
    > /dev/null; then
  echo "handoff-racy escaped conviction under flush-on-fail"; exit 1; fi

echo "== race lint: JSON identical across --jobs, --buses widens =="
EXPECT="--expect R3 --expect R6 --expect R7 --expect R8 --expect R9"
"$SIM" lint --concurrent $EXPECT --jobs 1 --json race-j1.json > /dev/null
"$SIM" lint --concurrent $EXPECT --jobs 4 --json race-j4.json > /dev/null
cmp race-j1.json race-j4.json
"$SIM" lint --concurrent --workload dqueue-racy --buses 5 \
  --expect R3 --expect R7 --expect R9 > /dev/null

SHARD_ARGS="--shards 3 --clients 32 --queue-cap 32 --requests 2000 \
  --keyspace 800 --grow-at 20"

echo "== race lint: clean shard migration passes =="
"$SIM" shard $SHARD_ARGS --race-lint --json race-shard.json > /dev/null
grep -q '"errors": 0,' race-shard.json
grep -q '"lost_acked": 0,' race-shard.json

echo "== race lint: broken handoff convicted statically (R8) =="
if "$SIM" shard $SHARD_ARGS --race-lint --broken-handoff \
    > /dev/null 2>&1; then
  echo "broken handoff escaped the static race lint"; exit 1; fi

echo "== race lint: broken handoff convicted dynamically (sweep) =="
if "$SIM" shard $SHARD_ARGS --broken-handoff --sweep --sweep-points 8 \
    > /dev/null 2>&1; then
  echo "broken handoff escaped the crash sweep"; exit 1; fi

rm -f race-j1.json race-j4.json race-shard.json
echo "race-lint: all gates passed"
