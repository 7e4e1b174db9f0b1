#!/bin/sh
# Live-topology + per-shard-failure smoke, run by `make
# shard-migrate-smoke` and CI.
#
# Four contracts:
#   1. A mid-run grow immediately followed (later) by a shrink drains
#      every moved key with zero acknowledged-write loss and zero
#      misplaced keys (the CLI exits 1 on either), and with no crash
#      requested the JSON renders "crash_at": null — never a sentinel.
#   2. Power-failing ONE shard leaves the rest of the fleet serving:
#      the run is lossless, the report books the availability dip
#      (strictly below 1), and exactly one restore is recorded.
#   3. The mid-migration crash sweep — a whole-service power failure
#      injected before a sample of the migration's memory events,
#      seeded by --seed, on plain-WSP and on undo-logged heaps —
#      recovers every point
#      lossless with unique ownership and golden-equal state (the CLI
#      exits 1 on any violation).
#   4. The combined worst case (grow + shrink + single-shard crash) is
#      byte-identical between --jobs 1 and --jobs 4.
set -eu

SIM="${SIM:-_build/default/bin/wsp_sim.exe}"
cd "$(dirname "$0")/.."

MIG_ARGS="--shards 4 --clients 64 --queue-cap 64 --requests 20000 --keyspace 4000"

echo "== migrate: grow then shrink drains losslessly =="
"$SIM" shard $MIG_ARGS --grow-at 40 --shrink-at 200 --json mig-topo.json > /dev/null
grep -q '"crash_at": null,' mig-topo.json
grep -q '"lost_acked": 0,' mig-topo.json
grep -q '"misplaced_keys": 0,' mig-topo.json
if grep -q '"keys_moved": 0,' mig-topo.json; then
  echo "topology change moved no keys"; exit 1; fi

echo "== migrate: one shard's power failure spares the rest =="
"$SIM" shard $MIG_ARGS --crash-at 150 --crash-shard 2 --json mig-crash1.json > /dev/null
grep -q '"crash_at": 150,' mig-crash1.json
grep -q '"crash_shard": 2,' mig-crash1.json
grep -q '"lost_acked": 0,' mig-crash1.json
if grep -q '"availability": 1.000000,' mig-crash1.json; then
  echo "single-shard crash booked no availability dip"; exit 1; fi

echo "== migrate: mid-migration crash sweep (plain WSP) =="
"$SIM" shard --shards 3 --clients 32 --queue-cap 32 --requests 6000 \
  --keyspace 1200 --grow-at 30 --shrink-at 120 --sweep --sweep-points 16 \
  --json mig-sweep-fof.json > /dev/null
grep -q '"violations": 0,' mig-sweep-fof.json

echo "== migrate: mid-migration crash sweep (undo-logged heaps) =="
"$SIM" shard --shards 3 --clients 32 --queue-cap 32 --requests 6000 \
  --keyspace 1200 --config undo --grow-at 30 --sweep --sweep-points 8 \
  --json mig-sweep-ul.json > /dev/null
grep -q '"violations": 0,' mig-sweep-ul.json

echo "== migrate: grow + shrink + shard crash JSON identical across --jobs =="
"$SIM" shard $MIG_ARGS --grow-at 40 --shrink-at 200 --crash-at 100 \
  --crash-shard 1 --jobs 1 --json mig-j1.json > /dev/null
"$SIM" shard $MIG_ARGS --grow-at 40 --shrink-at 200 --crash-at 100 \
  --crash-shard 1 --jobs 4 --json mig-j4.json > /dev/null
cmp mig-j1.json mig-j4.json
grep -q '"lost_acked": 0,' mig-j1.json

rm -f mig-topo.json mig-crash1.json mig-sweep-fof.json mig-sweep-ul.json \
  mig-j1.json mig-j4.json
echo "shard-migrate-smoke: all gates passed"
