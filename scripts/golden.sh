#!/bin/sh
# Golden-output gate, run by `make golden` and CI.
#
# One contract: simulated output does not move. Each command below is
# deterministic from its arguments, and its output must `cmp` equal to
# the file of the same name committed under test/golden/. The other
# determinism gates compare two runs of one binary (two job widths,
# two strides), so a rewrite that shifts simulated output the same way
# in every run passes them; this gate pins the bytes themselves.
#
#   sh scripts/golden.sh            compare against test/golden/
#   sh scripts/golden.sh --update   rewrite test/golden/ (review the diff)
#
# Cover: image-mode grow/shrink/crash `shard --json`, an undo-logged
# crash run's `shard --json` and `--metrics` (each per-shard event
# count in the former is read off counters the latter exports), the
# kv-cold-undo benchmark's shape as a `shard` run (`shard-cold-undo*`:
# 2M uniform keys outgrow L2 and evict from the LLC, so capacity
# write-backs and the overlay's eviction path are pinned), the
# clean 500-point certification's `check --json` and `--metrics`, a
# sabotaged hash-table sweep's `check --json` (its violations' `where`
# strings name crash points by their events), the static lint's
# `--json` over the registry (clean, under broken fences, and the
# concurrent registry), the static lint's `--metrics` on the bank
# workload (`lint-bank-metrics.json`: the one golden whose per-event
# counters, `nvheap.*` and `machine.flush.*`, reach commits and aborts
# under the plain FoF protocol and the msync backend together), the
# static lint's human report on the bank workload under broken fences
# (witness chains over stores, flushes and log records),
# the concurrent lint's human report (witness chains for every
# race-annotation kind), the shard service's race
# lint (the sabotaged handoff convicted under R8, and a clean undo run
# that also lints, shrinks and crashes), the Table 2 and Figure 8
# reproductions (both hinge on the cache model's tag walk), every
# experiment fast enough to pin (each under 4 s at --jobs 1), the
# save-protocol sweep of `check --protocol`, and the event-driven
# power-cycle runs: `cycle` under each save strategy (its `--metrics`
# carries the simulation engine's dispatch count and queue depth),
# `window --runs 3`, and two fleet storms (the storm report and the
# shard reports share `Stats.percentile`).
#
# Every JSON file the commands write must also parse: a NaN or a stray
# comma in any --json or --metrics emitter fails the gate.
set -eu

SIM="${SIM:-_build/default/bin/wsp_sim.exe}"
cd "$(dirname "$0")/.."

GOLDEN=test/golden
if [ "${1:-}" = "--update" ]; then
  OUT=$GOLDEN
  mkdir -p "$OUT"
else
  OUT=$(mktemp -d)
  trap 'rm -rf "$OUT"' EXIT
fi

# Runs a command whose exit code is part of its contract.
exits() {
  want=$1
  shift
  prints "$want" /dev/null "$@"
}

# Like exits, but keeps the command's stdout in the file named second.
prints() {
  want=$1
  out=$2
  shift 2
  rc=0
  "$SIM" "$@" > "$out" || rc=$?
  if [ "$rc" -ne "$want" ]; then
    echo "FAIL: $* exited $rc, expected $want"
    exit 1
  fi
}

# The experiments pinned here besides table2 and figure8; the rest take
# too long for a gate.
EXPERIMENTS="figure1 figure2 figure6 figure7 wear ablation models process \
  distributed protocol figure9 summary motivation hibernate"

SHARD="--shards 4 --clients 64 --queue-cap 64 --requests 20000 --keyspace 4000"

echo "== golden: generate =="
"$SIM" shard $SHARD --grow-at 40 --shrink-at 200 --crash-at 100 \
  --crash-shard 1 --migrate-mode image --json "$OUT/shard-image.json" \
  > /dev/null
"$SIM" shard $SHARD --config undo --crash-at 150 \
  --json "$OUT/shard-undo.json" --metrics "$OUT/shard-undo-metrics.json" \
  > /dev/null
"$SIM" shard --shards 2 --clients 256 --queue-cap 4096 --requests 10000 \
  --keyspace 2000000 --theta 0 --mix 20/75/5 --config undo --heap-mib 16 \
  --json "$OUT/shard-cold-undo.json" \
  --metrics "$OUT/shard-cold-undo-metrics.json" > /dev/null
"$SIM" check --points 500 --seed 42 --json "$OUT/check.json" \
  --metrics "$OUT/check-metrics.json" > /dev/null
exits 0 lint --expect R3 --json "$OUT/lint-r3.json"
exits 0 lint --workload bank --metrics "$OUT/lint-bank-metrics.json"
exits 1 check --workload hash_table --config undo --broken fences \
  --points 300 --no-shrink --json "$OUT/check-broken.json"
exits 1 lint --broken fences --json "$OUT/lint-broken-fences.json"
prints 1 "$OUT/lint-broken-bank.txt" lint --broken fences --workload bank
exits 1 lint --concurrent --json "$OUT/lint-concurrent.json"
prints 1 "$OUT/lint-concurrent.txt" lint --concurrent
RACE="--shards 3 --clients 32 --queue-cap 32 --requests 2000 --keyspace 800"
exits 1 shard $RACE --grow-at 20 --race-lint --broken-handoff \
  --json "$OUT/shard-race.json"
exits 0 shard $RACE --grow-at 20 --race-lint --config undo --lint \
  --shrink-at 40 --crash-at 30 --json "$OUT/shard-race-undo.json"
"$SIM" experiment table2 > "$OUT/table2.txt"
"$SIM" experiment figure8 > "$OUT/figure8.txt"
for e in $EXPERIMENTS; do
  "$SIM" experiment --jobs 1 "$e" > "$OUT/experiment-$e.txt"
done
"$SIM" check --workload btree --config wsp --points 20 --protocol \
  > "$OUT/check-protocol.txt"
"$SIM" cycle --metrics "$OUT/cycle-metrics.json" > "$OUT/cycle.txt"
"$SIM" cycle --strategy acpi > "$OUT/cycle-acpi.txt"
"$SIM" cycle --strategy replay > "$OUT/cycle-replay.txt"
"$SIM" window --runs 3 > "$OUT/window.txt"
"$SIM" storm > "$OUT/storm.txt"
"$SIM" storm --nodes 200 --stagger 2 > "$OUT/storm-200.txt"

echo "== golden: every JSON output parses =="
for f in "$OUT"/*.json; do
  if ! python3 -c 'import json,sys; json.load(open(sys.argv[1]))' "$f"; then
    echo "FAIL: $f is not valid JSON"
    exit 1
  fi
done

if [ "$OUT" = "$GOLDEN" ]; then
  echo "golden: rewrote $GOLDEN"
  exit 0
fi

echo "== golden: compare against $GOLDEN =="
failed=0
for f in shard-image.json shard-undo.json shard-undo-metrics.json \
  shard-cold-undo.json shard-cold-undo-metrics.json \
  check.json check-metrics.json check-broken.json lint-r3.json \
  lint-bank-metrics.json \
  lint-broken-fences.json lint-broken-bank.txt lint-concurrent.json lint-concurrent.txt shard-race.json \
  shard-race-undo.json table2.txt figure8.txt check-protocol.txt \
  cycle.txt cycle-metrics.json cycle-acpi.txt cycle-replay.txt window.txt \
  storm.txt storm-200.txt \
  $(for e in $EXPERIMENTS; do echo "experiment-$e.txt"; done); do
  if ! cmp "$GOLDEN/$f" "$OUT/$f"; then
    echo "FAIL: $f differs from $GOLDEN/$f"
    failed=1
  fi
done
[ "$failed" -eq 0 ] || exit 1
echo "golden: all outputs match"
