#!/bin/sh
# Usage-error gate, run by `make refusals` and CI.
#
# One contract: every malformed or conflicting option in the table
# below is refused with exactly one line on stderr and exit 2, never
# with an uncaught exception (exit 125) and never silently accepted
# (exit 0). Each row is a verb and its arguments.
set -eu

SIM="${SIM:-_build/default/bin/wsp_sim.exe}"
cd "$(dirname "$0")/.."

failed=0
refuses() {
  rc=0
  err=$("$SIM" "$@" 2>&1 > /dev/null < /dev/null) || rc=$?
  lines=0
  [ -z "$err" ] || lines=$(printf '%s\n' "$err" | wc -l)
  if [ "$rc" -ne 2 ] || [ "$lines" -ne 1 ]; then
    echo "FAIL: $* exited $rc with $lines stderr line(s): $err"
    failed=1
  fi
}

echo "== refusals: malformed or conflicting options exit 2 =="
# $args is split on blanks on purpose: one row, one argument list.
while read -r args; do
  case "$args" in '' | '#'*) continue ;; esac
  # shellcheck disable=SC2086
  refuses $args
done <<'EOF'
# -j/--jobs: 0 means the default width, a negative one nothing
experiment table2 --jobs=-1
check --jobs=-1
lint --jobs=-1
shard --jobs=-1
# check: counts the checker cannot judge
check --points 0
check --points=-3
check --txns=-1
check --stride=-1
# lint: flags the chosen registry would ignore
lint --concurrent --broken fences
lint --concurrent --psu 400
lint --concurrent --platform x5650
lint --concurrent --busy
lint --buses 3
# lint: negative counts
lint --concurrent --workload dqueue --txns=-5
lint --workload bank --config foc-ul --txns=-1
lint --concurrent --workload dqueue --buses=-3
# shard: a zero shard count, --crash-shard without --crash-at, a crash
# aimed at a shard a shrink already retired (detected only mid-run),
# a sweep with no migration event to inject
shard --shards 0
shard --crash-shard 1
shard --shards 2 --shrink-at 0 --crash-at 1 --crash-shard 1
shard --shards 2 --clients 8 --requests 0 --grow-at 0 --sweep
# shard: a sweep reports neither analyzer's verdict, and --sweep-points
# means nothing without a sweep
shard --shards 2 --clients 8 --requests 200 --grow-at 2 --sweep --lint
shard --shards 2 --clients 8 --requests 200 --grow-at 2 --sweep --race-lint
shard --shards 2 --clients 8 --requests 200 --grow-at 2 --sweep-points 4
# shard: a sweep needs a positive crash-point budget
shard --shards 2 --clients 8 --requests 200 --grow-at 2 --sweep --sweep-points 0
shard --shards 2 --clients 8 --requests 200 --grow-at 2 --sweep --sweep-points=-3
# shard: a skew outside [0, 1), NaN included, and an empty shard heap
shard --theta=-1
shard --theta nan
shard --heap-mib=-1
# storm: the rack model
storm --nodes=-5
storm --servers 0
storm --state-gib=-1
storm --outage=-1
storm --outage nan
storm --outage inf
# storm: the fleet model
storm --nodes 10 --slots 0
storm --nodes 10 --horizon 0
storm --nodes 10 --stagger=-1
storm --nodes 10 --stagger nan
storm --nodes 10 --spares=-1
storm --nodes 10 --failures 20
# storm: the fleet model's flags without --nodes, which the rack model
# would ignore
storm --json x.json
storm --slots 4
storm --stagger 1
storm --horizon 10
storm --failures 3
storm --spares 1
storm --nodes 0 --spares 3 --slots 1
# window
window --runs 0
window --runs=-2
# values the option parser itself rejects
check --config bogus
lint --broken bogus
lint --expect R11
shard --migrate-mode nope
cycle --strategy bogus
cycle --seed x
EOF

[ "$failed" -eq 0 ] || exit 1
echo "refusals: all gates passed"
