#!/bin/sh
# Alternating paired wall-time runs of one perfbench workload in two
# source checkouts, a parent and a change.
#
#   sh scripts/bench_pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD PAIRS SECONDS
#
# Pair N (N = 1..PAIRS) runs
#   python3 perfbench/run.py --workload WORKLOAD --seed N --seconds SECONDS --trace 0
# in both checkouts, the parent first on odd N and the change first on
# even N, so a drift of the host over time favours neither side. Each
# checkout builds its own harness from its own source; build both
# first (one run of each) so that no pair times a build.
#
# It prints the end-to-end metrics of each pair, then per metric the
# median of each side, the parent's interquartile range and the number
# of pairs the change won (the direction of each metric comes from the
# change's BENCHMARK.json). Not a CI step: hosts differ too much for a
# fixed bound, so read the win count against the parent's spread.
set -eu

if [ $# -ne 5 ]; then
  echo "usage: $0 PARENT_DIR CHANGE_DIR WORKLOAD PAIRS SECONDS" >&2
  exit 2
fi
parent=$1 change=$2 workload=$3 pairs=$4 seconds=$5

out=$(mktemp)
trap 'rm -f "$out"' EXIT

run() {
  # One run in checkout $1; appends "side seed json" to $out.
  line=$(cd "$1" && python3 perfbench/run.py --workload "$workload" \
    --seed "$3" --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1)
  echo "$2 $3 $line" >> "$out"
}

n=1
while [ "$n" -le "$pairs" ]; do
  if [ $((n % 2)) -eq 1 ]; then
    run "$parent" parent "$n"
    run "$change" change "$n"
  else
    run "$change" change "$n"
    run "$parent" parent "$n"
  fi
  n=$((n + 1))
done

python3 - "$out" "$change/BENCHMARK.json" "$workload" <<'EOF'
import json
import statistics
import sys

rows, spec, workload = sys.argv[1:4]
metrics = json.load(open(spec))["end_to_end"]
runs = {"parent": {}, "change": {}}
for row in open(rows):
    side, seed, payload = row.split(" ", 2)
    try:
        runs[side][int(seed)] = json.loads(payload)["metrics"]
    except (ValueError, KeyError):
        sys.exit(f"bench_pairs: {side} run of seed {seed} printed no result")

seeds = sorted(runs["parent"])
print(f"{workload}: {len(seeds)} pairs (parent / change)")
for seed in seeds:
    cells = [f"{m['name']} {runs['parent'][seed][m['name']]['value']:.6g}"
             f" / {runs['change'][seed][m['name']]['value']:.6g}"
             for m in metrics]
    print(f"  seed {seed}: " + "; ".join(cells))

for m in metrics:
    name = m["name"]
    p = [runs["parent"][s][name]["value"] for s in seeds]
    c = [runs["change"][s][name]["value"] for s in seeds]
    q1, _, q3 = (statistics.quantiles(p, n=4) if len(p) > 1 else (p[0],) * 3)
    higher = m["better"] == "higher"
    wins = sum((b > a) if higher else (b < a) for a, b in zip(p, c))
    mp, mc = statistics.median(p), statistics.median(c)
    print(f"{name}: median {mp:.6g} -> {mc:.6g} ({100 * (mc - mp) / mp:+.1f}%),"
          f" parent IQR {q3 - q1:.6g}, change better in {wins}/{len(seeds)}")
EOF
