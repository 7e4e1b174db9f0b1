#!/usr/bin/env python3
"""Wall-time benchmark of the WSP simulator, end to end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload kv-cold-undo --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The script builds perfbench/wspbench.exe with dune, draws the workload's
inputs from --seed, runs the harness and prints every metric with its
unit and sample count. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics: the
end-to-end metrics of BENCHMARK.json with --trace 0, the per-layer ones
with --trace 1. perfbench/BENCHMARK.md describes workloads and metrics.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "wspbench.exe")
SPANS_DIR = ".perfbench"
BUILD_TIMEOUT_S = 880
HARNESS_TIMEOUT_S = 170
SOURCE_FILES = [
    "dune-project",
    os.path.join("lib", "shard", "service.ml"),
    os.path.join("perfbench", "dune"),
    "BENCHMARK.json",
]


def kv(shards, requests, keyspace, theta, mix, config, heap_mib, *extra):
    return ["kv", "--shards", str(shards), "--requests", str(requests),
            "--keyspace", str(keyspace), "--theta", str(theta),
            "--mix", mix, "--config", config, "--heap-mib", str(heap_mib),
            *extra]


def seed_arg(rng):
    return ["--seed", str(rng.randrange(1, 1 << 30))]


# Each workload maps a seeded generator to harness arguments. The shape
# is fixed; the seed draws the request stream or checker script (and,
# on kv-churn-image, which shard loses power).
WORKLOADS = {
    "kv-cold-undo": lambda rng:
        kv(2, 10_000, 2_000_000, 0.0, "20,75,5", "foc+ul", 16) + seed_arg(rng),
    "kv-churn-image": lambda rng:
        kv(8, 25_600, 20_000, 0.99, "70,25,5", "fof", 4,
           "--grow-at", "10", "--shrink-at", "40", "--crash-at", "80",
           "--crash-shard", str(rng.randrange(8)), "--migrate-mode", "image")
        + seed_arg(rng),
    # 512 points a cell: two of the checker's 256-point snapshot chunks,
    # so its second worker domain has work.
    "certify": lambda rng: ["certify", "--points", "512"] + seed_arg(rng),
}


def generate(workload, seed):
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def die(msg, code=1):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    cmd = ["dune", "build", "--root", ".", "--profile", "release",
           "./perfbench/wspbench.exe"]
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"build failed: {e}")
    if done.returncode != 0:
        die("build failed")


def harness(args):
    try:
        done = subprocess.run([EXE, *args], stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"harness failed: {e}")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        die(f"harness exited with code {done.returncode}")
    try:
        return json.loads(lines[-1])
    except ValueError:
        die("harness printed no result")


def show(name, xs, unit, tag=""):
    value = statistics.median(xs)
    lo, hi = (statistics.quantiles(xs, n=4)[::2] if len(xs) > 1
              else (value, value))
    print(f"{name:<30} {value:>16.6g} {unit:<7} n={len(xs):<3} "
          f"q1={lo:.6g} q3={hi:.6g}{tag}")
    return value


def report(spec, found, trace):
    metrics = {}
    for m in spec["per_layer"] if trace else spec["end_to_end"]:
        name, unit = m["name"], m["unit"]
        xs = found["samples"].get(name)
        if xs is None and name in found["values"]:
            xs = [found["values"][name]]
        if not xs or any(x is None for x in xs):
            die(f"harness reported no number for {name}")
        metrics[name] = {"value": show(name, xs, unit), "unit": unit}
    # Readings under the names the workloads' own documents use.
    for name, xs in sorted(found["samples"].items()):
        if name not in metrics:
            show(name, xs, "", "  (info)")
    for name, x in sorted(found["values"].items()):
        if name not in metrics and x is not None:
            show(name, [x], "", "  (info)")
    return metrics


def self_test():
    """Same seed: same inputs, simulated digests and per-op counts.
    Another seed: another request stream."""
    problems = []
    for name in WORKLOADS:
        if generate(name, 7) != generate(name, 7):
            problems.append(f"{name}: seed 7 drew different inputs twice")
        if generate(name, 7) == generate(name, 8):
            problems.append(f"{name}: seeds 7 and 8 drew the same inputs")

    def digest(seed):
        args = generate("kv-churn-image", seed)
        args[0] = "digest"
        return harness(args)

    a, b, c = digest(11), digest(11), digest(12)
    if a != b:
        problems.append("seed 11 gave different simulated digests twice")
    if a["digest"] != a["digest_j2"]:
        problems.append("1 and 2 worker domains disagree on seed 11")
    if a["stream"] == c["stream"]:
        problems.append("seeds 11 and 12 gave the same request stream")
    for p in problems:
        print(f"self-test: {p}", file=sys.stderr)
    print("self-test: " + ("ok" if not problems
                           else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    missing = [f for f in SOURCE_FILES if not os.path.exists(f)]
    if missing:
        die("not a source checkout (missing " + ", ".join(missing)
            + "); run from the repository root", 2)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    build()
    if args.self_test:
        sys.exit(self_test())
    if args.workload is None:
        die("--workload is required", 2)
    cmd = generate(args.workload, args.seed) + [
        "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(SPANS_DIR, f"spans-{args.workload}.csv")]
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          + " ".join(cmd))
    found = harness(cmd)
    metrics = report(spec, found, args.trace)
    failed_checks = {k: v[1] for k, v in found["checks"].items() if v[1]}
    for name, n in sorted(failed_checks.items()):
        print(f"FAILED check {name}: {n} time(s)")
    attempted = max(1, found["attempted"])
    print(f"error_rate {found['failed'] / attempted:.6g} "
          f"({found['failed']} failed of {attempted} attempted)")
    print(json.dumps({"correct": found["failed"] == 0 and not failed_checks,
                      "attempted": attempted, "failed": found["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
