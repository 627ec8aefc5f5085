#!/usr/bin/env python3
"""A/A self-test: the benchmark against itself, on one build.

Run from the repository root:

    python3 benchmark/aa.py [--runs 10] [--workload NAME ...] [--out FILE]

For every workload it makes two sets of `--runs` untraced runs, each run
with another `--seed`, exactly as `BENCHMARK.json` says to run them. For
every end-to-end metric it takes, per set, the median and the spread
(distance between the first and third quartile as a share of the median),
and fails if

  * a spread, except that of `setup_s`, exceeds the metric's bound, or
  * the second set's median is worse than the first's by more than the bound.

It then makes two traced runs per workload at the default seed and fails
if a count-type per-layer metric differs between them. The table it
prints is the one recorded in README.md.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seconds", str(seconds), "--trace", str(trace)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    started = time.time()
    done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"{' '.join(argv)}\nexit code {done.returncode}\n{done.stdout}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
    return {k: v["value"] for k, v in result["metrics"].items()}, time.time() - started


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first, second, better):
    """Share of `first` by which `second` is worse; negative when it is better."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out", help="write every run's metrics here as JSON")
    args = parser.parse_args()

    spec = json.load(open("BENCHMARK.json"))
    names = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "B")]
    record = {}
    failures = []

    print("| workload | metric | median A | spread A | median B | spread B | B worse by | bound |")
    print("|---|---|---|---|---|---|---|---|")
    for name in names:
        sets = []
        for first_seed in (1, 1 + args.runs):
            runs = []
            for seed in range(first_seed, first_seed + args.runs):
                metrics, wall = run(spec["command"], name, seed, seconds, 0)
                metrics["wall_s"] = wall
                runs.append(metrics)
            sets.append(runs)
        record[name] = {"untraced": sets}
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            a, b = ([r[key] for r in runs] for runs in sets)
            shift = worse_by(statistics.median(a), statistics.median(b), metric["better"])
            print(
                f"| {name} | {key} | {statistics.median(a):.6g} | {spread(a):.2%} "
                f"| {statistics.median(b):.6g} | {spread(b):.2%} | {shift:+.2%} | {bound:.0%} |",
                flush=True,
            )
            if key != "setup_s" and max(spread(a), spread(b)) > bound:
                failures.append(f"{name} {key}: spread {max(spread(a), spread(b)):.2%} > {bound:.0%}")
            if shift > bound:
                failures.append(f"{name} {key}: second median worse by {shift:.2%} > {bound:.0%}")

    print()
    for name in names:
        traced = [run(spec["command"], name, None, seconds, 1) for _ in range(2)]
        record[name]["traced"] = [{**m, "wall_s": wall} for m, wall in traced]
        (a, _), (b, _) = traced
        moved = [c for c in counts if a[c] != b[c]]
        print(f"{name}: {len(counts) - len(moved)} of {len(counts)} count metrics identical", flush=True)
        failures += [f"{name} {c}: {a[c]} then {b[c]}" for c in moved]

    if args.out:
        json.dump(record, open(args.out, "w"), indent=1)
    for failure in failures:
        print("FAILED", failure)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
