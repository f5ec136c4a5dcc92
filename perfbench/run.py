#!/usr/bin/env python3
"""Builds and runs the OPEC reproduction's benchmark.

One run:

    python3 perfbench/run.py --workload apps --seed 1 --seconds 20 --trace 0

builds `perfbench/` (a package of its own, path-depending on the
workspace crates) with `cargo build --release --offline` into
`$CARGO_TARGET_DIR` (default `.bench_build`), runs the benchmark binary
once, and passes its output through: the last line of standard output
is the result object.

The report runs every workload in two sets of runs with different seeds,
prints each metric of each set with its unit, median, quartiles and sample
count, and then how much the second set's median of each end-to-end
metric is worse than the first's, against the metric's bound:

    python3 perfbench/run.py --report [--runs 10] [--trace 1]

It exits non-zero if any run was not correct (a failed app check, a
moved pinned statistic, an unclean verdict) or did not finish.

Run from the root of the repository.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BIN = "opec-perfbench"
RUN_TIMEOUT_S = 170


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build():
    """Builds the benchmark binary; returns its path or exits 1."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: build failed: {e}")
    if r.returncode != 0:
        sys.exit(f"perfbench: build failed with exit code {r.returncode}")
    path = os.path.join(target_dir(), "release", BIN)
    if not os.path.isfile(path):
        sys.exit(f"perfbench: build produced no {path}")
    return path


def run_once(binary, workload, seed, seconds, trace):
    """Runs the binary once; returns (exit code, stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        cmd += ["--spans", os.path.join(target_dir(), f"perfbench-spans-{workload}.jsonl")]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} seed {seed} did not finish in {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, []
    return r.returncode, r.stdout.splitlines()


def parse_run(lines):
    """(result object, extra metrics) of one run's output."""
    result = json.loads(lines[-1]) if lines else None
    extra = {}
    for line in lines:
        if line.startswith("# extra "):
            extra = json.loads(line[len("# extra "):])
    return result, extra


def collect(binary, workload, seeds, seconds, trace):
    """Runs `workload` once per seed; returns ({metric: (unit, values)}, all correct)."""
    seen = {}
    ok = True
    for seed in seeds:
        code, lines = run_once(binary, workload, seed, seconds, trace)
        try:
            result, extra = parse_run(lines)
        except (ValueError, IndexError):
            result, extra = None, {}
        if code != 0 or not result or not result.get("correct"):
            print(f"{workload}: seed {seed}: NOT CORRECT (exit {code})")
            ok = False
            continue
        for name, m in list(result["metrics"].items()) + list(extra.items()):
            seen.setdefault(name, (m["unit"], []))[1].append(m["value"])
        seen.setdefault("error_rate", ("ratio", []))[1].append(
            result["failed"] / result["attempted"])
    return seen, ok


def print_table(seen, bounds):
    """Prints each metric's median, quartiles, n and spread; returns the medians."""
    print(f"{'metric':44} {'unit':6} {'median':>14} {'q1':>14} {'q3':>14} {'n':>3} {'iqr/med':>8}")
    medians = {}
    for name in sorted(seen):
        unit, vals = seen[name]
        if len(vals) >= 2:
            q1, med, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = med = q3 = vals[0]
        medians[name] = med
        rel = (q3 - q1) / med if med else 0.0
        flag = ""
        if name in bounds and rel > bounds[name]["bound"] / 3:
            flag = f"  > bound/3 ({bounds[name]['bound'] / 3:.3f})"
        print(f"{name:44} {unit:6} {med:14.6g} {q1:14.6g} {q3:14.6g} {len(vals):3} {rel:8.4f}{flag}")
    return medians


def report(binary, args, bench):
    """Two sets of `--runs` runs per workload (seeds 1..runs, then
    runs+1..2*runs): a table per set, then how much the second set's
    median of each end-to-end metric is worse than the first's, against
    the metric's bound. Returns False if any run was not correct."""
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    for w in (w["name"] for w in bench["workloads"]):
        medians = []
        for k in range(2):
            seeds = range(1 + k * args.runs, 1 + (k + 1) * args.runs)
            seen, correct = collect(binary, w, seeds, args.seconds, args.trace)
            ok = ok and correct
            print(f"\n== {w}, set {k + 1}: {args.runs} runs of {args.seconds} s, "
                  f"seeds {seeds[0]}..{seeds[-1]}{' (traced)' if args.trace else ''}")
            medians.append(print_table(seen, bounds) if seen else {})
        first, second = medians
        shared = [n for n in sorted(bounds) if n in first and n in second]
        if shared:
            print(f"\n== {w}: set 2 against set 1")
            print(f"{'metric':44} {'set 1':>14} {'set 2':>14} {'worse by':>9} {'bound':>6}")
        for name in shared:
            a, b = first[name], second[name]
            worse = ((b - a) if bounds[name]["better"] == "lower" else (a - b)) / a
            flag = "  > bound" if worse > bounds[name]["bound"] else ""
            print(f"{name:44} {a:14.6g} {b:14.6g} {worse:9.4f} {bounds[name]['bound']:6.2f}{flag}")
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--report", action="store_true", help="run every workload in two sets of --runs runs")
    p.add_argument("--runs", type=int, default=10)
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    binary = build()
    if args.report:
        args.trace = bool(args.trace)
        sys.exit(0 if report(binary, args, bench) else 1)
    if args.workload is None or args.seed is None:
        p.error("--workload and --seed are required (or use --report)")
    code, lines = run_once(binary, args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    sys.exit(code)


if __name__ == "__main__":
    main()
