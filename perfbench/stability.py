#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each end-to-end
metric's spread against its bound.

    python3 perfbench/stability.py [--seeds 10] [--first-seed 1] \
        [--workloads hot_read,served_mix] [--out FILE]

For every workload, runs perfbench/run.py once per seed (sequentially, with
BENCHMARK.json's run_seconds), then prints per metric the median, the
interquartile range as a share of the median (statistics.quantiles, n=4)
and whether it stays under a third of the metric's bound. --out saves the
raw values as JSON; --compare FILE reads such a file from an earlier set
and reports how far each median moved, against the bound. Exits non-zero
if a run fails or a spread (setup_s aside) exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    t0 = time.monotonic()
    r = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    elapsed = time.monotonic() - t0
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {r.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: wrong answer")
    return {k: v["value"] for k, v in result["metrics"].items()}, elapsed


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--out")
    ap.add_argument("--compare")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    earlier = json.load(open(args.compare)) if args.compare else {}
    raw = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            values, elapsed = run_once(workload, seed, bench["run_seconds"])
            runs.append(values)
            print(f"{workload} seed {seed}: {elapsed:.1f} s", flush=True)
        raw[workload] = runs
        print(f"\n{workload}: metric, median, IQR/median, bound/3, ok"
              + (", median shift vs earlier" if earlier else ""))
        for name, bound in bounds.items():
            med, rel = spread([r[name] for r in runs])
            steady = rel < bound / 3
            if name != "setup_s" and rel > bound:
                ok = False
            line = (f"  {name:18s} {med:14.6g} {rel:8.4f} {bound / 3:8.4f} "
                    f"{'yes' if steady else 'NO'}")
            if workload in earlier:
                old = statistics.median(r[name] for r in earlier[workload])
                new = statistics.median(r[name] for r in runs)
                shift = abs(new - old) / old
                line += f"  {shift:8.4f}{'' if shift <= bound else ' OVER'}"
                ok = ok and shift <= bound
            print(line, flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(raw, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
