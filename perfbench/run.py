#!/usr/bin/env python3
"""Builds the engine and the benchmark program, runs a workload, prints metrics.

    python3 perfbench/run.py --workload hot_read|served_mix \
        --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to .bench_build/perfbench;
each run's full record (environment stamp, exact counts, sample counts,
ladder steps, metrics) goes to .bench_build/results/. The last line of
standard output is one JSON object: correct, attempted, failed and metrics,
where metrics holds every end_to_end metric of BENCHMARK.json (--trace 0)
or every per_layer metric (--trace 1), each with its unit.

Exit status: 0 when the run was made and every answer was right; 1 on a
wrong answer (the result line then carries no metric); 2 when the run
could not be made (no result line).
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import subprocess
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
RESULTS_DIR = os.path.join(BUILD_ROOT, "results")
BINARY = os.path.join(BUILD_DIR, "objrep_perfbench")
RUN_TIMEOUT_S = 170
# Spans that bracket the measured window; only spans starting inside it
# count toward self times (the probes after it record spans too).
WINDOW_SPANS = ("bench_window", "bench_phase")
# Program spans whose mean self time is reported, by metric name.
SELF_TIME_METRICS = {
    "span.retrieve.self_us": "retrieve",
    "span.update.self_us": "update",
    "span.net_request.self_us": "net_request",
    "span.bench_request.self_us": "bench_request",
    "storage.wal.commit_us": "wal_commit",
}


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build():
    """Configures (once) and builds the program; holds a lock so concurrent
    runs in one checkout do not build over each other."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                      "--target", "objrep_perfbench"])
        for cmd in steps:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if r.returncode != 0:
                fail("build failed: " + " ".join(cmd))


def source_digest():
    """SHA-256 over the engine and benchmark sources: identifies the code
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def span_self_times(trace_path):
    """Mean self time (microseconds) per span name, over the spans that
    start inside the measured window. A span's parent is the innermost span
    enclosing it on the same thread; a span with no such parent whose trace
    id matches a generator request belongs to that request (the server
    handles it on another thread). Self time is the span's duration minus
    its children's."""
    events = [e for e in load_json(trace_path) if e.get("ph") == "X"]
    windows = [e for e in events if e["name"] in WINDOW_SPANS]
    if len(windows) != 1:
        fail(f"expected one window span in {trace_path}, found {len(windows)}")
    w0 = windows[0]["ts"]
    w1 = w0 + windows[0]["dur"]
    spans = [e for e in events
             if w0 <= e["ts"] <= w1 and e["name"] not in WINDOW_SPANS]
    requests = {e["trace"]: e for e in spans
                if e["name"] == "bench_request" and "trace" in e}
    children = defaultdict(int)
    by_tid = defaultdict(list)
    for e in spans:
        # Generator requests overlap on their receiver thread (they are
        # pipelined); they are parents only through their trace id.
        if e["name"] != "bench_request":
            by_tid[e["tid"]].append(e)
    for tid_spans in by_tid.values():
        tid_spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []
        for e in tid_spans:
            end = e["ts"] + e["dur"]
            while stack and stack[-1]["ts"] + stack[-1]["dur"] < end:
                stack.pop()
            parent = stack[-1] if stack else requests.get(e.get("trace"))
            if parent is not None:
                children[id(parent)] += e["dur"]
            stack.append(e)
    total = defaultdict(float)
    count = defaultdict(int)
    for e in spans:
        total[e["name"]] += max(0, e["dur"] - children[id(e)])
        count[e["name"]] += 1
    return {name: total[name] / count[name] for name in count}, count


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    layers = load_json(os.path.join(HERE, "layers.json"))
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload}; expected one of {workloads}")
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]

    build()
    os.makedirs(RESULTS_DIR, exist_ok=True)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    trace_path = os.path.join(RESULTS_DIR, f"{tag}.trace.json")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--trace-out", trace_path]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(r.stderr)
    details, result = [], None
    for line in r.stdout.splitlines():
        kind, _, body = line.partition(" ")
        if kind == "detail":
            details.append(json.loads(body))
        elif kind == "result":
            result = json.loads(body)
    if result is None or r.returncode not in (0, 1):
        fail(f"objrep_perfbench exited with {r.returncode} and no result")

    stamp = {
        "git_sha": git_sha() or "none (checkout is not a git repository)",
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    stamp.update(details.pop(0))  # build type, compiler, device, seed
    record = {"stamp": stamp, "details": details, "values": result["values"]}

    metrics = {}
    if result["correct"]:
        values = dict(result["values"])
        if args.trace:
            self_us, counts = span_self_times(trace_path)
            record["span_counts"] = counts
            for name, span in SELF_TIME_METRICS.items():
                if span in self_us:
                    values[name] = self_us[span]
        for m in declared:
            name = m["name"]
            if name in values:
                v = values[name]
            elif args.trace and args.workload not in \
                    layers["metrics"][name]["measured_on"]:
                v = 0.0  # the layer does not run in this workload
            else:
                fail(f"metric {name} was not measured")
            if not isinstance(v, (int, float)) or not math.isfinite(v):
                fail(f"metric {name} is not a number: {v}")
            if not args.trace and v <= 0:
                fail(f"end-to-end metric {name} is {v}, expected > 0")
            metrics[name] = {"value": v, "unit": m["unit"]}
    else:
        record["error"] = result.get("error", "")
        print(f"perfbench: WRONG ANSWER: {record['error']}", file=sys.stderr)

    out = {"correct": bool(result["correct"]),
           "attempted": int(result["attempted"]),
           "failed": int(result["failed"]),
           "metrics": metrics}
    record["result"] = out
    with open(os.path.join(RESULTS_DIR, f"{tag}.json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print("stamp " + json.dumps(stamp, sort_keys=True))
    for d in details:
        print("detail " + json.dumps(d, sort_keys=True))
    print(json.dumps(out))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
