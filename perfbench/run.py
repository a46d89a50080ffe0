#!/usr/bin/env python3
"""Repository benchmark entry point (see perfbench/README.md).

Builds perfbench/pacbench from the simulator sources in ../src, runs one
workload (or all of them) and prints every metric by name with its unit.
The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1)
named in BENCHMARK.json. Exits 1 when a correctness gate fails and 2 when the
benchmark cannot be built or run.

    python3 perfbench/run.py                        # all workloads, seed 42
    python3 perfbench/run.py --workload paper-pac --seed 7 --seconds 20 --trace 1
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-pac", "bfs-direct", "fabric-faults")
DEFAULT_SEED = 42    # the figure benches' workload seed
HELD_OUT_SEED = 7    # re-check gain claims here; never tune on it
RUN_TIMEOUT_S = 170  # one workload run, after the build


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then build incrementally; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                       "perfbench")
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", out, "--target", "pacbench", "-j", "4"]]
    if os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "pacbench"), os.path.join(out, "reports")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(binary, reports, workload, seed, seconds, trace):
    """Run one workload; returns (exit code, table lines, result object)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", reports]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, [], {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"{workload}: pacbench exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if result["correct"]:
        got = sorted(result["metrics"])
        want = sorted(declared_metrics(trace))
        if got != want:
            fail(f"{workload}: metrics {got} do not match BENCHMARK.json {want}")
    return proc.returncode, lines[:-1], result


def main():
    # SIGTERM becomes SystemExit, so subprocess.run kills and reaps pacbench.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=None,
                    help="measuring budget per workload (BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            args.seconds = json.load(f)["run_seconds"]

    binary, reports = build()
    if args.workload != "all":
        code, table, result = run_workload(binary, reports, args.workload,
                                           args.seed, args.seconds, args.trace)
        print("\n".join(table))
        print(json.dumps(result))
        return code

    # Every workload in its own process, so peak RSS is its own.
    code, combined = 0, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        rc, table, result = run_workload(binary, reports, workload, args.seed,
                                         args.seconds, args.trace)
        print("\n".join(table), flush=True)
        code = max(code, rc)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return code


if __name__ == "__main__":
    sys.exit(main())
