#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench) for one workload.

    python3 perfbench/run.py --workload fig_grid --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. It builds perfbench/ (which compiles the
simulator libraries from src/) in Release mode under $CARGO_TARGET_DIR
(default .bench_build), runs one workload, and prints the result as the
last line of stdout:

    {"correct": true, "attempted": 30, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. Result, provenance and span files go
to .bench_out/. The exit status is not 0, and no result is printed, when the
build or the run fails or the result does not match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DEADLINE_S = 175.0  # a run must end within 180 s (900 s when it builds)
BUILD_DEADLINE_S = 840.0


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configure (first time) and build; returns the binary path or None."""
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", "2"])
    for cmd in steps:
        try:
            res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                 stderr=subprocess.STDOUT, text=True,
                                 timeout=BUILD_DEADLINE_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build step failed: {e}")
            return None
        if res.returncode != 0:
            sys.stderr.write(res.stdout[-4000:])
            log(f"build failed: {' '.join(cmd)}")
            return None
    binary = out / "perfbench"
    return binary if binary.exists() else None


def describe():
    try:
        res = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"],
                             cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True, timeout=10)
        if res.returncode == 0 and res.stdout.strip():
            return res.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "not-a-git-checkout"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    start = time.monotonic()
    try:
        want = expected_metrics(args.trace)
    except (OSError, ValueError, KeyError) as e:
        log(f"cannot read BENCHMARK.json: {e}")
        return 2
    build_start = time.monotonic()
    binary = build()
    build_s = time.monotonic() - build_start
    if binary is None:
        return 1
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--digests", str(BENCH_DIR / "digests.json"),
           "--out-dir", str(out_dir), "--describe", describe()]
    # The build may take long on the first run in a checkout; the 180 s limit
    # applies to everything else.
    budget = DEADLINE_S - (time.monotonic() - start - build_s)
    try:
        res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=budget)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {budget:.0f} s; stopped")
        return 1
    lines = res.stdout.rstrip("\n").split("\n")
    if res.returncode != 0 or not lines:
        sys.stdout.write(res.stdout)
        log(f"perfbench exited with {res.returncode}")
        return res.returncode or 1
    try:
        result = json.loads(lines[-1])
        got = set(result["metrics"])
    except (ValueError, KeyError, TypeError):
        sys.stdout.write(res.stdout)
        log("last line is not a result object")
        return 1
    if got != want:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        log(f"metric set differs from BENCHMARK.json: missing {sorted(want - got)}, "
            f"extra {sorted(got - want)}")
        return 1
    sys.stdout.write(res.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
