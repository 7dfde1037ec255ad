#!/usr/bin/env python3
"""Steadiness check for perfbench: interleaved runs, median and IQR per metric.

    python3 perfbench/steadiness.py --runs 10 [--workloads fig_grid,fuzz_certify]
                                    [--first-seed 101] [--json out.json]

Runs `python3 perfbench/run.py` --runs times for every workload, workloads
interleaved within each round and a fresh seed per round, then prints, for
every end-to-end metric of BENCHMARK.json, the median, the quartiles (as
Python's statistics.quantiles(n=4) gives them) and the IQR as a share of the
median, next to the metric's bound. A spread above a third of its bound is
flagged (setup_s excepted, as the acceptance rule excludes it). Run it from
the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if res.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {res.returncode}\n{res.stdout}")
    result = json.loads(res.stdout.strip().split("\n")[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output\n{res.stdout}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--json", help="also write the raw values here")
    args = ap.parse_args()
    workloads = args.workloads.split(",")

    values = {w: {} for w in workloads}
    for r in range(args.runs):
        for w in workloads:
            for k, v in run_once(w, args.first_seed + r, spec["run_seconds"]).items():
                values[w].setdefault(k, []).append(v)
            print(f"round {r + 1}/{args.runs} {w} done", file=sys.stderr, flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    ok = True
    print("| workload | metric | median | q1 | q3 | IQR/median | bound |")
    print("|---|---|---|---|---|---|---|")
    for w in workloads:
        for name in bounds:
            v = values[w][name]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if name != "setup_s" and spread > bounds[name] / 3:
                flag = " (above bound/3)"
                ok = False
            print(f"| {w} | {name} [{units[name]}] | {med:.4g} | {q1:.4g} | {q3:.4g} "
                  f"| {spread:.3f}{flag} | {bounds[name]} |")
    if args.json:
        Path(args.json).write_text(json.dumps(values, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
