#!/usr/bin/env python3
"""Spread report: run one workload repeatedly and print each end-to-end
metric's median and quartiles.

Run from the repository root:

    python3 perfbench/spread.py --workload serve-edit --runs 10 --first-seed 1

Each run uses the next seed. For every metric the report gives the median,
the first and third quartiles (statistics.quantiles with n=4) and the
spread, (q3 - q1) / median, next to the metric's bound in BENCHMARK.json.
A spread at or above a third of its bound is flagged, except for setup_s,
whose bound limits only the change of its median. The deterministic
metrics must repeat exactly. The exit status is 1 when any run fails its
output checks or a deterministic metric varies.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

DETERMINISTIC = ("exe_bytes", "assay_cycles")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    here = os.path.dirname(os.path.abspath(__file__))
    values = {}
    ok = True
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = [sys.executable, os.path.join(here, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        res = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if proc.returncode != 0 or res is None or not res["correct"]:
            ok = False
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
            continue
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())),
              flush=True)

    print(f"\n{args.workload}: {len(values.get('setup_s', []))} runs of {seconds}s")
    print(f"{'metric':<14} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for m in bench["end_to_end"]:
        xs = values.get(m["name"], [])
        if len(xs) < 2:
            continue
        q1, med, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        flag = ""
        if m["name"] in DETERMINISTIC and len(set(xs)) != 1:
            flag, ok = "VARIES", False
        elif m["name"] != "setup_s" and spread >= m["bound"] / 3:
            flag = "WIDE"
        print(f"{m['name']:<14} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} {m['bound']:>6} {flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
