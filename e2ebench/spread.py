#!/usr/bin/env python3
"""Runs the benchmark untraced on seeds 1..runs and prints each metric's
spread.

The spread is the distance between the first and third quartile of the
runs' values, as statistics.quantiles(values, n=4) gives them, as a share
of their median. Run from the repository root:

    python3 e2ebench/spread.py --workloads noc_full,serve_zipf --runs 10
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="matrix_quick,noc_full,serve_zipf")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=12)
    args = ap.parse_args()
    for wl in args.workloads.split(","):
        vals = {}
        for seed in range(1, args.runs + 1):
            out = subprocess.run(
                ["bash", "e2ebench/run.sh", "--workload", wl, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True)
            res = json.loads(out.stdout.strip().splitlines()[-1])
            print(f"{wl} seed={seed} correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']}", file=sys.stderr)
            for name, m in res["metrics"].items():
                vals.setdefault(name, []).append(m["value"])
        for name, vs in sorted(vals.items()):
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
            spread = (q[2] - q[0]) / med if med else float("nan")
            print(f"{wl:13s} {name:26s} median={med:<14.6g} spread={spread:.4f} "
                  f"values={' '.join(f'{v:.4g}' for v in vs)}")


if __name__ == "__main__":
    main()
