#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each end-to-end
metric's median and quartile spread against its bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload <name> [--seeds 10] [--first-seed 1]

Run from the repository root. The spread is (Q3 - Q1) / median over the
runs, with quartiles as statistics.quantiles(values, n=4) gives them; a
metric is steady when its spread stays below a third of its bound
(setup_s is exempt from the spread check). A run that fails or reports a
wrong answer is listed and left out of the spreads; the script then exits 1.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    values = {}
    failed = []
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]),
            "--trace", "0",
        ]
        run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if run.returncode != 0:
            wrong = [l for l in run.stderr.splitlines() if l.startswith("wrong answer")]
            print(f"seed {seed}: exit {run.returncode}; " + "; ".join(wrong[:1]), flush=True)
            failed.append(seed)
            continue
        result = json.loads(run.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        stolen = re.search(r"stolen during the timed loop: ([0-9.]+)%", run.stdout)
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            + (f", stolen={stolen.group(1)}%" if stolen else ""), flush=True)
    if len(values.get("setup_s", [])) < 2:
        print("fewer than two runs succeeded")
        return 1
    print(f"\n{args.workload}: {args.seeds} seeds, failed: {failed or 'none'}")
    print(f"{'metric':<16} {'median':>12} {'spread':>8} {'bound':>6}  verdict")
    for m in bench["end_to_end"]:
        vals = values[m["name"]]
        s = spread(vals)
        if m["name"] == "setup_s":
            verdict = "exempt"
        elif s < m["bound"] / 3:
            verdict = "steady"
        elif s <= m["bound"]:
            verdict = "within bound"
        else:
            verdict = "UNSTEADY"
        print(f"{m['name']:<16} {statistics.median(vals):>12.5g} {s:>8.4f} "
              f"{m['bound']:>6}  {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
