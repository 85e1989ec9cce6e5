#!/usr/bin/env python3
"""Run the benchmark over several seeds and print each metric's spread.

    python3 benchmark/spread.py [--runs 10] [--trace 0] [--workload NAME] [--first-seed 1]

Run from the repository root. For every workload in BENCHMARK.json the
command is run once per seed; per metric the script prints the median of
the runs and the distance between their first and third quartile
(statistics.quantiles, n=4) as a share of that median, next to the metric's
bound. This is the check the driver applies before it accepts the benchmark.
"""
import argparse
import json
import statistics
import subprocess
import sys

ap = argparse.ArgumentParser()
ap.add_argument("--runs", type=int, default=10)
ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
ap.add_argument("--workload", action="append")
ap.add_argument("--first-seed", type=int, default=1)
args = ap.parse_args()

spec = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
names = args.workload or [w["name"] for w in spec["workloads"]]
worst = 0.0
for name in names:
    values = {}
    for i in range(args.runs):
        cmd = spec["command"] + [
            "--workload", name,
            "--seed", str(args.first_seed + i),
            "--seconds", str(spec["run_seconds"]),
            "--trace", str(args.trace),
        ]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if out.returncode != 0:
            sys.exit(f"{name} seed {args.first_seed + i}: exit code {out.returncode}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"{name} seed {args.first_seed + i}: {result['failed']} failed ops")
        for metric, v in result["metrics"].items():
            values.setdefault(metric, []).append(v["value"])
    print(f"{name}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
    for metric, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / abs(med) if med else float("nan")
        line = f"  {metric:<40} median {med:>16.6g}  iqr/median {spread * 100:6.2f} %"
        if metric in bounds:
            line += f"  bound {bounds[metric] * 100:4.0f} %"
            if metric != "setup_s":
                worst = max(worst, spread / bounds[metric])
        print(line, flush=True)
if args.trace == 0:
    print(f"worst spread is {worst:.2f} of its bound (accepted up to 1, aim below 0.33)")
