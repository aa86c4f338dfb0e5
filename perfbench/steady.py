#!/usr/bin/env python3
"""Steadiness check: runs every workload N times, alternating workloads.

    python3 perfbench/steady.py --runs 10 [--seed N] [--workloads hier-day,bf-ml]
                                [--save runs.json] [--against earlier.json]

Without --seed, run i uses seed i + 1, so the spread mixes run-to-run
noise with the differences between the seeds' workloads. With --seed,
every run uses that seed and the spread is run-to-run noise alone. For
each metric it prints the median, the quartiles (statistics.quantiles,
n=4) and the spread (q3 - q1) / median against the metric's bound in
BENCHMARK.json, plus the share of failed ticks. --save keeps the raw
results; --against compares this set's medians with a saved set's,
against the same bounds.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}")
    return json.loads(lines[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--save")
    ap.add_argument("--against")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    results = {w: [] for w in names}
    for i in range(args.runs):
        for w in names:
            seed = i + 1 if args.seed is None else args.seed
            res = run_once(w, seed, spec["run_seconds"])
            results[w].append(res)
            print(f"run {i + 1}/{args.runs} {w}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']}", file=sys.stderr)
    if args.save:
        pathlib.Path(args.save).write_text(json.dumps(results))
    earlier = json.loads(pathlib.Path(args.against).read_text()) if args.against else {}

    worst = 0.0
    for w in names:
        runs = results[w]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"\n{w}: {len(runs)} runs, all correct: {all(r['correct'] for r in runs)}, "
              f"failed share(s): {shares}")
        print(f"  {'metric':40} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}"
              + ("  vs saved" if earlier else ""))
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3, spread = summary(values)
            bound = bounds.get(name)
            line = f"  {name:40} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.2%}"
            line += f" {bound:6.2f}" if bound is not None else f" {'-':>6}"
            if bound is not None:
                worst = max(worst, spread / bound)
            if w in earlier:
                old = statistics.median(r["metrics"][name]["value"] for r in earlier[w])
                line += f"  {(med - old) / old:+.2%}" if old else "  n/a"
            print(line)
    if any(bounds.values()):
        print(f"\nlargest spread / bound: {worst:.2f}")


if __name__ == "__main__":
    main()
