#!/usr/bin/env python3
"""Runs one workload k times with consecutive seeds and prints, for each
metric, the median, the quartiles and the spread (interquartile distance as
a share of the median) next to the metric's bound in BENCHMARK.json.

Run from the root of the repository:

    python3 perfbench/repeat.py --workload plan-c1 -k 10 [--first-seed 1] [--trace 0]

Quartiles follow statistics.quantiles(values, n=4). A spread above a third
of the bound is flagged: the benchmark aims to keep every spread below it.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("-k", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    run = [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")]

    results = []
    for seed in range(args.first_seed, args.first_seed + args.k):
        cmd = run + ["--workload", args.workload, "--seed", str(seed),
                     "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
        started = time.monotonic()
        out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        elapsed = time.monotonic() - started
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit code {out.returncode}")
        result = json.loads(lines[-1])
        results.append(result)
        print(f"seed {seed} ({elapsed:.0f} s): correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " +
              " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    print(f"\n{args.workload}, {len(results)} runs")
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"failed share per run: {', '.join(f'{s:.6f}' for s in shares)}"
          f"{'' if len(shares) == 1 else '  (NOT constant)'}")
    print(f"all correct: {all(r['correct'] for r in results)}")
    print(f"{'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "WIDE")
        print(f"{name:28} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} "
              f"{'' if bound is None else bound:>6} {flag}")


if __name__ == "__main__":
    main()
