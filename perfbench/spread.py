#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload compare-crash --seeds 1-10 [--seconds 20]

For every metric it prints the median, the first and third quartiles
(`statistics.quantiles(values, n=4)`) and the quartile distance as a share of
the median, next to the metric's bound from BENCHMARK.json.  Runs go one after
another in child processes, each from the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--seconds", type=int, default=None)
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    for workload in args.workload:
        results = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            results.append(res)
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}", file=sys.stderr)
        print(f"\n{workload} ({len(results)} seeds, {seconds} s runs)")
        print(f"{'metric':<40} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}")
        for name in results[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in results]
            q1, _q2, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            share = (q3 - q1) / abs(med) if med else float("nan")
            bound = bounds.get(name)
            print(f"{name:<40} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {share:>8.2%} "
                  f"{'' if bound is None else bound:>6}")
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"failed share per run: {sorted(shares)}; all correct: "
              f"{all(r['correct'] for r in results)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
