#!/usr/bin/env python3
"""Run one workload once per seed and report each end-to-end metric's
median and run-to-run spread: (Q3 - Q1) / median over the runs, with the
quartiles of statistics.quantiles(n=4), next to the metric's bound.

    python3 bench/spread.py --workload equiconv --seeds 1-10

Run from the repository root.  Each run is a separate process, one at a
time, with the run length from BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from measure import relative_iqr

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        print(f"seed {seed}: {wall:.1f} s, correct={result['correct']}, "
              + ", ".join(f"{n}={m['value']:.4g}"
                          for n, m in result["metrics"].items()),
              flush=True)
    if len(args.seeds) < 2:
        return 0
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        print(f"{m['name']:<16} median {statistics.median(vals):<12.5g} "
              f"spread {relative_iqr(vals):.3f}  bound {m['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
