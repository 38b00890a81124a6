#!/usr/bin/env python3
"""Measure the benchmark's baseline and run-to-run spread.

    python3 perfbench/baseline.py [--runs 10] [--workload NAME ...]

Run from the repository root. For each workload, runs
`run.py --trace 0` (BENCHMARK.json's run_seconds) --runs times, each with
another seed (1, 2, ...), and updates perfbench/baseline.json: the default
seed, the workloads reporting each metric, and per (workload, metric) the
median, quartiles and spread (IQR / median, as statistics.quantiles(n=4)
gives the quartiles) of the values. Names, units, directions and bounds stay
in BENCHMARK.json. Exits non-zero when a run is incorrect or any spread,
setup_s's included, reaches a third of its metric's bound.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import CATALOG, DEFAULT_SEED  # noqa: E402


def main():
    names = [w["name"] for w in CATALOG["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append", choices=names)
    args = ap.parse_args()
    seeds = list(range(1, args.runs + 1))
    bounds = {m["name"]: m["bound"] for m in CATALOG["end_to_end"]}

    steady = True
    path = HERE / "baseline.json"
    baseline = {}
    if path.is_file():  # keep the workloads this call does not re-measure
        baseline = json.loads(path.read_text())["baseline"]
    for workload in args.workload or names:
        values = {}
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            print(workload, seed, json.dumps(result), flush=True)
            steady &= result["correct"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        baseline[workload] = {}
        for name, v in values.items():
            q1, _, q3 = statistics.quantiles(v, n=4)
            median = statistics.median(v)
            spread = (q3 - q1) / median if median else 0.0
            baseline[workload][name] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread,
                "values": v}
            ok = spread < bounds[name] / 3
            steady &= ok
            print(f"  {workload:<14} {name:<18} median {median:<14.6g} "
                  f"spread {spread:.4f}{'' if ok else '  > bound/3'}")

    out = {
        "default_seed": DEFAULT_SEED,
        "seeds": seeds,
        "metric_workloads": {
            m["name"]: names
            for m in CATALOG["end_to_end"] + CATALOG["per_layer"]},
        "baseline": {w: baseline[w] for w in names if w in baseline},
    }
    path.write_text(json.dumps(out, indent=1) + "\n")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
