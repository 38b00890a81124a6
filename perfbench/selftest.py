#!/usr/bin/env python3
"""Self-test of the repo benchmark on tiny grids (about ten seconds).

    python3 perfbench/selftest.py

Run from the repository root. For every workload, in --smoke mode:
  * --trace 0 and --trace 1 print a last line with exactly the keys
    correct/attempted/failed/metrics, pass every row check, and emit every
    metric BENCHMARK.json catalogues (end_to_end, per_layer) with its unit;
  * a deliberately perturbed reference digest is counted in "failed", which
    proves the oracle catches a mismatching row.
Finally, a copy holding only BENCHMARK.json and perfbench/ must exit non-zero
without printing a result. Exits non-zero on the first failed expectation.
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402  (campaign-deep too, ungated)

CATALOG = json.loads((ROOT / "BENCHMARK.json").read_text())


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        sys.exit(1)


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=300)
    return proc.returncode, proc.stdout.splitlines()


def result_of(workload, *flags):
    code, lines = bench("--workload", workload, "--seed", "7", "--seconds",
                        "0", "--smoke", *flags)
    expect(code == 0 and lines, f"{workload} {' '.join(flags)}: exit 0")
    return json.loads(lines[-1])


def check_metrics(workload, result, catalog_key):
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{workload} {catalog_key}: result keys")
    expect(result["correct"] and result["failed"] == 0 and
           result["attempted"] >= 1,
           f"{workload} {catalog_key}: every row checked and correct")
    want = {m["name"]: m["unit"] for m in CATALOG[catalog_key]}
    got = result["metrics"]
    expect(set(got) == set(want),
           f"{workload} {catalog_key}: every catalogued metric emitted")
    bad = [name for name, m in got.items()
           if m["unit"] != want[name] or not math.isfinite(m["value"])]
    expect(not bad, f"{workload} {catalog_key}: units and values ({bad})")


def main():
    for workload in WORKLOADS:
        check_metrics(workload, result_of(workload, "--trace", "0"),
                      "end_to_end")
        check_metrics(workload, result_of(workload, "--trace", "1"),
                      "per_layer")
        perturbed = result_of(workload, "--trace", "0", "--perturb-reference")
        expect(not perturbed["correct"] and perturbed["failed"] >= 1,
               f"{workload}: perturbed reference digest counted in failed")

    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench("--workload", WORKLOADS[0], "--seed", "1",
                        "--seconds", "1", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    expect(code != 0 and not any(l.startswith("{") for l in lines),
           "without src/: non-zero exit and no result")


if __name__ == "__main__":
    main()
