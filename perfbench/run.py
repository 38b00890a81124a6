#!/usr/bin/env python3
"""The repo benchmark: one command, three workloads, every output checked.

    python3 perfbench/run.py --workload campaign-wide --seed 6892 \
        --seconds 30 --trace 0

Run from the repository root. The first call configures and builds
perfbench/ (the simulator library from src/ plus the laecbench harness) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset;
later calls only rebuild what changed.

--trace 0 reports the end-to-end metrics: the medians over the passes one
laecbench process repeats for --seconds (default: BENCHMARK.json's
run_seconds), its peak RSS, the Table II error of the simulated paper
points, and setup_s, the median time from main() entry to the first workload
call over 100 fresh processes, half spawned before the timed run and half
after it. --trace 1 reports the per-layer metrics of a traced run and prints
the layer table, span self times and ledger before the result. Metric names
and units come from BENCHMARK.json.

Every pass's rows are checked against a reference: campaigns against the
simulate-everything path (prune and fast-forward off) run in a separate
process, sweep-fig8 against the committed digests of its program points and
a one-thread run of its seed-derived trace points. Rows that differ, fail a
kernel self-check or break LAEC <= Extra Stage <= Extra Cycle count in
"failed". References for the default seed are committed in
reference_rows.json; others are computed once per laecbench binary and
cached in the build dir under the binary's hash.

The last stdout line is the result: {"correct", "attempted", "failed",
"metrics"}. Without src/ next to perfbench/ the command exits with code 2.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("campaign-wide", "campaign-deep", "sweep-fig8")
REFERENCE_FILE = HERE / "reference_rows.json"
CATALOG = json.loads((ROOT / "BENCHMARK.json").read_text())
DEFAULT_SEED = 6892
SETUP_SPAWNS = 50  # fresh processes before and again after the timed run
CHILD_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure (once) and build laecbench; return its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found at {ROOT / 'src'}; "
             "run from a full checkout of the repository")
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    bdir = (target / "perfbench").resolve()
    if not (bdir / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run([cmake, "-S", str(HERE), "-B", str(bdir), *gen,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run([cmake, "--build", str(bdir), "-j", "4"],
                   stdout=sys.stderr, check=True)
    return bdir / "laecbench", bdir / "scratch"


def laecbench(exe, *args):
    """Run laecbench to completion; return (stdout lines before the JSON
    result, the JSON result)."""
    proc = subprocess.run([str(exe), *args], stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        fail(f"laecbench {' '.join(args)} exited with {proc.returncode}")
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def setup_samples(exe, workload, flags):
    """main() entry -> first workload call, in SETUP_SPAWNS fresh processes."""
    return [laecbench(exe, "setup", "--workload", workload, *flags)[1]
            ["setup_s"] for _ in range(SETUP_SPAWNS)]


def binary_hash(exe):
    return hashlib.sha256(Path(exe).read_bytes()).hexdigest()[:16]


def reference_rows(exe, workload, seed, flags, scratch, smoke):
    """Seed slot -> row index -> reference digest for this workload and
    seed."""
    committed = json.loads(REFERENCE_FILE.read_text())
    rows = {}
    if smoke:
        flags = [*flags, "--all-points"]
    else:
        slots = committed["workloads"][workload]
        if seed == committed["seed"]:
            return {slot: dict(enumerate(full))
                    for slot, full in enumerate(slots)}
        if workload == "sweep-fig8":
            # Program points are fault-free and seed-independent; only the
            # seed-derived trace points need a fresh reference.
            program = slots[0][:committed["sweep_program_points"]]
            rows = {0: dict(enumerate(program))}
    suffix = "-smoke" if smoke else ""
    key = f"{workload}-{seed}{suffix}-{binary_hash(exe)}"
    cache = scratch / f"reference-{key}.json"
    if cache.is_file():
        computed = json.loads(cache.read_text())
    else:
        _, result = laecbench(exe, "reference", "--workload", workload,
                              "--seed", str(seed), *flags)
        computed = result["rows"]
        cache.write_text(json.dumps(computed))
    for slot, index, digest in computed:
        rows.setdefault(slot, {})[index] = digest
    return rows


def record_reference(exe, flags):
    """Rewrite reference_rows.json: every row of every seed slot of every
    workload at the default seed, from the reference path."""
    out = {"seed": DEFAULT_SEED, "workloads": {}}
    for workload in WORKLOADS:
        _, result = laecbench(exe, "reference", "--workload", workload,
                              "--seed", str(DEFAULT_SEED), "--all-points",
                              *flags)
        slots = {}
        for slot, index, digest in sorted(result["rows"]):
            slots.setdefault(slot, []).append(digest)
        out["workloads"][workload] = [slots[s] for s in sorted(slots)]
        if workload == "sweep-fig8":
            out["sweep_program_points"] = result["program_points"]
    REFERENCE_FILE.write_text(json.dumps(out, indent=1) + "\n")


def check(reps, reference):
    """(attempted, failed): every row of every pass against the reference
    of its seed slot."""
    attempted = failed = 0
    for rep in reps:
        invalid = set(rep["invalid"])
        rows = rep["rows"]
        expected = reference.get(rep["slot"], {})
        n = max(len(rows), len(expected))
        attempted += n
        for i in range(n):
            if (i >= len(rows) or i in invalid or
                    expected.get(i) != rows[i]):
                failed += 1
    return attempted, failed


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float,
                    default=CATALOG["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny grids, references computed on the fly")
    ap.add_argument("--perturb-reference", action="store_true",
                    help="corrupt one reference digest (oracle self-test)")
    ap.add_argument("--record-reference", action="store_true",
                    help="rewrite reference_rows.json for the default seed")
    args = ap.parse_args()
    if args.workload is None and not args.record_reference:
        ap.error("--workload is required")

    exe, scratch = build()
    scratch.mkdir(parents=True, exist_ok=True)
    if args.record_reference:
        record_reference(exe, ["--scratch", str(scratch)])
        return
    flags = ["--scratch", str(scratch)] + (["--smoke"] if args.smoke else [])
    reference = reference_rows(exe, args.workload, args.seed, flags, scratch,
                               args.smoke)
    if args.perturb_reference:
        reference[0][0] = "perturbed-" + reference[0][0]

    metrics = {}
    if args.trace == 0:
        setup_s = setup_samples(exe, args.workload, flags)
    table, result = laecbench(
        exe, "run", "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *flags)
    attempted, failed = check(result["reps"], reference)

    if args.trace == 0:
        reps = result["reps"]
        values = {
            "trials_per_s": statistics.median(
                r["ops"] / r["wall_s"] for r in reps),
            "sim_cycles_per_s": statistics.median(
                r["sim_cycles"] / r["wall_s"] for r in reps),
            "cpu_s": statistics.median(r["cpu_s"] for r in reps),
            "peak_rss_mb": result["peak_rss_mb"],
            "table2_mae_pp": result["table2_mae_pp"],
            "setup_s": statistics.median(
                setup_s + setup_samples(exe, args.workload, flags)),
        }
        units = {m["name"]: m["unit"] for m in CATALOG["end_to_end"]}
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in values.items()}
        print(f"== {args.workload}: {len(reps)} passes, seed {args.seed} ==")
        for name, m in metrics.items():
            print(f"  {name:<20} {m['value']:>16.6g} {m['unit']}")
    else:
        metrics = result["per_layer"]
        for line in table:
            print(line)
    print(f"  rows checked {attempted}, failed {failed}")
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
