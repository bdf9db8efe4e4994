"""Record a BENCH_<N>.json file: benchmark medians, one traced run per
workload and the full-range scan wall time, for one or more checkouts.

    python3 scripts/record_bench.py --number N \\
        [--checkout parent=/path/to/parent/checkout --checkout change=.] \\
        [--seeds 0,1,2,3,4,5,6,7,8,9] [--seconds 10] [--no-full-range]

Every checkout runs its own ``perfbench/run.py`` on its own ``src/``.  For
each workload the runs are paired seed by seed, every checkout once per
seed, in an order that alternates from seed to seed, so that a drift of the
host hits all of them alike; the default seeds 0-9 give ten such pairs.
The file keeps every run's end-to-end metrics with their medians and
quartiles, and compares each checkout after the first with the first: the
ratio of the medians and in how many paired seeds it is better, in the
direction that ``BENCHMARK.json`` gives.  Each checkout then makes one
``--trace 1`` run per workload (seed 0, one unit) for the per-layer
metrics, and one full-range ``pweil scan`` whose wall time and stdout
sha256 are recorded.  Each checkout entry also holds ``src_lines``, the
line total of its ``src/pweil/*.py``.  Nothing here is a gate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("scan-grid", "analyze-hard", "certify")
FULL_RANGE_ARGV = ["scan", "--n-range", "3,4,5,7,8,9,11,12,13,15,16,17,19,20",
                   "--p-max", "999", "--workers", "2"]


def _describe(checkout: str) -> str:
    try:
        return subprocess.run(["git", "-C", checkout, "describe", "--always", "--dirty"],
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_bench(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run: its host line and its result line."""
    argv = [sys.executable, os.path.join(checkout, "perfbench", "run.py"), "--workload",
            workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError("%s exited %d: %s" % (" ".join(argv), proc.returncode, proc.stderr))
    result = json.loads(lines[-1])
    result["host"] = json.loads(lines[-2])["host"]
    return result


def full_range_scan(checkout: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pweil"] + FULL_RANGE_ARGV, cwd=checkout,
                          env=env, capture_output=True)
    wall = time.perf_counter() - t0
    digest = hashlib.sha256(proc.stdout).hexdigest()
    recorded = None
    path = os.path.join(checkout, "tests", "full_range.sha256")
    if os.path.exists(path):
        with open(path) as fh:
            recorded = fh.read().split()[0]
    return {"argv": FULL_RANGE_ARGV, "wall_s": round(wall, 2), "exit": proc.returncode,
            "sha256": digest, "matches_recorded": digest == recorded}


def src_lines(checkout: str) -> int:
    """The line total of the checkout's ``src/pweil/*.py``, as ``wc -l`` counts."""
    package = os.path.join(checkout, "src", "pweil")
    total = 0
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                total += fh.read().count(b"\n")
    return total


def _summary(values: list) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--number", type=int, required=True, help="N of BENCH_<N>.json")
    ap.add_argument("--checkout", action="append", metavar="LABEL=DIR",
                    help="a checkout to measure; the others are compared with the first "
                         "(default: change=the checkout of this script)")
    ap.add_argument("--seeds", default="0,1,2,3,4,5,6,7,8,9")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--no-full-range", action="store_true")
    args = ap.parse_args(argv)

    checkouts = []
    for item in args.checkout or ["change=" + ROOT]:
        label, _, path = item.partition("=")
        checkouts.append((label, os.path.abspath(path)))
    seeds = [int(s) for s in args.seeds.split(",")]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}

    out = {"bench": args.number,
           "host": {"cpu": _cpu_model(), "machine": platform.machine(),
                    "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0))},
           "settings": {"seeds": seeds, "seconds": args.seconds, "workloads": list(WORKLOADS)},
           "checkouts": {label: {"describe": _describe(path), "src_lines": src_lines(path),
                                 "workloads": {}}
                         for label, path in checkouts}}
    for workload in WORKLOADS:
        runs = {label: [] for label, _ in checkouts}
        for i, seed in enumerate(seeds):
            for label, path in checkouts if i % 2 == 0 else checkouts[::-1]:
                result = run_bench(path, workload, seed, args.seconds, 0)
                out["host"]["perfbench"] = result.pop("host")
                runs[label].append(dict(seed=seed, correct=result["correct"],
                                        attempted=result["attempted"], failed=result["failed"],
                                        **{k: v["value"] for k, v in result["metrics"].items()}))
                sys.stderr.write("%s %s seed %d: %s\n" % (workload, label, seed, runs[label][-1]))
        for label, path in checkouts:
            entry = {"runs": runs[label],
                     "summary": {m: _summary([r[m] for r in runs[label]]) for m in better}}
            traced = run_bench(path, workload, 0, 0, 1)
            entry["trace"] = {k: v["value"] for k, v in traced["metrics"].items()}
            out["checkouts"][label]["workloads"][workload] = entry
        base_label = checkouts[0][0]
        for label, _ in checkouts[1:]:
            comparison = {}
            for m, direction in better.items():
                ours = [r[m] for r in runs[label]]
                theirs = [r[m] for r in runs[base_label]]
                wins = sum((a > b) if direction == "higher" else (a < b)
                           for a, b in zip(ours, theirs))
                base_median = statistics.median(theirs)
                comparison[m] = {
                    "ratio_of_medians": statistics.median(ours) / base_median
                    if base_median else None,
                    "better_in_pairs": "%d/%d" % (wins, len(seeds))}
            out.setdefault("comparison", {}).setdefault(
                "%s vs %s" % (label, base_label), {})[workload] = comparison
    if not args.no_full_range:
        for label, path in checkouts:
            out["checkouts"][label]["full_range_scan"] = full_range_scan(path)

    path = os.path.join(ROOT, "BENCH_%d.json" % args.number)
    with open(path, "w") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
