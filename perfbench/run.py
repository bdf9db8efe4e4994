"""pweil benchmark: one command per workload, outputs checked, metrics by name.

    python3 perfbench/run.py --workload {scan-grid,analyze-hard,certify} \\
        --seed N --seconds S --trace {0,1}

Run it from anywhere inside a checkout; it uses the package under src/ and
writes only under .perfbench_work/, which it removes again.  With --trace 0
it prints every end-to-end metric of BENCHMARK.json, with --trace 1 every
per-layer metric.  The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The line before it is the host fingerprint.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
import tempfile
import time

import workloads

ROOT = os.path.dirname(workloads.HERE)
RUN_BUDGET_S = 170.0


def host_fingerprint() -> dict:
    import mpmath.libmp

    backend = mpmath.libmp.BACKEND
    return {"python": platform.python_version(), "mpmath_backend": backend,
            "nproc": len(os.sched_getaffinity(0)), "comparable": backend == "python"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S
    # a stopped run still kills its children and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    package = os.path.join(ROOT, "src", "pweil", "__init__.py")
    if not os.path.isfile(package):
        sys.stderr.write("error: no pweil package at %s; run from a checkout\n" % package)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    host = host_fingerprint()
    print(json.dumps({"host": host}, sort_keys=True), flush=True)
    if not host["comparable"]:
        sys.stderr.write("warning: mpmath backend %r is not 'python'; these figures are "
                         "not comparable with the recorded ones\n" % host["mpmath_backend"])

    base = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(dir=base)
    try:
        ctx = workloads.Context(ROOT, work, deadline)
        values, tally = workloads.WORKLOADS[args.workload](
            ctx, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:  # not empty: another run is using it
            pass

    for problem in tally.problems[:20]:
        sys.stderr.write("check failed: %s\n" % problem)
    listed = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
