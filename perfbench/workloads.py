"""The three workloads.  Each is a closed loop from a single client: the next
unit of work starts when the previous one has finished, until the run's
seconds are used (at least one unit).

A run returns (values, tally).  Untraced runs give the end-to-end values; a
traced run does one untraced unit and one traced unit, compares their
outputs byte for byte and gives the per-layer values.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from fractions import Fraction
from typing import NamedTuple

import checks
import inputs
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCHER = os.path.join(HERE, "launch.py")
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
CERT_PRECISION = 1024
CERT_BOUND = 10_000
SCAN_WORKERS = 2


class Result(NamedTuple):
    code: int
    out: bytes
    wall_s: float


class Context:
    """Where a run reads and writes, and how long it may take."""

    def __init__(self, root: str, work: str, deadline: float):
        self.root = root
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        self.digests = checks.load_digests()

    def run(self, cmd: list[str]) -> Result:
        """Run a child in its own process group.  The group (a scan's workers
        too) is killed at the deadline or when this run is stopped."""
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                                start_new_session=True)
        out = b""
        try:
            out, _ = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            pass
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        return Result(proc.returncode, out, time.perf_counter() - t0)

    def pweil(self, argv: list[str], spans_path: str = None) -> Result:
        if spans_path is None:
            return self.run([sys.executable, "-m", "pweil"] + argv)
        return self.run([sys.executable, LAUNCHER, spans_path, "--"] + argv)


def children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def import_setup_s(ctx: Context) -> float:
    """Median time for a fresh interpreter to import pweil.cli, the set-up
    every command-line run pays."""
    runs = [ctx.run([sys.executable, "-c", "import pweil.cli"]) for _ in range(IMPORT_REPEATS)]
    if any(r.code for r in runs):
        raise RuntimeError("import pweil.cli failed")
    return statistics.median(r.wall_s for r in runs)


def _load_spans(path: str) -> tuple[float, list]:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return 0.0, []
    return doc["import_s"], [tracer.Span(*s) for s in doc["spans"]]


def _end_to_end(setup_s: float, cells: int, walls, tally: checks.Tally) -> dict:
    return {"setup_s": setup_s,
            "cells_per_s": statistics.median(cells / wall for wall in walls),
            "peak_rss_mb": peak_rss_mb(),
            "ok_frac": tally.ok_frac}


def _closed_loop(unit, seconds: float, trace: bool):
    """Untraced units until ``seconds`` have passed, or one untraced and one
    traced unit when tracing."""
    if trace:
        return [unit(False), unit(True)]
    results = []
    t0 = time.perf_counter()
    while True:
        results.append(unit(False))
        if time.perf_counter() - t0 >= seconds:
            return results


# ---------------------------------------------------------------------------
# scan-grid

def _find_cell(doc):
    """The (n, p) a cache file belongs to, wherever the row sits in it (a
    cache entry may come to wrap the row with its key and version)."""
    if isinstance(doc, dict):
        if isinstance(doc.get("n"), int) and isinstance(doc.get("p"), int):
            return doc["n"], doc["p"]
        for value in doc.values():
            cell = _find_cell(value)
            if cell is not None:
                return cell
    return None


def remove_cached(cache_dir: str, cells) -> int:
    wanted = set(cells)
    removed = 0
    for name in sorted(os.listdir(cache_dir)):
        path = os.path.join(cache_dir, name)
        with open(path) as fh:
            try:
                cell = _find_cell(json.load(fh))
            except ValueError:
                continue
        if cell in wanted:
            os.unlink(path)
            removed += 1
    return removed


def scan_grid(ctx: Context, seed: int, seconds: float, trace: bool):
    tally = checks.Tally()
    setup_s = import_setup_s(ctx)
    cells = inputs.grid_cells()
    removals = inputs.rerun_removals(seed)
    argv = inputs.scan_argv()
    reference = {}

    def unit(traced: bool) -> dict:
        cache = tempfile.mkdtemp(dir=ctx.work, prefix="cache-")
        spans = [os.path.join(ctx.work, "scan-%s.json" % p) for p in ("cold", "rerun")]
        try:
            cpu0 = children_cpu_s()
            cold = ctx.pweil(argv + ["--cache-dir", cache], spans[0] if traced else None)
            cpu = children_cpu_s() - cpu0
            removed = remove_cached(cache, removals) if os.path.isdir(cache) else 0
            rerun = ctx.pweil(argv + ["--cache-dir", cache], spans[1] if traced else None)
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        cold_problems, rerun_problems = [], []
        if removed != len(removals):
            rerun_problems.append("removed %d of %d cache files" % (removed, len(removals)))
        if rerun.out != cold.out:
            rerun_problems.append("rerun output differs from the cold output")
        if traced:
            for name, res, probs in (("cold", cold, cold_problems),
                                     ("rerun", rerun, rerun_problems)):
                if res.out != reference[name]:
                    probs.append("traced output differs from the untraced output")
        else:
            reference.update(cold=cold.out, rerun=rerun.out)
        tag = "traced " if traced else ""
        checks.check_scan(tally, tag + "scan", cells, cold.code, cold.out, ctx.digests,
                          cold_problems)
        checks.check_scan(tally, tag + "rerun", cells, rerun.code, rerun.out, ctx.digests,
                          rerun_problems)
        result = {"cold": cold, "rerun": rerun, "cpu_s": cpu}
        if traced:
            loaded = [_load_spans(p) for p in spans]
            result["import_s"] = statistics.median(imp for imp, _ in loaded)
            result["spans"] = [s for _, sp in loaded for s in sp]
        return result

    units = _closed_loop(unit, seconds, trace)
    if not trace:
        return _end_to_end(setup_s, len(cells), [u["cold"].wall_s for u in units], tally), tally
    plain, traced = units
    values = tracer.layer_metrics(traced["spans"])
    values.update({
        "cli.import_s": traced["import_s"],
        "cli.cache_hits": 2 * len(cells) - values["cli.cache_misses"],
        "cli.pool_busy_frac": plain["cpu_s"] / (plain["cold"].wall_s * SCAN_WORKERS),
        "cli.rerun_s": plain["rerun"].wall_s,
        "trace_overhead_frac": (traced["cold"].wall_s + traced["rerun"].wall_s)
        / (plain["cold"].wall_s + plain["rerun"].wall_s) - 1.0,
    })
    return values, tally


# ---------------------------------------------------------------------------
# analyze-hard

def analyze_hard(ctx: Context, seed: int, seconds: float, trace: bool, cells=None):
    tally = checks.Tally()
    setup_s = import_setup_s(ctx)
    cells = cells or inputs.analyze_cells(seed)
    reference = {}

    def unit(traced: bool) -> dict:
        wall = cpu = 0.0
        spans, imports = [], []
        for n, p in cells:
            path = os.path.join(ctx.work, "analyze-%d-%d.json" % (n, p))
            cpu0 = children_cpu_s()
            code, out, dt = ctx.pweil(["analyze", "--n", str(n), "--p", str(p),
                                       "--format", "json"], path if traced else None)
            cpu += children_cpu_s() - cpu0
            wall += dt
            problems = []
            if traced:
                if out != reference[n, p]:
                    problems.append("traced output differs from the untraced output")
                imp, sp = _load_spans(path)
                imports.append(imp)
                spans.extend(sp)
            else:
                reference[n, p] = out
            checks.check_analyze(tally, (n, p), code, out, ctx.digests, problems)
        return {"wall_s": wall, "cpu_s": cpu, "spans": spans,
                "import_s": statistics.median(imports) if imports else 0.0}

    units = _closed_loop(unit, seconds, trace)
    if not trace:
        return _end_to_end(setup_s, len(cells), [u["wall_s"] for u in units], tally), tally
    plain, traced = units
    values = tracer.layer_metrics(traced["spans"])
    values.update({
        "cli.import_s": traced["import_s"],
        "cli.cache_hits": len(cells) - values["cli.cache_misses"],
        "cli.pool_busy_frac": plain["cpu_s"] / plain["wall_s"],
        "cli.rerun_s": 0.0,
        "trace_overhead_frac": traced["wall_s"] / plain["wall_s"] - 1.0,
    })
    return values, tally


# ---------------------------------------------------------------------------
# certify: library calls, as in the README's Library section

def _certify_setup(cells):
    from pweil.cyclo import CycloField
    from pweil.splitting import split_prime
    from pweil.weilgroup import build_weil_basis

    bases = []
    for cell in cells:
        split = split_prime(CycloField(cell.n), cell.p)
        bases.append((cell, build_weil_basis(split)))
    return bases


def _planted_vector(values, planted: inputs.Planted, two_pi):
    base = values[planted.index]
    if planted.kind == "shift":
        return tuple(x + two_pi * k for x, k in zip(base, planted.shifts))
    return tuple(x * Fraction(planted.q, planted.s) for x in base)


def _certify_cell(cell, basis, reference: dict, traced: bool):
    """The four timed calls on one cell; yields each operation with its problems."""
    from pweil.arith import BallReal
    from pweil.lattice import find_simultaneous_relation
    from pweil.regulators import (arg_vector, argument_independence_certificate,
                                  find_abelian_generator, group_determinant,
                                  weil_angle_identity)
    from pweil.weilgroup import jacobi_weil_number

    split = basis.split
    label = "%d,%d" % (cell.n, cell.p)
    outputs = {"basis": basis.to_jsonable()}

    rep = argument_independence_certificate(basis, CERT_BOUND, CERT_PRECISION)
    outputs["certificate"] = rep.to_jsonable()
    problems = []
    if 2 * basis.rank != len(split.T):
        problems.append("rank %d != |T|/2 for |T| = %d" % (basis.rank, len(split.T)))
    if rep.certificate.status != checks.NONE:
        problems.append("certificate %r" % rep.certificate.status)
    yield "certificate " + label, problems

    two_pi = BallReal.pi(CERT_PRECISION + 32) * 2
    values = [arg_vector(basis.xi[idx], CERT_PRECISION).values for idx in split.S]
    twin = _planted_vector(values, cell.planted, two_pi)
    cert = find_simultaneous_relation(values + [twin], two_pi, CERT_BOUND, CERT_PRECISION)
    outputs["planted"] = cert.to_jsonable()
    problems = []
    if cert.status != "found":
        problems.append("planted twin %s not found" % (cell.planted,))
    elif cert.relation[len(values)] == 0:
        problems.append("relation %s does not use the planted vector" % (cert.relation,))
    yield "planted " + label, problems

    aut = find_abelian_generator(basis)
    problems = []
    if aut is None:
        problems.append("no cyclic Galois orbit closes on the basis")
    else:
        gd = group_determinant(basis, aut, CERT_PRECISION)
        outputs["group_determinant"] = gd.to_jsonable()
        if not gd.nonzero:
            problems.append("group determinant not certified nonzero")
    yield "group determinant " + label, problems

    lam = jacobi_weil_number(cell.p, cell.n, 1, 1)
    angle = weil_angle_identity(lam, split, basis, precision=CERT_PRECISION)
    outputs["angle"] = angle.to_jsonable()
    problems = [] if angle.ok else ["angle-valuation identity failed"]
    if traced and json.dumps(outputs, sort_keys=True) != reference[label]:
        problems.append("traced outputs differ from the untraced outputs")
    elif not traced:
        reference[label] = json.dumps(outputs, sort_keys=True)
    yield "angle identity " + label, problems


def certify(ctx: Context, seed: int, seconds: float, trace: bool, cells=None):
    tally = checks.Tally()
    cells = cells or inputs.certify_cells(seed)
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        bases = _certify_setup(cells)
        setups.append(time.perf_counter() - t0)
    reference = {}

    def unit(traced: bool) -> dict:
        recorder = tracer.Recorder()
        with tracer.traced(recorder) if traced else nullcontext():
            unit_bases = _certify_setup(cells) if traced else bases
            t0 = time.perf_counter()
            for cell, basis in unit_bases:
                try:
                    for what, problems in _certify_cell(cell, basis, reference, traced):
                        tally.record(what, problems)
                except Exception as exc:  # a call that raises fails its operation; the run goes on
                    tally.record("cell %d,%d" % (cell.n, cell.p), ["raised %r" % exc])
            wall = time.perf_counter() - t0
        return {"wall_s": wall, "spans": recorder.spans}

    units = _closed_loop(unit, seconds, trace)
    if not trace:
        return _end_to_end(statistics.median(setups), len(cells),
                           [u["wall_s"] for u in units], tally), tally
    plain, traced = units
    values = tracer.layer_metrics(traced["spans"])
    values.update({
        "cli.import_s": 0.0,
        "cli.cache_hits": 0,
        "cli.pool_busy_frac": 0.0,
        "cli.rerun_s": 0.0,
        "trace_overhead_frac": traced["wall_s"] / plain["wall_s"] - 1.0,
    })
    return values, tally


WORKLOADS = {"scan-grid": scan_grid, "analyze-hard": analyze_hard, "certify": certify}
