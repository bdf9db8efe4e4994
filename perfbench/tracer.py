"""Spans around the calls into pweil's modules, recorded from outside the package.

``from .x import y`` binds ``y`` in the consumer module, so a wrapper has to
be installed at every place a function is looked up, not only where it is
defined.  ``traced`` does that for every pweil module that binds one of the
``TARGETS`` and puts the originals back when it exits.  Spans nest: each one
records its parent, so self time (duration minus the time of the spans it
contains) can be computed per module.

Scan workers are forked from the traced process and inherit the wrappers.
When a worker's outermost span closes, the worker appends its spans to a
spool file; ``read_spool`` merges them after the scan.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import NamedTuple, Optional

MODULES = ("cli", "splitting", "cyclo", "lattice", "weilgroup", "regulators", "arith")


# (module, function, outcome of a call or None)
TARGETS = (
    ("cli", "analyze_report", None),
    ("splitting", "split_prime", None),
    ("splitting", "ord_at", None),
    ("cyclo", "norm", None),
    ("cyclo", "embed", None),
    ("cyclo", "is_root_of_unity", None),
    ("lattice", "row_hnf", None),
    ("lattice", "short_vectors", len),
    ("lattice", "lll", None),
    ("lattice", "gs_norms", None),
    ("lattice", "find_simultaneous_relation", lambda cert: cert.status),
    ("weilgroup", "ideal_basis", None),
    ("weilgroup", "find_generator", lambda gen: "miss" if gen is None else "hit"),
    ("weilgroup", "build_weil_basis", None),
    ("weilgroup", "verify_weil_basis", None),
    ("regulators", "certified_arg", None),
    ("regulators", "argument_independence_certificate", None),
    ("regulators", "gross_matrix", None),
    ("regulators", "closure_dimension", None),
    ("regulators", "group_determinant", None),
    ("regulators", "find_abelian_generator", None),
    ("regulators", "weil_angle_identity", None),
    ("arith", "padic_log", None),
    ("arith", "ball_det", None),
)


class Span(NamedTuple):
    pid: int
    sid: int
    parent: Optional[int]
    name: str
    t0: float
    t1: float
    out: object
    nested: bool  # inside a span of the same name

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


class Recorder:
    """Keeps spans in memory; in a forked worker, spools them to ``spool_dir``."""

    def __init__(self, spool_dir: Optional[str] = None):
        self.spool_dir = spool_dir
        self.root_pid = os.getpid()
        self._reset(self.root_pid)

    def _reset(self, pid: int):
        self.pid = pid
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.active: Counter = Counter()
        self.next_id = 0

    def wrap(self, name: str, fn, outcome=None):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pid = os.getpid()
            if pid != rec.pid:  # first call in a forked worker: drop the parent's spans
                rec._reset(pid)
            parent = rec.stack[-1] if rec.stack else None
            sid = rec.next_id
            rec.next_id += 1
            nested = rec.active[name] > 0
            rec.stack.append(sid)
            rec.active[name] += 1
            out = "error"
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                out = outcome(result) if outcome is not None else None
                return result
            finally:
                t1 = time.perf_counter()
                rec.stack.pop()
                rec.active[name] -= 1
                rec.spans.append(Span(pid, sid, parent, name, t0, t1, out, nested))
                if not rec.stack and pid != rec.root_pid and rec.spool_dir:
                    rec._spool()

        return wrapper

    def _spool(self):
        path = os.path.join(self.spool_dir, "spans-%d.jsonl" % self.pid)
        with open(path, "a") as fh:
            for sp in self.spans:
                fh.write(json.dumps(sp) + "\n")
        self.spans = []


def read_spool(spool_dir: str) -> list[Span]:
    spans = []
    for name in sorted(os.listdir(spool_dir)):
        if name.startswith("spans-") and name.endswith(".jsonl"):
            with open(os.path.join(spool_dir, name)) as fh:
                spans.extend(Span(*json.loads(line)) for line in fh)
    return spans


@contextmanager
def traced(recorder: Recorder):
    """Install a wrapper at every binding of each target; restore on exit."""
    modules = [importlib.import_module(m) for m in ["pweil"] + ["pweil." + m for m in MODULES]]
    patches = []
    try:
        for mod_name, fn_name, outcome in TARGETS:
            original = getattr(sys.modules["pweil." + mod_name], fn_name)
            wrapper = recorder.wrap(mod_name + "." + fn_name, original, outcome)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        yield recorder
    finally:
        for mod, attr, original in reversed(patches):
            setattr(mod, attr, original)


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer counts, busy times and self times from a list of spans."""
    by_name = defaultdict(list)
    child_time = defaultdict(float)
    children = defaultdict(Counter)
    for sp in spans:
        by_name[sp.name].append(sp)
        if sp.parent is not None:
            child_time[sp.pid, sp.parent] += sp.dur
            children[sp.pid, sp.parent][sp.name] += 1

    def calls(name):
        return len(by_name[name])

    def busy(name):
        return sum(sp.dur for sp in by_name[name] if not sp.nested)

    def outcomes(name, value):
        return [sp for sp in by_name[name] if sp.out == value]

    m = {}
    self_s = Counter()
    for sp in spans:
        self_s[sp.name.split(".")[0]] += sp.dur - child_time[sp.pid, sp.sid]
    for mod in MODULES:
        m[mod + ".self_s"] = self_s[mod]

    cells = [sp.dur for sp in by_name["cli.analyze_report"]]
    m["cli.cell_p50_s"] = statistics.median(cells) if cells else 0.0
    m["cli.cell_p90_s"] = _p90(cells)
    m["cli.cell_max_s"] = max(cells, default=0.0)
    m["cli.cache_misses"] = calls("cli.analyze_report")

    m["splitting.split_prime_s"] = busy("splitting.split_prime")
    m["splitting.ord_at_calls"] = calls("splitting.ord_at")
    m["splitting.ord_at_s"] = busy("splitting.ord_at")

    m["cyclo.norm_calls"] = calls("cyclo.norm")
    m["cyclo.norm_s"] = busy("cyclo.norm")
    m["cyclo.is_root_of_unity_s"] = busy("cyclo.is_root_of_unity")

    m["lattice.row_hnf_s"] = busy("lattice.row_hnf")
    m["lattice.short_vectors_calls"] = calls("lattice.short_vectors")
    m["lattice.short_vectors_s"] = busy("lattice.short_vectors")
    m["lattice.short_vectors_out"] = sum(
        sp.out for sp in by_name["lattice.short_vectors"] if isinstance(sp.out, int))
    m["lattice.lll_calls"] = calls("lattice.lll")
    m["lattice.lll_s"] = busy("lattice.lll")
    m["lattice.gs_norms_s"] = busy("lattice.gs_norms")
    m["lattice.relation_none_s"] = sum(
        sp.dur for sp in outcomes("lattice.find_simultaneous_relation", "none-up-to-bound"))
    m["lattice.relation_found_s"] = sum(
        sp.dur for sp in outcomes("lattice.find_simultaneous_relation", "found"))

    gen_calls = calls("weilgroup.find_generator")
    hits = len(outcomes("weilgroup.find_generator", "hit"))
    gen_norms = sum(children[sp.pid, sp.sid]["cyclo.norm"]
                    for sp in by_name["weilgroup.find_generator"])
    m["weilgroup.find_generator_calls"] = gen_calls
    m["weilgroup.find_generator_s"] = busy("weilgroup.find_generator")
    m["weilgroup.generator_hit_ratio"] = hits / gen_calls if gen_calls else 0.0
    m["weilgroup.norms_per_generator"] = gen_norms / hits if hits else 0.0
    m["weilgroup.ideal_basis_s"] = busy("weilgroup.ideal_basis")
    m["weilgroup.build_weil_basis_s"] = busy("weilgroup.build_weil_basis")
    m["weilgroup.verify_weil_basis_s"] = busy("weilgroup.verify_weil_basis")

    m["regulators.certified_arg_calls"] = calls("regulators.certified_arg")
    m["regulators.certified_arg_s"] = busy("regulators.certified_arg")
    m["regulators.certified_arg_retries"] = sum(
        max(0, children[sp.pid, sp.sid]["cyclo.embed"] - 1)
        for sp in by_name["regulators.certified_arg"])
    for fn in ("argument_independence_certificate", "gross_matrix", "closure_dimension",
               "group_determinant", "find_abelian_generator", "weil_angle_identity"):
        m["regulators.%s_s" % fn] = busy("regulators." + fn)

    m["arith.padic_log_calls"] = calls("arith.padic_log")
    m["arith.padic_log_s"] = busy("arith.padic_log")
    m["arith.ball_det_s"] = busy("arith.ball_det")
    return m
