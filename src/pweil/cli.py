"""Command-line frontend: single-case analysis, grid scans and identity reports.

Exit codes:

- 0: all exact checks passed (relation certificates reporting
  "none-up-to-bound" are informational);
- 1: a report failed (an exact identity failed, a relation was found, a
  reconstruction failed), or a computation raised an ``ArithmeticError``
  or a ``ValueError``: ``PrecisionTooLow`` (inconclusive at the given
  precision and bound), ``EnumerationBudgetExceeded`` (a generator search
  exhausted its node budget or class-order cap), or a failed internal
  check (``DependentRows``, ``BasisMismatch``, ``NotAWeilUnit``,
  ``MinusPartViolation``, every exact check); a scan still prints every
  row, with certificate "inconclusive" for a cell that raised
  ``PrecisionTooLow`` and "error" for one that raised anything else;
- 2: invalid configuration, always ``pweil.arith.ConfigError``: a bad
  option or range from this module, a bad conductor from ``CycloField``,
  a composite or ramified p from ``split_prime``, p != 1 mod n or bad
  character indices from ``jacobi_weil_number``.

Reports embed their full configuration so reruns are byte-identical.

Each cell of a computation is often one short process, so start-up and exit
count: the module imports only what every run needs (``hashlib`` and
``tempfile`` load inside the cache helpers, and no pweil module imports
``dataclasses``), and ``python -m pweil`` calls ``gc.freeze()`` after
``main`` returns, so the interpreter's final collection does not walk the
objects that the run leaves alive.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from . import __version__
from .arith import ConfigError, PrecisionTooLow, is_prime
from .cyclo import CycloField
from .splitting import split_prime
from .weilgroup import build_weil_basis, jacobi_weil_number, verify_weil_basis
from .regulators import (
    argument_independence_certificate,
    closure_dimension,
    find_abelian_generator,
    gross_matrix,
    group_determinant,
    weil_angle_identity,
)

SCAN_N_CAP = 20
SCAN_P_CAP = 1000
SCAN_CHUNK = 8  # cells per pool task: 1 costs pool traffic, far more leaves a slow tail


class RunConfig:
    """The options of a run, and the one default of each."""

    __slots__ = ("precision", "bound", "padic_prec", "cache_dir", "workers")

    def __init__(self, precision: int = 256, bound: int = 10_000, padic_prec: int = 50,
                 cache_dir: Optional[str] = None, workers: int = 1):
        self.precision = precision
        self.bound = bound
        self.padic_prec = padic_prec
        self.cache_dir = cache_dir
        self.workers = workers

    def validate(self):
        if self.precision < 64:
            raise ConfigError("precision must be >= 64 bits")
        if self.bound < 1:
            raise ConfigError("bound must be >= 1")
        if self.padic_prec < 5:
            raise ConfigError("padic precision must be >= 5")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.cache_dir is not None and os.path.exists(self.cache_dir) \
                and not os.path.isdir(self.cache_dir):
            raise ConfigError("cache dir %s exists and is not a directory" % self.cache_dir)


# ---------------------------------------------------------------------------
# Caching

def _cache_path(cache_dir: str, key_obj: dict) -> str:
    import hashlib  # here, not at the top: only a run with --cache-dir hashes

    blob = json.dumps(key_obj, sort_keys=True).encode()
    return os.path.join(cache_dir, hashlib.sha256(blob).hexdigest() + ".json")


def _cache_get(cache_dir: Optional[str], key_obj: dict, fields: frozenset) -> Optional[dict]:
    """The cached entry, or None for a miss (rewritten by _cache_put): no file,
    a JSON or UTF-8 decode error, not a dict with ``fields`` and the key's n, p,
    or, after a warning on stderr, an entry that cannot be read (an OSError)."""
    path = _cache_path(cache_dir, key_obj) if cache_dir else None
    if path and os.path.exists(path):
        try:
            with open(path) as fh:
                entry = json.load(fh)
        except ValueError:
            return None
        except OSError as exc:
            sys.stderr.write("warning: cache entry not read: %s\n" % exc)
            return None
        cell = entry.get("config", entry) if isinstance(entry, dict) else None  # analyze: in config
        if isinstance(cell, dict) and fields <= entry.keys() \
                and (cell.get("n"), cell.get("p")) == (key_obj["n"], key_obj["p"]):
            return entry
    return None


def _cache_put(cache_dir: Optional[str], key_obj: dict, report: dict) -> bool:
    """Write the entry atomically; False, after a warning on stderr, when the
    write fails with an OSError: the caller still has the report it computed."""
    if not cache_dir:
        return True
    import tempfile

    tmp = None
    try:
        os.makedirs(cache_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps(report, sort_keys=True))
        os.replace(tmp, _cache_path(cache_dir, key_obj))
        tmp = None
        return True
    except OSError as exc:
        sys.stderr.write("warning: not cached: %s\n" % exc)
        return False
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


# ---------------------------------------------------------------------------
# analyze

def analyze_report(n: int, p: int, cfg: RunConfig, regulator: bool = True) -> dict:
    """The analyze report of (n, p).  K = ``cfg.padic_prec`` is the precision
    of the regulator's p-adic logarithms and nothing else: the split, the
    valuations and the basis are exact and do not depend on it.  The report
    records K in ``config`` and in its ``split`` section.  A scan cell, whose
    row never reads the regulator matrix, sets ``regulator=False``: the
    matrix is not built and ``gross_matrix`` is None."""
    field = CycloField(n)
    split = split_prime(field, p)
    basis = build_weil_basis(split)
    report: dict = {
        "schema": "pweil-analyze/7",
        "config": {
            "n": n, "p": p, "precision": cfg.precision, "bound": cfg.bound,
            "padic_prec": cfg.padic_prec, "version": __version__,
        },
        "field": {"n": n, "degree": field.degree, "places": list(field.places)},
        "split": dict(split.to_jsonable(), K=cfg.padic_prec),
    }
    report["weil_basis"] = basis.to_jsonable()
    verify = verify_weil_basis(basis)
    report["structure_checks"] = verify

    closure = closure_dimension(split)
    report["closure"] = closure.to_jsonable()

    ok = verify["ok"]
    report["gross_matrix"] = None
    if split.S:
        if regulator:
            report["gross_matrix"] = gross_matrix(basis, split, cfg.padic_prec).to_jsonable()
        indep = argument_independence_certificate(basis, cfg.bound, cfg.precision)
        report["argument_independence"] = indep.to_jsonable()
        ok = ok and indep.consistent
        aut = find_abelian_generator(basis)
        if aut is not None:
            gd = group_determinant(basis, aut, cfg.precision)
            report["group_determinant"] = gd.to_jsonable()
            ok = ok and gd.nonzero
        else:
            report["group_determinant"] = None
    else:
        report["argument_independence"] = None
        report["group_determinant"] = None
    report["ok"] = ok
    return report


def _format_analyze_text(rep: dict) -> str:
    lines = []
    cfg = rep["config"]
    lines.append("Q(zeta_%d), p = %d  [precision %d bits, bound %d, p-adic digits %d]"
                 % (cfg["n"], cfg["p"], cfg["precision"], cfg["bound"], cfg["padic_prec"]))
    sp = rep["split"]
    lines.append("splitting: f = %d, g = %d primes above p" % (sp["f"], sp["g"]))
    for pr in sp["primes"]:
        lines.append("  %s: h mod p = %s, coset %s" % (pr["label"], pr["h_mod_p"], pr["coset"]))
    lines.append("T (primes with P != P^c): %s" % (", ".join(sp["T"]) or "empty"))
    lines.append("S (representatives mod conjugation): %s" % (", ".join(sp["S"]) or "empty"))
    wb = rep["weil_basis"]
    lines.append("M = %d, h = %d, rank E_p = %d" % (wb["M"], wb["h"], wb["rank"]))
    for label, coeffs in wb["x"].items():
        lines.append("  x[%s] = %s" % (label, coeffs))
    for label, coeffs in wb["xi"].items():
        lines.append("  xi[%s] = %s" % (label, coeffs))
    lines.append("structure checks (alpha o pi = -M id, torsion, rank): %s"
                 % ("PASS" if rep["structure_checks"]["ok"] else "FAIL"))
    cl = rep["closure"]
    lines.append("closure dimension = %d of %d (dense: %s)"
                 % (cl["dimension"], cl["torus_dimension"], cl["dense"]))
    if rep["gross_matrix"] is not None:
        gm = rep["gross_matrix"]
        lines.append("log_p regulator matrix: heuristic rank %d, row sums vanish to %d digits"
                     % (gm["heuristic_rank"], gm["row_sum_min_valuation"]))
    if rep["argument_independence"] is not None:
        ai = rep["argument_independence"]
        cert = ai["certificate"]
        lines.append("argument relation search: %s (bound %d, %d bits, settled at scale 2^%d)"
                     % (cert["status"], ai["bound"], ai["precision"], cert["scale_log2"]))
        if ai["rank_one_exact"] is not None:
            lines.append("  rank-one case resolved exactly: xi is %sa root of unity"
                         % ("" if not ai["rank_one_exact"] else "not "))
    if rep["group_determinant"] is not None:
        gd = rep["group_determinant"]
        lines.append("group determinant (sigma = %d, size %d): delta in %s, nonzero: %s"
                     % (gd["sigma"], gd["size"], gd["delta"], gd["nonzero"]))
    elif rep["split"]["S"]:
        lines.append("group determinant: no cyclic Galois orbit closes on this basis")
    lines.append("overall: %s" % ("PASS" if rep["ok"] else "FAIL"))
    return "\n".join(lines) + "\n"


def cmd_analyze(args, cfg: RunConfig) -> int:
    key = {"cmd": "analyze", "n": args.n, "p": args.p, "precision": cfg.precision,
           "bound": cfg.bound, "K": cfg.padic_prec, "version": __version__}
    rep = _cache_get(cfg.cache_dir, key, _ANALYZE_FIELDS)
    if rep is None:
        rep = analyze_report(args.n, args.p, cfg)
        _cache_put(cfg.cache_dir, key, rep)
    if args.format == "json":
        sys.stdout.write(json.dumps(rep, indent=2, sort_keys=True) + "\n")
    elif args.format == "csv":
        sys.stdout.write(_scan_header() + "\n" + _scan_row_csv(_row_from_analyze(rep)) + "\n")
    else:
        sys.stdout.write(_format_analyze_text(rep))
    return 0 if rep["ok"] else 1


# ---------------------------------------------------------------------------
# scan

_SCAN_COLUMNS = ["n", "p", "f", "g", "T_size", "S_size", "rank", "M",
                 "closure_dim", "dense", "certificate"]
# what cmd_scan and cmd_analyze read of a cached row or report
_SCAN_FIELDS = frozenset(_SCAN_COLUMNS + ["ok"])
_ANALYZE_FIELDS = frozenset("config split weil_basis structure_checks closure gross_matrix "
                            "argument_independence group_determinant ok".split())


def _scan_header() -> str:
    return ",".join(_SCAN_COLUMNS)


def _row_from_analyze(rep: dict) -> dict:
    sp = rep["split"]
    wb = rep["weil_basis"]
    ai = rep["argument_independence"]
    return {
        "n": sp["n"], "p": sp["p"], "f": sp["f"], "g": sp["g"],
        "T_size": len(sp["T"]), "S_size": len(sp["S"]),
        "rank": wb["rank"], "M": wb["M"],
        "closure_dim": rep["closure"]["dimension"],
        "dense": rep["closure"]["dense"],
        "certificate": ai["certificate"]["status"] if ai else "n/a",
        "ok": rep["ok"],
    }


def _scan_row_csv(row: dict) -> str:
    return ",".join(str(row[c]) for c in _SCAN_COLUMNS)


def _scan_cell(params) -> dict:
    n, p, precision, bound = params
    cfg = RunConfig(precision=precision, bound=bound)
    try:
        rep = analyze_report(n, p, cfg, regulator=False)
    except Exception as exc:
        # one failing cell must not end the scan: it becomes a row
        if isinstance(exc, PrecisionTooLow):
            status, msg = "inconclusive", str(exc)
        else:
            status, msg = "error", "%s: %s" % (type(exc).__name__, exc)
        row = dict.fromkeys(_SCAN_COLUMNS, "n/a")
        row.update(n=n, p=p, certificate=status, ok=False, error=msg)
        return row
    return _row_from_analyze(rep)


def _scan_chunk(cells) -> list[dict]:
    """The rows of consecutive cells: one pool task."""
    return [_scan_cell(cell) for cell in cells]


def _scan_rows(chunks, workers: int):
    """The chunks' rows in order, each chunk's as it finishes, in a pool of
    ``workers`` processes when there is more than one."""
    if workers == 1:
        for chunk in chunks:
            yield from _scan_chunk(chunk)
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        for rows in pool.map(_scan_chunk, chunks):
            yield from rows


def cmd_scan(args, cfg: RunConfig) -> int:
    try:
        n_list = sorted(set(int(x) for x in args.n_range.split(",")))
    except ValueError:
        raise ConfigError("--n-range must be a comma-separated list of conductors")
    if any(n > SCAN_N_CAP for n in n_list):
        raise ConfigError("scan cap exceeded: conductors must be <= %d" % SCAN_N_CAP)
    if args.p_max >= SCAN_P_CAP:
        raise ConfigError("scan cap exceeded: p-max must be < %d" % SCAN_P_CAP)
    for n in n_list:
        CycloField(n)  # raises ConfigError for a bad conductor

    cells = []
    for n in n_list:
        for p in range(2, args.p_max + 1):
            if is_prime(p) and n % p != 0:
                cells.append((n, p, cfg.precision, cfg.bound))

    rows = []
    pending = []
    for cell in cells:
        key = {"cmd": "scan-cell", "n": cell[0], "p": cell[1], "precision": cfg.precision,
               "bound": cfg.bound, "version": __version__}
        cached = _cache_get(cfg.cache_dir, key, _SCAN_FIELDS)
        if cached is not None:
            rows.append(cached)
        else:
            pending.append((cell, key))

    if pending:
        # the pool starts all its processes at once: no more than there are cells or cores
        workers = min(cfg.workers, len(pending), os.cpu_count() or 1)
        size = min(SCAN_CHUNK, -(-len(pending) // workers))
        chunks = [[cell for cell, _ in pending[i:i + size]] for i in range(0, len(pending), size)]
        cache_dir = cfg.cache_dir
        # the rows come first in zip, so the pool has closed when zip stops
        for row, (_, key) in zip(_scan_rows(chunks, workers), pending):
            # an error row is retried on rerun; after one failed write, warned, no more tries
            if row["certificate"] != "error" and not _cache_put(cache_dir, key, row):
                cache_dir = None
            rows.append(row)

    rows.sort(key=lambda r: (r["n"], r["p"]))
    ok = all(r["ok"] for r in rows)
    if args.format == "json":
        sys.stdout.write(json.dumps(
            {"schema": "pweil-scan/1", "rows": rows}, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(_scan_header() + "\n")
        for row in rows:
            sys.stdout.write(_scan_row_csv(row) + "\n")
    for row in rows:
        if "error" in row:
            sys.stderr.write("error: n=%d p=%d: %s\n" % (row["n"], row["p"], row["error"]))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# the angle-valuation identity report

def cmd_appendix(args, cfg: RunConfig) -> int:
    if args.den_bound < 1:
        raise ConfigError("den_bound must be >= 1")
    a, b = args.chars
    split = split_prime(CycloField(args.n), args.p)
    lam = jacobi_weil_number(args.p, args.n, a, b)
    basis = build_weil_basis(split)
    rep_obj = weil_angle_identity(lam, split, basis,
                                  den_bound=args.den_bound, precision=cfg.precision)
    report = {
        "schema": "pweil-appendix/7",
        "config": {"n": args.n, "p": args.p, "chars": [a, b],
                   "den_bound": args.den_bound, "precision": cfg.precision,
                   "version": __version__},
        "lambda": [str(c) for c in lam.coeffs],
        "identity": rep_obj.to_jsonable(),
    }
    if args.format == "json":
        sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    else:
        idr = report["identity"]
        lines = [
            "Jacobi sum lambda for chars (%d, %d) mod %d at p = %d" % (a, b, args.n, args.p),
            "  lambda = %s" % report["lambda"],
            "  weight w = %d (lambda lambda^c = p^w exactly)" % idr["weight"],
            "  Im alpha (lhs)      = %s" % idr["lhs"],
            "  valuation form (T)  = %s" % idr["t_form"],
            "  valuation form (S)  = %s" % idr["s_form"],
            "  T/S forms overlap: %s" % idr["forms_overlap"],
            "  (lhs - rhs) log q / 2 pi reconstructs to: %s (denominator bound %d)"
            % (idr["rational"], idr["den_bound"]),
            "  %s" % ("PASS" if idr["ok"] else "FAIL (reconstruction or overlap failed)"),
        ]
        sys.stdout.write("\n".join(lines) + "\n")
    return 0 if rep_obj.ok else 1


# ---------------------------------------------------------------------------
# entry point

class _Command(argparse.ArgumentParser):
    """A command's parser: it reports the arguments it does not take itself."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: " + " ".join(extras))
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    # each command registers only the options it reads; one left off the
    # command line is left out of the namespace, so its default is RunConfig's
    ap = argparse.ArgumentParser(
        prog="pweil",
        description="rational p-Weil numbers in cyclotomic fields: "
                    "group structure, regulators, certified independence tests",
    )
    ap.add_argument("--version", action="version", version="pweil " + __version__)
    sub = ap.add_subparsers(dest="command", required=True, parser_class=_Command)

    def command(name, run, text, formats):
        sp = sub.add_parser(name, help=text, argument_default=argparse.SUPPRESS)
        sp.set_defaults(run=run)
        sp.add_argument("--format", choices=formats, default=formats[0])
        sp.add_argument("--precision", type=int, help="ball precision in bits")
        return sp

    a = command("analyze", cmd_analyze, "full pipeline for a single (n, p)",
                ("text", "json", "csv"))
    a.add_argument("--n", type=int, required=True, help="conductor of Q(zeta_n)")
    a.add_argument("--p", type=int, required=True, help="unramified prime")
    a.add_argument("--padic-prec", type=int, help="p-adic digits K of the regulator's logarithms")

    s = command("scan", cmd_scan, "grid scan over conductors and primes", ("csv", "json"))
    s.add_argument("--n-range", required=True, help="comma-separated conductors, e.g. 5,8,12")
    s.add_argument("--p-max", type=int, default=100)
    s.add_argument("--workers", type=int, help="worker processes for the cells")
    for sp in (a, s):
        sp.add_argument("--bound", type=int, help="coefficient bound for relation searches")
        sp.add_argument("--cache-dir")

    x = command("appendix", cmd_appendix,
                "angle-valuation identity for a Jacobi-sum Weil number", ("text", "json"))
    x.add_argument("--n", type=int, required=True)
    x.add_argument("--p", type=int, required=True)
    x.add_argument("--chars", type=int, nargs=2, required=True, metavar=("A", "B"))
    x.add_argument("--den-bound", type=int, default=60,
                   help="denominator bound for the rational reconstruction")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = RunConfig(**{k: v for k, v in vars(args).items() if k in RunConfig.__slots__})
    try:
        cfg.validate()
        return args.run(args, cfg)
    except ConfigError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except (ArithmeticError, ValueError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
