"""Output checks.  Every operation is recorded with the problems found in it;
an operation with any problem counts as failed.

A problem with a whole report (exit code, unparsable output, a changed
digest, a rerun that differs from the cold pass) fails every operation the
report carries.
"""

from __future__ import annotations

import hashlib
import json
import os

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")
NONE = "none-up-to-bound"


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append("%s: %s" % (what, "; ".join(problems)))

    @property
    def ok_frac(self) -> float:
        return 1.0 - self.failed / self.attempted if self.attempted else 0.0


def load_digests() -> dict:
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)


def digest_problems(digests: dict, schema: str, key: str, out: bytes) -> list[str]:
    """A report whose schema tag is unchanged must be byte-identical."""
    want = digests.get(schema, {}).get(key)
    got = hashlib.sha256(out).hexdigest()
    if want is None or want == got:
        return []
    return ["%s report for %s changed without a new schema tag (sha256 %s, recorded %s)"
            % (schema, key, got[:12], want[:12])]


def _parse(code: int, out: bytes) -> tuple[dict, list[str]]:
    problems = [] if code == 0 else ["exit code %d" % code]
    try:
        return json.loads(out), problems
    except ValueError:
        return {}, problems + ["output is not JSON"]


def scan_row_problems(row: dict) -> list[str]:
    problems = []
    if row.get("ok") is not True:
        problems.append("ok is not true")
    if 2 * row.get("rank", -1) != row.get("T_size"):
        problems.append("rank %s != |T|/2 for |T| = %s" % (row.get("rank"), row.get("T_size")))
    want = NONE if row.get("S_size") else "n/a"
    if row.get("certificate") != want:
        problems.append("certificate %r, expected %r" % (row.get("certificate"), want))
    return problems


def check_scan(tally: Tally, label: str, cells, code: int, out: bytes,
               digests: dict, report_problems: list[str] = ()):
    """One operation per grid cell."""
    doc, problems = _parse(code, out)
    problems += list(report_problems)
    if doc:
        problems += digest_problems(digests, doc.get("schema", ""), "grid", out)
    rows = {(r.get("n"), r.get("p")): r for r in doc.get("rows", [])}
    if doc and len(rows) != len(cells):
        problems.append("%d rows for %d cells" % (len(rows), len(cells)))
    for cell in cells:
        row = rows.get(cell)
        row_problems = scan_row_problems(row) if row is not None else ["row missing"]
        tally.record("%s %d,%d" % ((label,) + cell), problems + row_problems)


def check_analyze(tally: Tally, cell, code: int, out: bytes, digests: dict,
                  report_problems: list[str] = ()):
    """One operation per analyze report."""
    rep, problems = _parse(code, out)
    problems += list(report_problems)
    if rep:
        key = "%d,%d" % cell
        problems += digest_problems(digests, rep.get("schema", ""), key, out)
        if rep.get("ok") is not True:
            problems.append("ok is not true")
        t_size = len(rep.get("split", {}).get("T", []))
        rank = rep.get("weil_basis", {}).get("rank")
        if rank is None or 2 * rank != t_size:
            problems.append("rank %s != |T|/2 for |T| = %d" % (rank, t_size))
        status = ((rep.get("argument_independence") or {}).get("certificate") or {}).get("status")
        if status != NONE:
            problems.append("certificate %r" % status)
    tally.record("analyze %d,%d" % cell, problems)
