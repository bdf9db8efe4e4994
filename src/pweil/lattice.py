"""Integer-lattice algorithms over exact arithmetic.

Hermite normal form, integral LLL reduction, complete short-vector
enumeration (Fincke-Pohst), and LLL-based detection of integer relations
among certified reals, reduced at gradually fed scales and settled at the
first scale that decides it.  A relation search never claims independence:
a negative result is a certificate that no relation with coefficients
below the stated bound exists at the stated precision.

One LLL and one Gram-Schmidt code serve the layer: ``lll``, integral LLL at
delta = 3/4 (de Weger 1987; Cohen, Alg. 2.6.7), returns the fraction-free
integers d_i and lambda_ij of ``_gs_row`` with the reduced rows, and the
enumeration and the relation search read them with no second pass;
``gs_norms`` computes them through ``_gs_data``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .arith import BallReal, PrecisionTooLow


class DependentRows(ArithmeticError):
    """Input rows are linearly dependent; the reported rank is attached."""

    def __init__(self, rank: int):
        super().__init__("rows are linearly dependent (rank %d)" % rank)
        self.rank = rank


class EnumerationBudgetExceeded(ArithmeticError):
    """Short-vector enumeration exceeded its node budget, or the generator
    search ran out of class orders h."""


# ---------------------------------------------------------------------------
# Exact integer/rational matrix utilities

def row_hnf(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """Row Hermite normal form; returns (nonzero rows, rank).

    Pivots are positive, entries above each pivot reduced into [0, pivot).
    """
    h, _, rank = _hnf_with_transform(rows)
    return h, rank


def _hnf_with_transform(rows):
    """(nonzero rows of H, U, rank): H = U A is the row HNF of A = rows,
    U is unimodular, and the zero rows of H come last."""
    a = [list(map(int, r)) for r in rows]
    m = len(a)
    ncols = len(a[0]) if m else 0
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    r = 0
    for c in range(ncols):
        piv = None
        while True:
            live = [i for i in range(r, m) if a[i][c] != 0]
            if not live:
                break
            if len(live) == 1:
                piv = live[0]
                break
            live.sort(key=lambda i: abs(a[i][c]))
            i0 = live[0]
            for i in live[1:]:
                q = a[i][c] // a[i0][c]
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[i0])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[i0])]
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        u[r], u[piv] = u[piv], u[r]
        if a[r][c] < 0:
            a[r] = [-x for x in a[r]]
            u[r] = [-x for x in u[r]]
        for i in range(r):
            q = a[i][c] // a[r][c]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                u[i] = [x - q * y for x, y in zip(u[i], u[r])]
        r += 1
        if r == m:
            break
    nonzero = [row for row in a if any(row)]
    return nonzero, u, r


def kernel_basis_int(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Basis of the left integer kernel {v : v . rows = 0} (saturated).

    U A = H with U unimodular, and the rows of H from the rank on are the
    zero rows, so the rows of U from the rank on span the kernel."""
    if not rows:
        return []
    _, u, rank = _hnf_with_transform(rows)
    return u[rank:]


# ---------------------------------------------------------------------------
# Integral LLL: fraction-free Gram-Schmidt data

def _dot(u, v, gram):
    if gram is None:
        return sum(x * y for x, y in zip(u, v))
    total = 0
    for i, x in enumerate(u):
        if x:
            row = gram[i]
            total += x * sum(row[j] * v[j] for j in range(len(v)) if v[j])
    return total


def _gs_row(b, k: int, lam, d, gram):
    """Fraction-free Gram-Schmidt data of row k (Cohen, Alg. 2.6.7, step 2).

    ``d[i + 1]`` is the leading (i+1)x(i+1) principal minor of the Gram
    matrix of the rows, ``d[0] = 1``, so ||b_i*||^2 = d[i+1] / d[i]; and
    ``lam[k][j] = d[j + 1] mu_kj``.  Both are integers and every division
    below is exact.
    """
    row = lam[k]
    for j in range(k + 1):
        u = _dot(b[k], b[j], gram)
        for i in range(j):
            u = (d[i + 1] * u - row[i] * lam[j][i]) // d[i]
        if j < k:
            row[j] = u
        elif u <= 0:
            raise DependentRows(k)
        else:
            d[k + 1] = u


def lll(rows: Sequence[Sequence[int]], gram: Optional[Sequence[Sequence[int]]] = None
        ) -> tuple[list[list[int]], list[list[int]], list[int]]:
    """(reduced rows, lambda, d): the LLL-reduced basis, at delta = 3/4, of
    the lattice spanned by the rows, and the integers of ``_gs_row`` for it.

    ``gram``, when given, is the Gram matrix of the ambient basis: inner
    products are u^T G v instead of the standard dot product.  This is
    integral LLL (de Weger 1987; Cohen, Alg. 2.6.7): lambda and d are kept
    up to date through every swap and size reduction, so a caller needs no
    second pass.  With mu = lambda/d the size reduction and the Lovasz test
    are those of rational LLL, so the reduced basis is the same.  Dependent
    rows, a single zero row among them, raise ``DependentRows``.
    """
    b = [list(map(int, r)) for r in rows]
    n = len(b)
    lam = [[0] * n for _ in range(n)]
    d = [1] + [0] * n

    def red(k: int, l: int):
        dl = d[l + 1]
        if 2 * abs(lam[k][l]) > dl:
            q = (2 * lam[k][l] + dl) // (2 * dl)  # floor(mu + 1/2)
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            lam[k][l] -= q * dl
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    if n:
        _gs_row(b, 0, lam, d, gram)
    kmax = 0
    k = 1
    while k < n:
        if k > kmax:
            kmax = k
            _gs_row(b, k, lam, d, gram)
        red(k, k - 1)
        lk = lam[k][k - 1]
        if 4 * (d[k + 1] * d[k - 1] + lk * lk) < 3 * d[k] * d[k]:  # Lovasz, delta = 3/4
            # swap b[k] and b[k-1]; lam[k][k-1] is unchanged
            B = (d[k - 1] * d[k + 1] + lk * lk) // d[k]
            b[k], b[k - 1] = b[k - 1], b[k]
            for j in range(k - 1):
                lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
            for i in range(k + 1, kmax + 1):
                t = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - lk * t) // d[k]
                lam[i][k - 1] = (B * t + lk * lam[i][k]) // d[k + 1]
            d[k] = B
            k = max(k - 1, 1)
        else:
            for l in range(k - 2, -1, -1):
                red(k, l)
            k += 1
    return b, lam, d


def _gs_data(rows, gram) -> tuple[list[list[int]], list[int]]:
    """The integers lambda and d of ``_gs_row`` for every row."""
    n = len(rows)
    lam = [[0] * n for _ in range(n)]
    d = [1] + [0] * n
    for k in range(n):
        _gs_row(rows, k, lam, d, gram)
    return lam, d


def gs_norms(rows: Sequence[Sequence[int]],
             gram: Optional[Sequence[Sequence[int]]] = None) -> list[Fraction]:
    """Squared Gram-Schmidt norms ||b_i*||^2 = d_i / d_{i-1} of the row basis."""
    _, d = _gs_data([list(map(int, r)) for r in rows], gram)
    return [Fraction(d[i + 1], d[i]) for i in range(len(rows))]


# ---------------------------------------------------------------------------
# Short-vector enumeration (Fincke-Pohst)

def _canonical_sign(vec: tuple[int, ...]) -> tuple[int, ...]:
    for c in vec:
        if c != 0:
            return vec if c > 0 else tuple(-x for x in vec)
    return vec


def short_vectors(basis: Sequence[Sequence[int]], bound,
                  gram: Optional[Sequence[Sequence[int]]] = None,
                  node_budget: int = 5_000_000) -> list[tuple[tuple[int, ...], Fraction]]:
    """Ambient vectors v != 0 of the lattice with <v, v> <= bound, up to sign.

    Complete Fincke-Pohst enumeration on the LLL-reduced basis, which only
    makes it cheaper; ``gram`` gives the ambient bilinear form (default dot).
    Results are (vector, squared norm), sorted by norm, then vector.  Raises
    ``EnumerationBudgetExceeded`` when the visited node count exceeds
    ``node_budget``.

    The recursion reads the integers lambda and d of ``_gs_row`` as LLL
    leaves them for the reduced basis, with no second pass: the squared
    norm of the coefficient vector x is sum_i t_i^2 / (d_i d_{i+1}) with
    t_i = d_{i+1} x_i + sum_{j>i} lambda_ji x_j.  Scaled by S, the lcm of the
    d_i d_{i+1} times the denominator of the bound, every term, partial sum
    and remaining budget is an int, and the range of each x_i is cut exactly
    by an integer square root: every x_i in it is a node.  The center sums
    sum_{j>i} lambda_ji x_j are kept per level and refreshed only from the
    highest x_j that changed since the level was last entered.  While every
    higher x_j is 0, only x_i >= 0 is enumerated, so each pair +-x is
    visited once (Schnorr and Euchner 1994), with the same result.
    """
    reduced, lam, d = lll(basis, gram)
    n = len(reduced)
    bound = Fraction(bound)
    lcm = math.lcm(*(d[i] * d[i + 1] for i in range(n)))
    scale = lcm * bound.denominator
    weight = [scale // (d[i] * d[i + 1]) for i in range(n)]  # S / (d_i d_{i+1})
    full = bound.numerator * lcm  # bound S

    found: list[tuple[tuple[int, ...], int]] = []  # (coefficients, scaled norm), one per +-x
    x = [0] * n
    # part[i][j] = sum_{k >= j} lambda_ki x_k for j > i, so U_i = part[i][i + 1];
    # entries j <= stale[i] of row i wait for a refresh (Schnorr-Euchner)
    part = [[0] * (n + 1) for _ in range(n)]
    stale = list(range(n))
    nodes = 0

    def recurse(i: int, remaining: int, top: bool):
        # top: x_j = 0 for every j > i, so U = 0 and the range is symmetric
        nonlocal nodes
        row = part[i]
        for j in range(stale[i], i, -1):
            row[j] = row[j + 1] + lam[j][i] * x[j]
        if i:
            stale[i - 1] = max(stale[i - 1], stale[i])
        stale[i] = i
        U = row[i + 1]
        di = d[i + 1]
        t_max = math.isqrt(remaining // weight[i])  # weight_i t^2 <= remaining
        lo, hi = -((U + t_max) // di), (t_max - U) // di
        if top:
            lo = 0  # one of each pair +-x: the highest nonzero x_i is positive
        nodes += hi - lo + 1
        if nodes > node_budget:
            raise EnumerationBudgetExceeded("enumeration exceeded %d nodes" % node_budget)
        for xi in range(lo, hi + 1):
            t = di * xi + U
            x[i] = xi
            rest = remaining - weight[i] * t * t
            if i:
                if stale[i - 1] < i:
                    stale[i - 1] = i
                recurse(i - 1, rest, top and not xi)
            elif xi or not top:
                found.append((tuple(x), full - rest))
        x[i] = 0

    if full >= 0:
        recurse(n - 1, full, True)
    out = []
    for coeffs, norm_scaled in found:
        amb = [0] * len(reduced[0])
        for c, row in zip(coeffs, reduced):
            if c:
                for j, rj in enumerate(row):
                    amb[j] += c * rj
        out.append((norm_scaled, _canonical_sign(tuple(amb))))
    out.sort()  # by the int scaled norm: every norm shares the one scale
    return [(vec, Fraction(norm_scaled, scale)) for norm_scaled, vec in out]


# ---------------------------------------------------------------------------
# Integer-relation certificates

class RelationCertificate(NamedTuple):
    """Outcome of a bounded integer-relation search at a stated precision.

    ``found`` status: ``relation`` reproduces a residual enclosure containing
    0 whose width is below ``residual_bound``.  ``none-up-to-bound`` status:
    the minimum Gram-Schmidt norm of the reduced search lattice exceeds the
    norm any true relation with coefficients <= bound could have; this is a
    statement about the bound and precision only, never independence.
    """

    status: str  # "found" | "none-up-to-bound"
    relation: Optional[tuple[int, ...]]
    bound: int
    precision: int
    scale_log2: int
    sv_lower_bound_sq: str
    threshold_sq: str
    residual_bound: Optional[str] = None
    detail: dict = {}  # the shared default is never mutated: the search passes its own

    def to_jsonable(self) -> dict:
        return {
            "status": self.status,
            "relation": list(self.relation) if self.relation is not None else None,
            "bound": self.bound,
            "precision": self.precision,
            "scale_log2": self.scale_log2,
            "sv_lower_bound_sq": self.sv_lower_bound_sq,
            "threshold_sq": self.threshold_sq,
            "residual_bound": self.residual_bound,
            "detail": self.detail,
        }


# log2 of the first scale of the relation search.  A true relation with small
# coefficients is already a short vector of the lattice on entries of a few
# bits, so this cheap reduction finds it; otherwise its unimodular transform
# is where the reduction at 2^32 starts.
PROBE_LOG2 = 4


def _schedule(scale: int) -> list[int]:
    """The scales s of the search lattices 2^s: the probe 2^PROBE_LOG2, then
    2^32, 2^64, 2^128, ... below 2^scale, and 2^scale itself."""
    out = [min(PROBE_LOG2, scale)]
    s = 32
    while out[-1] < scale:
        out.append(min(s, scale))
        s *= 2
    return out


def find_simultaneous_relation(vectors: Sequence[Sequence[BallReal]], modulus: BallReal,
                               bound: int, precision: Optional[int] = None) -> RelationCertificate:
    """Search for integers (c, k) with sum_i c_i a_i + modulus * k = 0 in R^d.

    Models rational dependence modulo the modulus: a found relation means
    sum_i c_i a_iv is the integer -k_v times the modulus at every coordinate
    v, certified against the enclosures.  Coefficients of both blocks are
    bounded by ``bound``.

    The search lattice at scale 2^s has rows [e_i | round(2^s t_i)], with
    t_i the midpoints of a_i, or modulus * e_v.  It is reduced with gradually
    fed scales (van Hoeij-Novocin): first a probe at s = PROBE_LOG2 (4), then
    s = 32, 64, 128, ... below precision/2 and finally precision/2 itself
    (``_schedule``).  The identity block of each reduced basis is the
    accumulated unimodular transform U, and the next lattice is
    U [I | round(2^s' t)], a basis of exactly the lattice at scale 2^s'.
    All ball endpoints are ints over one 2^E, so the midpoints, radii and
    residuals are exact ints; ``Fraction`` appears only in the certificate.

    The search returns at the first scale that settles it.  A reduced row
    with coefficients <= bound whose residual enclosure contains 0 is
    ``found``: the residual is taken on the full-precision enclosures at
    every scale, so a relation found by the probe is as certain as one found
    at 2^(precision/2), and a true relation with small coefficients (such as
    a planted twin) is usually found there, after an LLL on entries of a few
    bits.  Otherwise, a true relation with coefficients <= bound gives a
    lattice vector whose tail entries are at most
    t(s) = (m + 1) bound (1/2 + 2^s r_max), so its squared norm is at most
    threshold_sq(s) = (m + d) bound^2 + d t(s)^2; since lambda_1^2 >=
    min ||b_i*||^2 for any basis, a minimum Gram-Schmidt norm above that
    certifies ``none-up-to-bound`` at scale 2^s.  The norms are the
    d_{i+1} / d_i that LLL leaves for its output, with no second pass.  If
    the full scale settles neither way, the search is inconclusive
    (``PrecisionTooLow``).
    """
    m = len(vectors)
    if m == 0:
        raise ValueError("no vectors given")
    d = len(vectors[0])
    if any(len(vec) != d for vec in vectors):
        raise ValueError("vectors of unequal dimension")
    if precision is None:
        precision = modulus.prec
    scale = precision // 2
    # 2^E times every endpoint is an even int, so midpoints and radii are ints
    E = 1 - min(0, *(e for vec in vectors + [[modulus]] for x in vec for _, e in x.man_exp()))
    ends = [[x.int_bounds(E) for x in vec] for vec in vectors]
    ends += [[modulus.int_bounds(E) if w == v else (0, 0) for w in range(d)] for v in range(d)]
    # coordinate v of a relation (c, k) is its dot product with column v
    tails = [[(lo + hi) >> 1 for lo, hi in row] for row in ends]
    rads = [[(hi - lo) >> 1 for lo, hi in row] for row in ends]
    half = 1 << E
    for r in (x for row in rads for x in row):
        if r << (scale + 1) >= half:  # 2^scale r >= 1/2
            raise PrecisionTooLow("radius %s too large for scale 2^%d" % (Fraction(r, half), scale))
    r_max = Fraction(max(max(row) for row in rads), half)

    k_dim = m + d
    unimodular = [[int(i == j) for j in range(k_dim)] for i in range(k_dim)]
    for s in _schedule(scale):
        # round(2^s t) = floor((2^(s+1) T + 2^E) / 2^(E+1))
        scaled = [[((t << (s + 1)) + half) >> (E + 1) for t in row] for row in tails]
        rows = [u + [sum(c * tail[v] for c, tail in zip(u, scaled) if c) for v in range(d)]
                for u in unimodular]
        reduced, _, gs = lll(rows)
        unimodular = [row[:k_dim] for row in reduced]
        t_bound = (m + 1) * bound * (Fraction(1, 2) + (1 << s) * r_max)
        threshold_sq = (m + d) * bound * bound + d * t_bound * t_bound
        settled = dict(bound=bound, precision=precision, scale_log2=s,
                       threshold_sq=str(threshold_sq), detail={"m": m, "d": d})
        for row in reduced:
            residual = _relation_residual(row[:k_dim], m, tails, rads, bound)
            if residual is not None:
                return RelationCertificate(
                    status="found", relation=_canonical_sign(tuple(row[:k_dim])),
                    sv_lower_bound_sq="", residual_bound=str(float(Fraction(residual, half))),
                    **settled)
        min_gs = min(Fraction(gs[i + 1], gs[i]) for i in range(k_dim))  # ||b_i*||^2
        if min_gs > threshold_sq:
            return RelationCertificate(status="none-up-to-bound", relation=None,
                                       sv_lower_bound_sq=str(min_gs), **settled)
    raise PrecisionTooLow(
        "simultaneous relation search inconclusive: raise precision or lower the bound"
    )


def _relation_residual(coeffs, m: int, tails, rads, bound: int) -> Optional[int]:
    """Largest residual bound |sum_j coeffs_j tails_jv| + error over the
    coordinates v, or None unless the first m coefficients are not all 0,
    every coefficient is at most ``bound`` in absolute value and every
    residual enclosure contains 0."""
    if not any(coeffs[:m]) or max(map(abs, coeffs)) > bound:
        return None
    residual = 0
    for v in range(len(tails[0])):
        mid = sum(x * t[v] for x, t in zip(coeffs, tails) if x)
        err = sum(abs(x) * r[v] for x, r in zip(coeffs, rads) if x)
        if abs(mid) > err:
            return None
        residual = max(residual, abs(mid) + err)
    return residual
