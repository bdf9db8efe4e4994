"""Integer-lattice algorithms over exact arithmetic.

Hermite normal form, integral LLL reduction (fraction-free Gram-Schmidt
data in integers, shared with ``gs_norms``), complete short-vector
enumeration (Fincke-Pohst), and LLL-based detection of integer relations
among certified reals, reduced at gradually fed scales and settled at the
first scale that decides it.  A relation search never claims independence:
a negative result is a certificate that no relation with coefficients
below the stated bound exists at the stated precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .arith import BallReal, PrecisionTooLow


class DependentRows(Exception):
    """Input rows are linearly dependent; the reported rank is attached."""

    def __init__(self, rank: int):
        super().__init__("rows are linearly dependent (rank %d)" % rank)
        self.rank = rank


class BoundTooLarge(RuntimeError):
    """Short-vector enumeration exceeded its node budget."""


# ---------------------------------------------------------------------------
# Exact integer/rational matrix utilities

def row_hnf(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """Row Hermite normal form; returns (nonzero rows, rank).

    Pivots are positive, entries above each pivot reduced into [0, pivot).
    """
    h, _, rank = _hnf_with_transform(rows, want_transform=False)
    return h, rank


def _hnf_with_transform(rows, want_transform: bool):
    a = [list(map(int, r)) for r in rows]
    m = len(a)
    ncols = len(a[0]) if m else 0
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)] if want_transform else None
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
                    if u is not None:
                        u[i] = [x - q * y for x, y in zip(u[i], u[i0])]
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        if u is not None:
            u[r], u[piv] = u[piv], u[r]
        if a[r][c] < 0:
            a[r] = [-x for x in a[r]]
            if u is not None:
                u[r] = [-x for x in u[r]]
        for i in range(r):
            q = a[i][c] // a[r][c]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                if u is not None:
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
    _, u, rank = _hnf_with_transform(rows, want_transform=True)
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


def lll(rows: Sequence[Sequence[int]], delta: Fraction = Fraction(3, 4),
        gram: Optional[Sequence[Sequence[int]]] = None) -> list[list[int]]:
    """delta-LLL-reduced basis of the lattice spanned by the rows.

    ``gram``, when given, is the Gram matrix of the ambient basis: inner
    products are u^T G v instead of the standard dot product.  This is
    integral LLL (de Weger 1987; Cohen, Alg. 2.6.7): the Gram-Schmidt data
    are the integers d_i and lambda_ij of ``_gs_row``.  With mu = lambda/d
    the size reduction and the Lovasz test are exactly those of rational
    LLL, so the reduced basis is the same.
    """
    num, den = delta.numerator, delta.denominator
    if not den < 4 * num < 4 * den:
        raise ValueError("delta must lie in (1/4, 1)")
    b = [list(map(int, r)) for r in rows]
    n = len(b)
    if n <= 1:
        return b
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

    _gs_row(b, 0, lam, d, gram)
    kmax = 0
    k = 1
    while k < n:
        if k > kmax:
            kmax = k
            _gs_row(b, k, lam, d, gram)
        red(k, k - 1)
        lk = lam[k][k - 1]
        if den * (d[k + 1] * d[k - 1] + lk * lk) < num * d[k] * d[k]:
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
    return b


def gs_norms(rows: Sequence[Sequence[int]],
             gram: Optional[Sequence[Sequence[int]]] = None) -> list[Fraction]:
    """Squared Gram-Schmidt norms ||b_i*||^2 = d_i / d_{i-1} of the row basis."""
    b = [list(map(int, r)) for r in rows]
    n = len(b)
    lam = [[0] * n for _ in range(n)]
    d = [1] + [0] * n
    for k in range(n):
        _gs_row(b, k, lam, d, gram)
    return [Fraction(d[i + 1], d[i]) for i in range(n)]


# ---------------------------------------------------------------------------
# Short-vector enumeration (Fincke-Pohst)

def short_vectors_gram(gram: Sequence[Sequence], bound,
                       node_budget: int = 5_000_000) -> list[tuple[tuple[int, ...], Fraction]]:
    """All coefficient vectors x != 0 with x^T G x <= bound, up to sign.

    Complete enumeration; raises BoundTooLarge when the visited node count
    exceeds ``node_budget``.  Results are (vector, squared norm), sorted.

    The Cholesky data q is exact and rational, computed once.  The recursion
    itself runs in integers: with D the lcm of the denominators of the
    off-diagonal q[i][j], E that of the diagonal d_i = q[i][i] and b that of
    the bound, every node quantity is scaled by S = D^2 E b, so the partial
    sums u, the terms d_i (x_i + u)^2 and the remaining budget are all
    integers and the pruning test is exact.  Floats only size the range of
    x_i, with a margin of 2 on each side.
    """
    n = len(gram)
    bound = Fraction(bound)
    g = [[Fraction(x) for x in row] for row in gram]
    # rational Cholesky: q[i][i] = d_i, q[i][j] for j > i
    q = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        q[i][i] = g[i][i] - sum(q[k][k] * q[k][i] ** 2 for k in range(i))
        if q[i][i] <= 0:
            raise ValueError("gram matrix is not positive definite")
        for j in range(i + 1, n):
            q[i][j] = (g[i][j] - sum(q[k][k] * q[k][i] * q[k][j] for k in range(i))) / q[i][i]

    D = math.lcm(1, *(q[i][j].denominator for i in range(n) for j in range(i + 1, n)))
    E = math.lcm(*(q[i][i].denominator for i in range(n)))
    b = bound.denominator
    scale = D * D * E * b
    qD = [[int(q[i][j] * D) if j > i else 0 for j in range(n)] for i in range(n)]
    d_s = [int(q[i][i] * E) * b for i in range(n)]  # d_i S / D^2
    d_full = [di * D * D for di in d_s]  # d_i S
    full = bound.numerator * D * D * E  # bound S

    found: dict[tuple[int, ...], int] = {}  # vector up to sign -> scaled norm
    x = [0] * n
    nodes = 0

    def recurse(i: int, remaining: int):
        nonlocal nodes
        row = qD[i]
        U = sum(row[j] * x[j] for j in range(i + 1, n))  # D u
        di = d_s[i]
        approx = math.sqrt(remaining / d_full[i]) if remaining > 0 else 0.0
        center = -U / D
        lo = math.floor(center - approx) - 2
        hi = math.ceil(center + approx) + 2
        for xi in range(lo, hi + 1):
            t = D * xi + U
            term = di * t * t
            if term > remaining:
                continue
            nodes += 1
            if nodes > node_budget:
                raise BoundTooLarge("enumeration exceeded %d nodes" % node_budget)
            x[i] = xi
            if i == 0:
                if any(x):
                    found[_canonical_sign(tuple(x))] = full - remaining + term
            else:
                recurse(i - 1, remaining - term)
        x[i] = 0

    recurse(n - 1, full)
    out = [(vec, Fraction(norm_scaled, scale)) for vec, norm_scaled in found.items()]
    return sorted(out, key=lambda item: (item[1], item[0]))


def _canonical_sign(vec: tuple[int, ...]) -> tuple[int, ...]:
    for c in vec:
        if c != 0:
            return vec if c > 0 else tuple(-x for x in vec)
    return vec


def short_vectors(basis: Sequence[Sequence[int]], bound,
                  gram: Optional[Sequence[Sequence[int]]] = None,
                  node_budget: int = 5_000_000) -> list[tuple[tuple[int, ...], Fraction]]:
    """Ambient vectors v != 0 of the lattice with <v, v> <= bound, up to sign.

    The basis is LLL-preprocessed for enumeration efficiency; completeness
    is unaffected.  ``gram`` gives the ambient bilinear form (default dot).
    """
    reduced = lll(list(basis), gram=gram)
    g = [[_dot(u, v, gram) for v in reduced] for u in reduced]
    found = short_vectors_gram(g, bound, node_budget)
    out = []
    for coeffs, norm_sq in found:
        amb = [0] * len(reduced[0])
        for c, row in zip(coeffs, reduced):
            if c:
                for j, rj in enumerate(row):
                    amb[j] += c * rj
        out.append((_canonical_sign(tuple(amb)), norm_sq))
    return sorted(set(out), key=lambda item: (item[1], item[0]))


# ---------------------------------------------------------------------------
# Integer-relation certificates

@dataclass(frozen=True)
class RelationCertificate:
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
    detail: dict = field(default_factory=dict)

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


def find_simultaneous_relation(vectors: Sequence[Sequence[BallReal]], modulus: BallReal,
                               bound: int, precision: Optional[int] = None) -> RelationCertificate:
    """Search for integers (c, k) with sum_i c_i a_i + modulus * k = 0 in R^d.

    Models rational dependence modulo the modulus: a found relation means
    sum_i c_i a_iv is the integer -k_v times the modulus at every coordinate
    v, certified against the enclosures.  Coefficients of both blocks are
    bounded by ``bound``.

    The search lattice at scale 2^s has rows [e_i | round(2^s t_i)], with
    t_i the midpoints of a_i, or modulus * e_v.  It is reduced with gradually
    fed scales (van Hoeij-Novocin): s = 32, 64, 128, ... below precision/2
    and finally precision/2 itself.  The identity block of each reduced basis
    is the accumulated unimodular transform U, and the next lattice is
    U [I | round(2^s' t)], a basis of exactly the lattice at scale 2^s'.
    All ball endpoints are ints over one 2^E, so the midpoints, radii and
    residuals are exact ints; ``Fraction`` appears only in the certificate.

    The search returns at the first scale that settles it.  A reduced row
    with coefficients <= bound whose residual enclosure contains 0 is
    ``found``.  Otherwise, a true relation with coefficients <= bound gives
    a lattice vector whose tail entries are at most
    t(s) = (m + 1) bound (1/2 + 2^s r_max), so its squared norm is at most
    threshold_sq(s) = (m + d) bound^2 + d t(s)^2; since lambda_1^2 >=
    min ||b_i*||^2 for any basis, a minimum Gram-Schmidt norm above that
    certifies ``none-up-to-bound`` at scale 2^s.  If the full scale settles
    neither way, the search is inconclusive (``PrecisionTooLow``).
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
    schedule = [min(32, scale)]
    while schedule[-1] < scale:
        schedule.append(min(2 * schedule[-1], scale))
    for s in schedule:
        # round(2^s t) = floor((2^(s+1) T + 2^E) / 2^(E+1))
        scaled = [[((t << (s + 1)) + half) >> (E + 1) for t in row] for row in tails]
        rows = [u + [sum(c * tail[v] for c, tail in zip(u, scaled) if c) for v in range(d)]
                for u in unimodular]
        reduced = lll(rows)
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
        min_gs = min(gs_norms(reduced))
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
