"""Integer-lattice algorithms over exact arithmetic.

Hermite normal form, LLL reduction with exact rational Gram-Schmidt data,
complete short-vector enumeration (Fincke-Pohst), and LLL-based detection
of integer relations among certified reals.  A relation search never claims
independence: a negative result is a certificate that no relation with
coefficients below the stated bound exists at the stated precision.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .arith import BallReal, PrecisionTooLow


class DependentRows(ValueError):
    """Input rows are linearly dependent; the reported rank is attached."""

    def __init__(self, rank: int):
        super().__init__("rows are linearly dependent (rank %d)" % rank)
        self.rank = rank


class BoundTooLarge(RuntimeError):
    """Short-vector enumeration exceeded its node budget."""


# ---------------------------------------------------------------------------
# Exact integer/rational matrix utilities

def bareiss_det(rows: Sequence[Sequence[int]]) -> int:
    """Fraction-free exact determinant of an integer matrix."""
    a = [list(map(int, r)) for r in rows]
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("matrix must be square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


def rank_q(rows: Sequence[Sequence]) -> int:
    """Exact rank over Q by fraction elimination."""
    a = [[Fraction(x) for x in r] for r in rows]
    if not a:
        return 0
    ncols = len(a[0])
    rank = 0
    row = 0
    for col in range(ncols):
        piv = next((i for i in range(row, len(a)) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = 1 / a[row][col]
        a[row] = [x * inv for x in a[row]]
        for i in range(len(a)):
            if i != row and a[i][col] != 0:
                c = a[i][col]
                a[i] = [x - c * y for x, y in zip(a[i], a[row])]
        row += 1
        rank += 1
        if row == len(a):
            break
    return rank


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
    """Basis of the left integer kernel {v : v . rows = 0} (saturated)."""
    a = [list(map(int, r)) for r in rows]
    if not a:
        return []
    _, u, rank = _hnf_with_transform(a, want_transform=True)
    # rows of u mapping to zero rows of the HNF span the kernel
    m = len(a)
    h_full = _apply_transform(u, a)
    return [u[i] for i in range(m) if not any(h_full[i])]


def _apply_transform(u, a):
    m = len(a)
    ncols = len(a[0])
    out = []
    for i in range(m):
        row = [0] * ncols
        for k in range(m):
            c = u[i][k]
            if c:
                for j in range(ncols):
                    row[j] += c * a[k][j]
        out.append(row)
    return out


@dataclass(frozen=True)
class IntLattice:
    """Full-rank integer lattice given by an HNF-canonical row basis."""

    rows: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def ambient_dim(self) -> int:
        return len(self.rows[0]) if self.rows else 0


def hnf(rows: Sequence[Sequence[int]]) -> IntLattice:
    """Canonical HNF basis of the lattice spanned by the rows.

    Raises DependentRows when the rows are linearly dependent.
    """
    h, rank = row_hnf(rows)
    if rank != len(rows):
        raise DependentRows(rank)
    return IntLattice(tuple(tuple(r) for r in h))


# ---------------------------------------------------------------------------
# LLL with exact rational Gram-Schmidt data

def _dot(u, v, gram):
    if gram is None:
        return sum(x * y for x, y in zip(u, v))
    total = 0
    for i, x in enumerate(u):
        if x:
            row = gram[i]
            total += x * sum(row[j] * v[j] for j in range(len(v)) if v[j])
    return total


def lll(rows: Sequence[Sequence[int]], delta: Fraction = Fraction(3, 4),
        gram: Optional[Sequence[Sequence[int]]] = None) -> list[list[int]]:
    """delta-LLL-reduced basis of the lattice spanned by the rows.

    ``gram``, when given, is the Gram matrix of the ambient basis: inner
    products are u^T G v instead of the standard dot product.  All
    Gram-Schmidt data is kept as exact rationals.
    """
    if not (Fraction(1, 4) < delta < 1):
        raise ValueError("delta must lie in (1/4, 1)")
    b = [list(map(int, r)) for r in rows]
    n = len(b)
    if n <= 1:
        return b
    mu = [[Fraction(0)] * n for _ in range(n)]
    B = [Fraction(0)] * n

    def gs_row(i: int):
        for j in range(i):
            num = Fraction(_dot(b[i], b[j], gram))
            s = num - sum(mu[j][l] * mu[i][l] * B[l] for l in range(j))
            if B[j] == 0:
                raise DependentRows(j)
            mu[i][j] = s / B[j]
        B[i] = Fraction(_dot(b[i], b[i], gram)) - sum(mu[i][j] ** 2 * B[j] for j in range(i))
        if B[i] <= 0:
            raise DependentRows(i)

    def red(k: int, l: int):
        if abs(mu[k][l]) > Fraction(1, 2):
            q = _round_half(mu[k][l])
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            mu[k][l] -= q
            for i in range(l):
                mu[k][i] -= q * mu[l][i]

    gs_row(0)
    kmax = 0
    k = 1
    while k < n:
        if k > kmax:
            kmax = k
            gs_row(k)
        red(k, k - 1)
        if B[k] < (delta - mu[k][k - 1] ** 2) * B[k - 1]:
            # swap b[k] and b[k-1], updating the Gram-Schmidt data in place
            mu_kk1 = mu[k][k - 1]
            B_new = B[k] + mu_kk1 ** 2 * B[k - 1]
            mu[k][k - 1] = mu_kk1 * B[k - 1] / B_new
            B[k] = B[k - 1] * B[k] / B_new
            B[k - 1] = B_new
            b[k], b[k - 1] = b[k - 1], b[k]
            for j in range(k - 1):
                mu[k][j], mu[k - 1][j] = mu[k - 1][j], mu[k][j]
            for i in range(k + 1, kmax + 1):
                t = mu[i][k]
                mu[i][k] = mu[i][k - 1] - mu_kk1 * t
                mu[i][k - 1] = t + mu[k][k - 1] * mu[i][k]
            k = max(k - 1, 1)
        else:
            for l in range(k - 2, -1, -1):
                red(k, l)
            k += 1
    return b


def _round_half(x: Fraction) -> int:
    return math.floor(x + Fraction(1, 2))


def gs_norms(rows: Sequence[Sequence[int]],
             gram: Optional[Sequence[Sequence[int]]] = None) -> list[Fraction]:
    """Squared Gram-Schmidt norms ||b_i*||^2 of the given row basis."""
    b = [list(map(int, r)) for r in rows]
    n = len(b)
    mu = [[Fraction(0)] * n for _ in range(n)]
    B = [Fraction(0)] * n
    for i in range(n):
        for j in range(i):
            num = Fraction(_dot(b[i], b[j], gram))
            s = num - sum(mu[j][l] * mu[i][l] * B[l] for l in range(j))
            mu[i][j] = s / B[j]
        B[i] = Fraction(_dot(b[i], b[i], gram)) - sum(mu[i][j] ** 2 * B[j] for j in range(i))
    return B


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

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), sort_keys=True)


def _round_fraction(x: Fraction) -> int:
    return math.floor(x + Fraction(1, 2))


def find_relation(values: Sequence[BallReal], bound: int,
                  precision: Optional[int] = None) -> RelationCertificate:
    """Search for integers c, |c_i| <= bound, with sum c_i v_i = 0.

    The values are embedded into an (m+1)-column integer lattice with scale
    N = 2^(precision/2) and LLL-reduced; every reduced row is tested as a
    relation candidate against the certified enclosures.
    """
    m = len(values)
    if m == 0:
        raise ValueError("no values given")
    if precision is None:
        precision = max(v.prec for v in values)
    N = 1 << (precision // 2)
    mids = [v.midpoint for v in values]
    rads = [v.radius for v in values]
    for r in rads:
        if N * r >= Fraction(1, 2):
            raise PrecisionTooLow("value radius %s too large for scale 2^%d" % (r, precision // 2))
    rows = []
    for i in range(m):
        row = [0] * m + [_round_fraction(N * mids[i])]
        row[i] = 1
        rows.append(row)
    reduced = lll(rows)
    r_max = max(rads) if rads else Fraction(0)
    t_bound = m * bound * (Fraction(1, 2) + N * r_max)
    threshold_sq = m * bound * bound + t_bound * t_bound

    for row in reduced:
        c = tuple(row[:m])
        if not any(c) or max(abs(x) for x in c) > bound:
            continue
        res_mid = sum(ci * mi for ci, mi in zip(c, mids))
        err = sum(abs(ci) * ri for ci, ri in zip(c, rads))
        if abs(res_mid) <= err:
            c = _canonical_sign(c)
            return RelationCertificate(
                status="found",
                relation=c,
                bound=bound,
                precision=precision,
                scale_log2=precision // 2,
                sv_lower_bound_sq="",
                threshold_sq=str(threshold_sq),
                residual_bound=str(float(abs(res_mid) + err)),
            )
    min_gs = min(gs_norms(reduced))
    if min_gs > threshold_sq:
        return RelationCertificate(
            status="none-up-to-bound",
            relation=None,
            bound=bound,
            precision=precision,
            scale_log2=precision // 2,
            sv_lower_bound_sq=str(min_gs),
            threshold_sq=str(threshold_sq),
        )
    raise PrecisionTooLow(
        "relation search inconclusive: raise precision or lower the bound"
    )


def find_simultaneous_relation(vectors: Sequence[Sequence[BallReal]], modulus: BallReal,
                               bound: int, precision: Optional[int] = None) -> RelationCertificate:
    """Search for integers (c, k) with sum_i c_i a_i + modulus * k = 0 in R^d.

    Models rational dependence modulo the modulus: a found relation means
    sum_i c_i a_iv is the integer -k_v times the modulus at every coordinate
    v, certified against the enclosures.  Coefficients of both blocks are
    bounded by ``bound``.
    """
    m = len(vectors)
    if m == 0:
        raise ValueError("no vectors given")
    d = len(vectors[0])
    if any(len(vec) != d for vec in vectors):
        raise ValueError("vectors of unequal dimension")
    if precision is None:
        precision = modulus.prec
    N = 1 << (precision // 2)
    all_rads = [x.radius for vec in vectors for x in vec] + [modulus.radius]
    for r in all_rads:
        if N * r >= Fraction(1, 2):
            raise PrecisionTooLow("radius %s too large for scale 2^%d" % (r, precision // 2))
    mu_mid = modulus.midpoint

    rows = []
    for i in range(m):
        row = [0] * (m + d) + [_round_fraction(N * x.midpoint) for x in vectors[i]]
        row[i] = 1
        rows.append(row)
    for v in range(d):
        row = [0] * (m + d) + [0] * d
        row[m + v] = 1
        row[m + d + v] = _round_fraction(N * mu_mid)
        rows.append(row)
    reduced = lll(rows)

    r_max = max(all_rads)
    t_bound = (m + 1) * bound * (Fraction(1, 2) + N * r_max)
    threshold_sq = (m + d) * bound * bound + d * t_bound * t_bound

    for row in reduced:
        c = tuple(row[:m])
        k = tuple(row[m:m + d])
        if not any(c):
            continue
        if max(abs(x) for x in c) > bound or (k and max(abs(x) for x in k) > bound):
            continue
        ok = True
        residual = Fraction(0)
        for v in range(d):
            mid_v = sum(ci * vectors[i][v].midpoint for i, ci in enumerate(c)) + k[v] * mu_mid
            err_v = sum(abs(ci) * vectors[i][v].radius for i, ci in enumerate(c)) \
                + abs(k[v]) * modulus.radius
            if abs(mid_v) > err_v:
                ok = False
                break
            residual = max(residual, abs(mid_v) + err_v)
        if ok:
            rel = _canonical_sign(c + k)
            return RelationCertificate(
                status="found",
                relation=rel,
                bound=bound,
                precision=precision,
                scale_log2=precision // 2,
                sv_lower_bound_sq="",
                threshold_sq=str(threshold_sq),
                residual_bound=str(float(residual)),
                detail={"m": m, "d": d},
            )
    min_gs = min(gs_norms(reduced))
    if min_gs > threshold_sq:
        return RelationCertificate(
            status="none-up-to-bound",
            relation=None,
            bound=bound,
            precision=precision,
            scale_log2=precision // 2,
            sv_lower_bound_sq=str(min_gs),
            threshold_sq=str(threshold_sq),
            detail={"m": m, "d": d},
        )
    raise PrecisionTooLow(
        "simultaneous relation search inconclusive: raise precision or lower the bound"
    )
