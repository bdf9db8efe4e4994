"""Argument and p-adic regulators of E_p(k), with certified enclosures.

* argument vectors of basis elements at the infinite places; the basis is
  the Galois orbit of xi_{P0}, so its arguments are those of xi_{P0} at
  permuted places;
* bounded search for simultaneous rational relations among those vectors
  modulo 2 pi (a "none" outcome is a certificate at the stated bound and
  precision, never a proof of independence);
* the group determinant of the arguments of a basis element at the places
  of a cyclic Galois orbit, evaluated both directly and through its
  character factorization;
* the Z_p-valued regulator matrix, log_p of the modified local absolute
  values at the primes above p: one row, Galois-permuted, and a heuristic rank;
* the exact dimension of the closure of the argument image in the torus
  (span of the place-incidence vectors eps);
* the consistency identity tying the imaginary part of a Weil number's
  Frobenius exponent to its valuations, checked modulo (2 pi / log q) Q.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .arith import (
    BallReal,
    BranchCutHit,
    PrecisionTooLow,
    arg_principal,
    ball_det,
    padic_log,
    rational_reconstruct,
    split_p,
)
from .cyclo import CycloElt, _cos_sin_table, embed, is_root_of_unity
from .lattice import RelationCertificate, find_simultaneous_relation, kernel_basis_int
from .splitting import SplitData, ord_at
from .weilgroup import WeilBasis


class BasisMismatch(ArithmeticError):
    """The basis is not the Galois orbit that a computation reads it as."""


# ---------------------------------------------------------------------------
# Argument vectors

class ArgVector(NamedTuple):
    """Principal arguments of sigma_v(xi) at every infinite place:
    ``values[i]`` encloses arg sigma_v(xi) for v = ``places[i]``."""

    places: tuple[int, ...]
    values: tuple[BallReal, ...]


# Guard bits of certified_arg above precision // 2.  An argument ball at wp
# bits has a radius of at most about 2^(4 - wp - 16) (embed adds 16 bits), so
# 32 leaves more than 43 bits to spare: the first attempt suffices for every
# xi_P, x_P and Jacobi sum of the grid at 256 bits and of the analyze and
# certify benchmark cells at 1,024.
ARG_GUARD = 32
ARG_ATTEMPTS = 6  # working precisions certified_arg tries, doubling from precision // 2 + ARG_GUARD


def certified_arg(x: CycloElt, place: int, precision: int) -> BallReal:
    """Principal argument of sigma_v(x) with radius below 2^-(precision//2 + 1),
    as ``find_simultaneous_relation`` needs at its full scale 2^(precision//2).

    The first attempt embeds at wp = precision // 2 + ARG_GUARD bits, the
    precision that radius needs plus guard bits; wp depends on precision
    only, so ``embed`` reads one cos/sin table per (n, precision).  The
    integral numerator is embedded in place of x: x = x.num / x.den with
    x.den > 0, so sigma_v(x) and sigma_v(x.num) have the same argument.
    Retries at doubled working precision when the radius is too large or
    near the branch cut instead of silently picking a side; an element
    exactly on the negative real axis (only x = -1) resolves exactly.
    """
    target = precision // 2 + 1
    wp = precision // 2 + ARG_GUARD
    num = CycloElt(x.field, x.num, 1)
    last: Optional[Exception] = None
    for _ in range(ARG_ATTEMPTS):
        try:
            val = arg_principal(*embed(num, place, wp))
            if val.radius_below(target):
                return val
        except (BranchCutHit, PrecisionTooLow) as exc:
            last = exc
        wp *= 2
    if last is not None:
        raise last
    raise PrecisionTooLow("argument radius did not reach 2^-%d" % target)


def arg_vector(xi: CycloElt, precision: int = 128) -> ArgVector:
    """Argument vector of a norm-one element at all infinite places."""
    if xi * xi.conj() != xi.field.one():
        raise ValueError("argument vectors require x x^c = 1 (modulus one everywhere)")
    places = xi.field.places
    values = tuple(certified_arg(xi, v, precision) for v in places)
    return ArgVector(places, values)


# ---------------------------------------------------------------------------
# Independence certificates for the argument image modulo 2 pi Q

class IndependenceReport(NamedTuple):
    """Certificate produced by the bounded relation search, plus the exact
    rank-one resolution when the basis has a single element."""

    certificate: RelationCertificate
    rank_one_exact: Optional[bool]
    precision: int
    bound: int

    @property
    def consistent(self) -> bool:
        """False only when a genuine relation was found (falsification case)."""
        return self.certificate.status == "none-up-to-bound" or bool(self.rank_one_exact)

    def to_jsonable(self) -> dict:
        return {
            "certificate": self.certificate.to_jsonable(),
            "rank_one_exact": self.rank_one_exact,
            "precision": self.precision,
            "bound": self.bound,
        }


def argument_independence_certificate(
    basis: WeilBasis,
    bound: int = 10_000,
    precision: int = 512,
    offsets: Optional[Sequence[Sequence[int]]] = None,
) -> IndependenceReport:
    """Bounded search for rational relations among basis argument vectors mod 2 pi.

    A "none-up-to-bound" outcome supports linear independence of the
    argument vectors for any choice of branch (offsets only shift by lattice
    vectors already modded out); a found relation would be a falsification
    candidate and is returned with full provenance.  With a single basis
    element the question degenerates to "xi is not a root of unity", which
    is additionally decided exactly.

    The basis is the orbit of xi_{P0}, P0 = S[0]: xi_P = sigma_a(xi_{P0})
    with a the transporter of P, checked exactly, so its arguments take
    d = |places| calls to ``certified_arg`` in place of |S| d.  They are
    the principal theta_u = arg sigma_u(xi_{P0}), u in ``field.places``,
    and theta_{n-u} = -theta_u (|xi_{P0}| = 1 and xi_{P0} != -1); then
    arg sigma_v(xi_P) = theta_{va mod n}, each a ``certified_arg`` ball.

    For the xi_P "none-up-to-bound" must hold, whatever the bound: integers
    c with sum_i c_i arg_v(xi_i) = 2 pi k_v at every infinite place v make
    prod xi_i^(c_i) an element of modulus 1 and argument 0 at every place,
    that is 1; but its divisor is sum_i c_i (M/f)(e_{P_i^c} - e_{P_i}),
    nonzero for c != 0, as the exact structure checks verify.  So the
    search checks the certified arguments and the lattice code against the
    exact divisor structure, and a found relation signals a fault in them.
    """
    split = basis.split
    if not split.S:
        raise ValueError("empty basis: nothing to test")
    vectors = _orbit_arguments(basis, precision)
    if offsets is not None:
        if len(offsets) != len(vectors):
            raise ValueError("offset row count != basis size")
        turn = BallReal.pi(precision) * 2  # adds offsets[i][v] whole turns to arg sigma_v(xi_i)
        for i, offs in enumerate(offsets):
            if len(offs) != len(vectors[i]):
                raise ValueError("offset count != place count")
            vectors[i] = tuple(x + turn * k if k else x for x, k in zip(vectors[i], offs))
    two_pi = BallReal.pi(precision + 32) * 2
    cert = find_simultaneous_relation(vectors, two_pi, bound, precision)
    rank_one: Optional[bool] = None
    if len(split.S) == 1:
        rank_one = is_root_of_unity(basis.xi[split.S[0]]) is None
    return IndependenceReport(cert, rank_one, precision, bound)


def _orbit_arguments(basis: WeilBasis, precision: int) -> list[tuple[BallReal, ...]]:
    """Arguments of the xi_P, P in S, at ``field.places``, read off the
    certified arguments of xi_{P0} (see ``argument_independence_certificate``)."""
    split = basis.split
    field = split.field
    n = field.n
    transporters = _orbit_transporters(basis)
    theta = {}
    for u, t in zip(field.places, arg_vector(basis.xi[split.S[0]], precision).values):
        theta[u], theta[n - u] = t, -t
    return [tuple(theta[v * a % n] for v in field.places) for a in transporters]


def _orbit_transporters(basis: WeilBasis) -> list[int]:
    """The transporter a of each P in S, P = sigma_a(P0) with P0 = S[0]
    (``SplitData.transporter``), after checking xi_P = sigma_a(xi_{P0})
    exactly, as ``build_weil_basis`` builds it; raises BasisMismatch on a
    basis built otherwise."""
    split = basis.split
    out = []
    for idx in split.S:
        a = split.transporter[idx]
        if basis.xi[idx] != basis.xi[split.S[0]].apply(a):
            raise BasisMismatch("xi_%s is not sigma_%d(xi_%s)"
                                % (split.primes[idx].label, a, split.primes[split.S[0]].label))
        out.append(a)
    return out


# ---------------------------------------------------------------------------
# Group determinants for cyclic Galois orbits

class GroupDetReport(NamedTuple):
    sigma: int
    size: int
    thetas: tuple[BallReal, ...]
    delta: BallReal
    delta_factored: BallReal
    nonzero: bool
    precision: int

    def to_jsonable(self) -> dict:
        return {
            "sigma": self.sigma,
            "size": self.size,
            "thetas": [t.to_str(25) for t in self.thetas],
            "delta": self.delta.to_str(25),
            "delta_factored": self.delta_factored.to_str(25),
            "nonzero": self.nonzero,
            "precision": self.precision,
        }


def _orbit_mismatch(basis: WeilBasis, a: int) -> Optional[str]:
    """Why the sigma_a-orbit of xi = xi_{P0}, P0 = S[0], is not a rational
    basis of E_p(k) x Q on which <sigma_a> acts with order |S|, or None:
    sigma_a^|S| does not fix xi exactly (for example when it is complex
    conjugation: xi^c = xi^-1) or the conjugates fail to span, decided on
    the primes: ``build_weil_basis`` asserts that xi has divisor
    (M/f)(P0^c - P0), and sigma_a commutes with complex conjugation, so
    sigma_a^k(xi) has its divisor on the conjugate pair of sigma_a^k(P0).
    Divisors on distinct pairs are independent and the two on one pair are
    +-1 times each other, so the |S| conjugates span exactly when those
    pairs are distinct.  A non-unit a raises ValueError.
    """
    split = basis.split
    m = len(split.S)
    if m == 0:
        return "empty basis"
    n, p0 = split.field.n, split.S[0]
    xi = basis.xi[p0]
    if xi.apply(pow(a, m, n)) != xi:
        return "sigma^%d does not fix xi (the orbit does not close into a group)" % m
    pairs = {min(i, split.conj_index(i))
             for i in (split.act_index(pow(a, k, n), p0) for k in range(m))}
    if len(pairs) != m:
        return "conjugates do not span E_p(k) x Q"
    return None


def circulant_group_delta(thetas: Sequence[BallReal]) -> tuple[BallReal, BallReal]:
    """|det| of the circulant with first row thetas, and its character product.

    For the cyclic group of order m the group determinant factors as the
    product over the m-th roots of unity omega of |sum_i theta_i omega^i|;
    both enclosures are returned (they must overlap).  cos and sin of
    2 pi k / m come from embed's table ``_cos_sin_table(m, prec)``: m
    angles, not m^2.  Each part is squared through its absolute value, so
    a factor whose enclosure straddles 0 encloses 0 instead of raising.
    """
    m = len(thetas)
    prec = max(t.prec for t in thetas)
    rows = [[thetas[(c - r) % m] for c in range(m)] for r in range(m)]
    delta = abs(ball_det(rows))
    table = _cos_sin_table(m, prec)
    fact = BallReal.from_int(1, prec)
    for j in range(m):
        re = BallReal.zero(prec)
        im = BallReal.zero(prec)
        for i, t in enumerate(thetas):
            cl, ch, sl, sh = table[(i * j) % m][0]
            re = re + t * BallReal.from_scaled_ints(cl, ch, prec, prec)
            im = im + t * BallReal.from_scaled_ints(sl, sh, prec, prec)
        fact = fact * (abs(re) * abs(re) + abs(im) * abs(im)).sqrt()
    return delta, fact


def group_determinant(basis: WeilBasis, a: int, precision: int = 256) -> GroupDetReport:
    """Certified group determinant of the sigma_a-orbit of xi = xi_{P0}.

    Entry (r, c) of the underlying matrix is theta_(c-r), theta_k the
    principal argument of sigma_a^k(xi) under the fixed embedding, that is
    of xi at the place a^k mod n, so the orbit (checked by
    ``_orbit_mismatch``) is never built.  The enclosure of |det| and of the
    character-product factorization are both returned with a nonzero flag.
    """
    split = basis.split
    n = split.field.n
    a %= n
    reason = _orbit_mismatch(basis, a)
    if reason is not None:
        raise BasisMismatch(reason)
    xi = basis.xi[split.S[0]]
    thetas = [certified_arg(xi, pow(a, k, n), precision) for k in range(len(split.S))]
    delta, fact = circulant_group_delta(thetas)
    if not delta.overlaps(fact):
        raise ArithmeticError(
            "determinant and factorization enclosures are disjoint "
            "(soundness violation): %s vs %s" % (delta.to_str(20), fact.to_str(20))
        )
    nonzero = delta.excludes_zero() or fact.excludes_zero()
    return GroupDetReport(
        sigma=a, size=len(thetas), thetas=tuple(thetas), delta=delta,
        delta_factored=fact, nonzero=nonzero, precision=precision,
    )


def find_abelian_generator(basis: WeilBasis) -> Optional[int]:
    """Smallest a whose automorphism sigma_a makes the basis a closed cyclic orbit.

    Each a costs one exact comparison, sigma_a^|S|(xi_{P0}) == xi_{P0}, and
    a test that the sigma_a^k(P0), k < |S|, lie in distinct conjugate pairs:
    the divisor of sigma_a^k(xi_{P0}) lies on the pair of sigma_a^k(P0), so
    that is the span of the conjugates (see ``_orbit_mismatch``).
    """
    for a in basis.split.field.units:
        if _orbit_mismatch(basis, a) is None:
            return a
    return None


# ---------------------------------------------------------------------------
# The Z_p-valued regulator matrix

class GrossMatrix(NamedTuple):
    """Rows: basis elements xi_P (P in S); columns: all primes above p.

    Entries are log_p of the modified local absolute value (Nv)^(-ord_v)
    times the local norm, each an int: a p-adic integer mod p^precision.
    Row sums vanish (product formula); torsion elements give zero rows.
    The rows are permutations of one row (see ``gross_matrix``).
    """

    split: SplitData
    row_labels: tuple[str, ...]
    entries: tuple[tuple[int, ...], ...]
    precision: int
    heuristic_rank: int
    row_sum_min_valuation: int

    def to_jsonable(self) -> dict:
        return {
            "rows": list(self.row_labels),
            "columns": [pr.label for pr in self.split.primes],
            "precision": self.precision,
            "entries": [list(row) for row in self.entries],
            "heuristic_rank": self.heuristic_rank,
            "row_sum_min_valuation": self.row_sum_min_valuation,
        }

    def to_csv(self) -> str:
        lines = ["row," + ",".join(pr.label for pr in self.split.primes)]
        for label, row in zip(self.row_labels, self.entries):
            lines.append(label + "," + ",".join(map(str, row)))
        return "\n".join(lines) + "\n"


def gross_row(x: CycloElt, split: SplitData, K: int) -> tuple[list[int], int]:
    """log_p of the modified absolute values of x at every prime above p,
    as (row mod p^K', K') with K' the least precision among the logs.

    At P, the image of x.num under zeta -> w^e (``PrimeAbove.image``) is
    p^ord_num u with u a local unit, known mod p^K from the image at
    precision K + ord_num.  w is a root of unity of order prime to p, so
    Frobenius sends it to w^p and the conjugates of u are the units of the
    images of sigma_{p^i}(x), i < f: their product, the norm of u, must lie
    in Z/p^K.  It is divided by den^f.
    """
    p, n = split.p, split.field.n
    v_den, den = split_p(x.den, p)
    ring = split.ring_at(K)[0]
    inv_den = pow(den ** split.f, -1, ring.pK)
    conjugates = [x.apply(p ** i % n).num for i in range(split.f)]
    logs = []
    for pr in split.primes:
        ord_num = ord_at(pr, x) + v_den  # valuation of the numerator x.num
        unit_norm = ring.one()
        for num in conjugates:
            image = pr.image(num, K + ord_num)
            if image.valuation() != ord_num:
                raise ArithmeticError("valuation mismatch")
            unit_norm *= ring.elt([c // p ** ord_num for c in image.coeffs])
        if any(unit_norm.coeffs[1:]):
            raise ArithmeticError("the Frobenius product is not in Z/p^K")
        logs.append(padic_log(unit_norm.coeffs[0] * inv_den, p, K))
    prec = min((k for _, k in logs), default=K)
    return [v % p ** prec for v, _ in logs], prec


def gross_matrix(basis: WeilBasis, split: SplitData, K: int) -> GrossMatrix:
    """The regulator matrix of the basis with heuristic p-adic rank.

    Only the row of xi_{P0}, P0 = S[0], is computed.  For P = sigma_a(P0)
    in S, xi_P = sigma_a(xi_{P0}) is checked exactly (``_orbit_transporters``)
    and |sigma_a x|_{sigma_a Q} = |x|_Q, so the row of xi_P is that row
    permuted: its entry at Q is row0[sigma_a^-1 Q], and the matrix precision
    is that of row 0 (K when S is empty).
    """
    S, p = split.S, split.p
    row0, prec = gross_row(basis.xi[S[0]], split, K) if S else ([], K)
    rows = []
    for a in _orbit_transporters(basis):
        a_inv = pow(a, -1, split.field.n)
        rows.append(tuple(row0[split.act_index(a_inv, j)] for j in range(split.g)))

    total = sum(row0) % p ** prec  # every row is row 0 permuted: one sum
    return GrossMatrix(
        split=split,
        row_labels=tuple(split.primes[idx].label for idx in S),
        entries=tuple(rows),
        precision=prec,
        heuristic_rank=_padic_rank(rows, p, prec),
        row_sum_min_valuation=split_p(total, p)[0] if total else prec,
    )


def _padic_rank(rows: Sequence[Sequence[int]], p: int, prec: int) -> int:
    """Rank over Q_p at finite precision: pivot on minimal valuation."""
    a = [list(row) for row in rows]
    prec_left = prec
    rank = 0
    live_rows = list(range(len(a)))
    live_cols = list(range(len(a[0]) if a else 0))
    while live_rows and live_cols and prec_left > 0:
        best = None
        for i in live_rows:
            for j in live_cols:
                c = a[i][j] % (p ** prec_left)
                if c:  # then v_p(c) < prec_left
                    v = split_p(c, p)[0]
                    if best is None or v < best[0]:
                        best = (v, i, j)
        if best is None:
            break
        v, pi, pj = best
        rank += 1
        mod = p ** prec_left
        unit = (a[pi][pj] % mod) // (p ** v)
        inv_unit = pow(unit, -1, p ** (prec_left - v))
        for i in live_rows:
            if i == pi:
                continue
            c = a[i][pj] % mod
            if c % (p ** v):
                raise ArithmeticError("pivot column entry not divisible by p^%d" % v)
            factor = ((c // (p ** v)) * inv_unit) % (p ** (prec_left - v))
            if factor:
                for j in live_cols:
                    a[i][j] = (a[i][j] - factor * a[pi][j]) % mod
        live_rows.remove(pi)
        live_cols.remove(pj)
        prec_left -= v
    return rank


# ---------------------------------------------------------------------------
# Closure of the argument image in the torus

class ClosureReport(NamedTuple):
    """Dimension of the closure of the argument image, with the dual basis.

    The closure's dimension equals the rank of the span of the incidence
    vectors eps_{P,P'}(v) in (+1, -1, 0) recording whether sigma_v carries P
    to P' or to its conjugate; the annihilator lattice (the dual of the
    quotient torus) is returned as an integer basis.
    """

    dimension: int
    torus_dimension: int
    c_hat_basis: tuple[tuple[int, ...], ...]
    epsilons: dict

    @property
    def dense(self) -> bool:
        return self.dimension == self.torus_dimension

    def to_jsonable(self) -> dict:
        return {
            "dimension": self.dimension,
            "torus_dimension": self.torus_dimension,
            "dense": self.dense,
            "c_hat_basis": [list(r) for r in self.c_hat_basis],
            "epsilons": {k: list(v) for k, v in self.epsilons.items()},
        }


def epsilon_vector(split: SplitData, i: int, j: int) -> tuple[int, ...]:
    """eps_{P_i, P_j}: for each infinite place v, +1 if sigma_v P_i = P_j,
    -1 if sigma_v P_i = P_j^c, else 0."""
    jc = split.conj_index(j)
    out = []
    for a_v in split.field.places:
        img = split.act_index(a_v, i)
        if img == j:
            out.append(1)
        elif img == jc:
            out.append(-1)
        else:
            out.append(0)
    return tuple(out)


def closure_dimension(split: SplitData) -> ClosureReport:
    """Exact dimension of the closure of the argument image in the torus:
    r2 minus the rank of the annihilator of the eps vectors (all of Z^r2
    when S is empty), the left kernel of their transpose."""
    r2 = len(split.field.places)
    eps = {}
    for i in split.S:
        for j in split.S:
            key = "%s,%s" % (split.primes[i].label, split.primes[j].label)
            eps[key] = epsilon_vector(split, i, j)
    transpose = [[vec[v] for vec in eps.values()] for v in range(r2)]
    c_hat = [tuple(row) for row in kernel_basis_int(transpose)]
    return ClosureReport(
        dimension=r2 - len(c_hat),
        torus_dimension=r2,
        c_hat_basis=tuple(c_hat),
        epsilons=eps,
    )


# ---------------------------------------------------------------------------
# The angle-valuation identity for Weil numbers of any weight

class AngleIdentityReport(NamedTuple):
    """LHS and RHS of the identity Im(alpha) = sum_P f ord_P(lambda) arg_q(x_P^(1/M))
    modulo (2 pi / log q) Q, with the reconstructed rational."""

    weight: int
    q: int
    M: int
    lhs: BallReal
    t_form: BallReal
    s_form: BallReal
    forms_overlap: bool
    rational: Optional[Fraction]
    den_bound: int
    precision: int
    ords: dict

    @property
    def ok(self) -> bool:
        return self.forms_overlap and self.rational is not None

    def to_jsonable(self) -> dict:
        return {
            "weight": self.weight,
            "q": self.q,
            "M": self.M,
            "lhs": self.lhs.to_str(25),
            "t_form": self.t_form.to_str(25),
            "s_form": self.s_form.to_str(25),
            "forms_overlap": self.forms_overlap,
            "rational": str(self.rational) if self.rational is not None else None,
            "den_bound": self.den_bound,
            "precision": self.precision,
            "ords": self.ords,
            "ok": self.ok,
        }


def weil_angle_identity(lam: CycloElt, split: SplitData, basis: WeilBasis,
                        den_bound: int = 60, precision: int = 512) -> AngleIdentityReport:
    """Check that the valuations of lambda determine Im(alpha) mod (2 pi/log q) Q.

    lambda must satisfy lambda lambda^c = q^w exactly (weight w, q = p).
    The left side is arg(lambda)/log q at the fixed embedding; the right side
    is evaluated both as a sum over T (with the coherent branch
    arg(x_{P^c}) := -arg(x_P)) and as a sum over S in terms of xi_P; the two
    agree as exact reals and their enclosures must overlap.  The difference
    LHS - RHS times log q / 2 pi is then reconstructed as a rational with
    denominator at most den_bound.
    """
    field = split.field
    p = split.p
    t = lam * lam.conj()
    t_rat = t.as_rational()
    if t_rat.denominator != 1 or t_rat <= 0:
        raise ValueError("lambda lambda^c = %s is not a positive integer power of p" % t_rat)
    w, t_int = split_p(t_rat.numerator, p)
    if t_int != 1:
        raise ValueError("lambda lambda^c is not a power of p: residue %d" % t_int)

    M = basis.M
    base_place = field.places[0]
    wp = precision + 32
    log_q = BallReal.from_int(p, wp).log()
    lhs = certified_arg(lam, base_place, precision) / log_q

    ords = {pr.label: ord_at(pr, lam) for pr in split.primes}
    theta = {idx: certified_arg(basis.x[idx], base_place, precision) for idx in split.S}

    # T-indexed form: sum over all P in T of f ord_P(lambda) theta_P, with the
    # coherent branch theta_{P^c} = -theta_P
    t_sum = BallReal.zero(wp)
    for idx in split.S:
        cidx = split.conj_index(idx)
        t_sum = t_sum + theta[idx] * (split.f * ords[split.primes[idx].label])
        t_sum = t_sum + (-theta[idx]) * (split.f * ords[split.primes[cidx].label])
    t_form = t_sum / (M * log_q) if split.S else BallReal.zero(wp)

    # S-indexed form: (1/2) sum over S of log-ratio times the coherent branch
    # of arg(xi_P) = -2 theta_P (the derived identity carries the half)
    s_sum = BallReal.zero(wp)
    for idx in split.S:
        cidx = split.conj_index(idx)
        logratio = -split.f * (ords[split.primes[idx].label] - ords[split.primes[cidx].label])
        s_sum = s_sum + (theta[idx] * (-2)) * logratio
    s_form = s_sum / (2 * M * log_q) if split.S else BallReal.zero(wp)

    overlap = t_form.overlaps(s_form)
    ratio = (lhs - t_form) * log_q / (BallReal.pi(wp) * 2)
    rational = rational_reconstruct(ratio, den_bound)
    return AngleIdentityReport(
        weight=w, q=p, M=M, lhs=lhs, t_form=t_form, s_form=s_form,
        forms_overlap=overlap, rational=rational,
        den_bound=den_bound, precision=precision, ords=ords,
    )
