"""Exact integers, certified ball arithmetic and truncated Galois-ring arithmetic.

Three layers, used by every other module:

* exact arithmetic runs on Python ints: ``split_p`` is the one p-adic
  valuation of an integer, ``prime_factors`` the one factorization,
  ``is_prime`` the one primality test, ``binary_power`` the one
  square-and-multiply and ``_zm_rem_monic`` the one remainder modulo a
  monic polynomial, over Z/m or (m = 0) over Z; Z/p^K is ints too, and
  ``padic_log`` the logarithm of a unit of it; ``fractions.Fraction`` appears only at the edges, as ball
  endpoints and reconstructed rationals;
* ``BallReal`` / ``BallComplex`` wrap mpmath's directed-rounding interval
  kernels, so every operation returns an enclosure of the exact result;
  their sign, order and radius tests compare the mpf endpoints exactly, and
  the endpoints convert to and from ints over a power of 2, exactly or outward;
* ``GaloisRing`` / ``PadicElt`` model the unramified local ring
  Z_p[t]/(h(t)) truncated at precision p^K; the norm to Z/p^K is the
  determinant of multiplication by an element, taken fraction-free over Z,
  so it holds for non-units and any monic h.  No ring operation needs h
  irreducible mod p, so they also serve F_p[t]/(h) for a product h of
  factors, as in the Cantor-Zassenhaus split of Phi_n mod p.

All values are immutable; precision is carried per value, never global.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from mpmath.libmp import libmpi
from mpmath.libmp import (
    from_int as _mpf_from_int,
    from_man_exp as _mpf_from_man_exp,
    from_rational as _mpf_from_rational,
    fzero as _fzero,
    mpf_atan as _mpf_atan,
    mpf_le as _mpf_le,
    mpf_lt as _mpf_lt,
    mpf_sign as _mpf_sign,
    mpf_shift as _mpf_shift,
    mpf_sub as _mpf_sub,
    round_ceiling as _r_ceil,
    round_floor as _r_floor,
    round_nearest as _r_near,
    to_int as _mpf_to_int,
)


class PrecisionTooLow(ArithmeticError):
    """The enclosure is too wide to decide the question; retry with more bits."""


class BranchCutHit(PrecisionTooLow):
    """An argument enclosure straddles the cut at angle pi and cannot pick a side."""


class NotAUnit(ArithmeticError):
    """p-adic operation applied to a non-unit (value divisible by p)."""


# ---------------------------------------------------------------------------
# mpf helpers

def _mpf_man_exp(x) -> tuple[int, int]:
    """(m, e) with x = m 2^e exactly; an infinite or NaN x raises."""
    sign, man, exp, bc = x
    if not man and exp:
        raise OverflowError("interval endpoint is infinite")
    return (-int(man) if sign else int(man)), exp


def _mpf_to_fraction(x) -> Fraction:
    man, exp = _mpf_man_exp(x)
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


# ---------------------------------------------------------------------------
# BallReal

class BallReal:
    """A real number known to lie in a closed interval [lo, hi].

    Every arithmetic operation rounds outward, so the exact result of the
    corresponding exact-real operation is contained in the returned interval.
    ``prec`` is the working precision in bits for newly created endpoints.
    """

    __slots__ = ("_v", "prec")

    def __init__(self, interval, prec: int):
        self._v = interval
        self.prec = prec

    # -- constructors

    @staticmethod
    def from_int(n: int, prec: int = 53) -> "BallReal":
        m = _mpf_from_int(n)
        return BallReal((m, m), prec)

    @staticmethod
    def from_fraction(q, prec: int = 53) -> "BallReal":
        return BallReal.from_endpoints(q, q, prec)

    @staticmethod
    def from_endpoints(lo, hi, prec: int = 53) -> "BallReal":
        lo = Fraction(lo)
        hi = Fraction(hi)
        if lo > hi:
            raise ValueError("lower endpoint above upper endpoint")
        a = _mpf_from_rational(lo.numerator, lo.denominator, prec, _r_floor)
        b = _mpf_from_rational(hi.numerator, hi.denominator, prec, _r_ceil)
        return BallReal((a, b), prec)

    @staticmethod
    def from_scaled_ints(lo: int, hi: int, e: int, prec: int = 53) -> "BallReal":
        """The exact ball [lo 2^-e, hi 2^-e]."""
        return BallReal((_mpf_from_man_exp(lo, -e), _mpf_from_man_exp(hi, -e)), prec)

    @staticmethod
    def pi(prec: int) -> "BallReal":
        return BallReal(libmpi.mpi_pi(prec), prec)

    @staticmethod
    def zero(prec: int = 53) -> "BallReal":
        return BallReal((_fzero, _fzero), prec)

    # -- accessors

    @property
    def lower(self) -> Fraction:
        return _mpf_to_fraction(self._v[0])

    @property
    def upper(self) -> Fraction:
        return _mpf_to_fraction(self._v[1])

    @property
    def midpoint(self) -> Fraction:
        return (self.lower + self.upper) / 2

    @property
    def radius(self) -> Fraction:
        return (self.upper - self.lower) / 2

    def man_exp(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """Both endpoints as exact (m, e) pairs, m 2^e; infinite ones raise."""
        return _mpf_man_exp(self._v[0]), _mpf_man_exp(self._v[1])

    def int_bounds(self, e: int) -> tuple[int, int]:
        """floor(2^e lower) and ceil(2^e upper)."""
        return (_mpf_to_int(_mpf_shift(self._v[0], e), _r_floor),
                _mpf_to_int(_mpf_shift(self._v[1], e), _r_ceil))

    def radius_below(self, k: int) -> bool:
        """radius < 2^-k, that is upper - lower < 2^(1-k), exactly on the mpf endpoints."""
        return _mpf_lt(_mpf_sub(self._v[1], self._v[0]), _mpf_from_man_exp(1, 1 - k))

    def is_finite(self) -> bool:
        return all(man or not exp for _, man, exp, _ in self._v)

    def __repr__(self) -> str:
        return "BallReal(%s)" % libmpi.mpi_str(self._v, self.prec)

    def to_str(self, dps: int = 20) -> str:
        return libmpi.mpi_to_str(self._v, dps)

    # -- coercion

    def _coerce(self, other) -> "BallReal":
        if isinstance(other, BallReal):
            return other
        if isinstance(other, int):
            return BallReal.from_int(other, self.prec)
        if isinstance(other, Fraction):
            return BallReal.from_fraction(other, self.prec)
        return NotImplemented  # type: ignore[return-value]

    # -- arithmetic

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        prec = max(self.prec, other.prec)
        return BallReal(libmpi.mpi_add(self._v, other._v, prec), prec)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        prec = max(self.prec, other.prec)
        return BallReal(libmpi.mpi_sub(self._v, other._v, prec), prec)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__sub__(self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        prec = max(self.prec, other.prec)
        return BallReal(libmpi.mpi_mul(self._v, other._v, prec), prec)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        prec = max(self.prec, other.prec)
        return BallReal(libmpi.mpi_div(self._v, other._v, prec), prec)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__truediv__(self)

    def __neg__(self):
        return BallReal(libmpi.mpi_neg(self._v, self.prec), self.prec)

    def __abs__(self):
        return BallReal(libmpi.mpi_abs(self._v, self.prec), self.prec)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        return BallReal(libmpi.mpi_pow_int(self._v, n, self.prec), self.prec)

    def sqrt(self) -> "BallReal":
        return BallReal(libmpi.mpi_sqrt(self._v, self.prec), self.prec)

    def exp(self) -> "BallReal":
        return BallReal(libmpi.mpi_exp(self._v, self.prec), self.prec)

    def log(self) -> "BallReal":
        return BallReal(libmpi.mpi_log(self._v, self.prec), self.prec)

    def atan(self) -> "BallReal":
        """One ``mpf_atan`` at the exact midpoint, widened by rad / (1 + m^2)
        (mean value theorem; m the endpoint of least magnitude, 0 if the ball
        contains 0) and by one ulp for the evaluation's own rounding: mpmath
        sums with at least 30 guard bits and rounds once to nearest, an error
        below 1/2 ulp + 2^-25 ulp.  The widening is an int on the grid of
        1/16 ulp, rounded up; the ends are rounded outward.  A ball centred
        on 0 is its own enclosure (|atan x| <= |x|), so exact zero stays
        exact; an unbounded ball takes ``mpi_atan``, an evaluation at each end.
        """
        prec = self.prec
        if not self.is_finite():
            return BallReal(libmpi.mpi_atan(self._v, prec), prec)
        (a, ea), (b, eb) = self.man_exp()
        e = min(ea, eb)
        a, b = a << (ea - e), b << (eb - e)  # the ball is [a 2^e, b 2^e]
        if a + b == 0:
            return self
        val = _mpf_atan(_mpf_from_man_exp(a + b, e - 1), prec, _r_near)
        sign, man, vexp, vbc = val
        g = vexp + vbc - prec - 4  # 2^g = 1/16 ulp of val
        m = 0 if a <= 0 <= b else min(abs(a), abs(b))
        t = max(0, -e)  # rad / (1 + m^2) = (b - a) 2^(e - 1 + 2t) / (2^2t + (m 2^(e+t))^2)
        num, den, shift = b - a, (1 << 2 * t) + (m << (e + t)) ** 2, e - 1 + 2 * t - g
        num, den = (num << shift, den) if shift >= 0 else (num, den << -shift)
        widen = 16 - (-num // den)
        mid = (-man if sign else man) << (vexp - g)
        return BallReal((_mpf_from_man_exp(mid - widen, g, prec, _r_floor),
                         _mpf_from_man_exp(mid + widen, g, prec, _r_ceil)), prec)

    def cos(self) -> "BallReal":
        return BallReal(libmpi.mpi_cos(self._v, self.prec), self.prec)

    def sin(self) -> "BallReal":
        return BallReal(libmpi.mpi_sin(self._v, self.prec), self.prec)

    # -- predicates (certified; True only when provable from the enclosure),
    # exact comparisons of the mpf endpoints, infinite ones included

    def contains_zero(self) -> bool:
        return _mpf_sign(self._v[0]) <= 0 <= _mpf_sign(self._v[1])

    def excludes_zero(self) -> bool:
        return self.is_positive() or self.is_negative()

    def is_positive(self) -> bool:
        return _mpf_sign(self._v[0]) > 0

    def is_negative(self) -> bool:
        return _mpf_sign(self._v[1]) < 0

    def is_exact_zero(self) -> bool:
        return self._v[0] == _fzero and self._v[1] == _fzero

    def contains(self, q) -> bool:
        q = Fraction(q)
        return self.lower <= q <= self.upper

    def overlaps(self, other: "BallReal") -> bool:
        return _mpf_le(self._v[0], other._v[1]) and _mpf_le(other._v[0], self._v[1])

    def mignitude(self) -> Fraction:
        """Certified lower bound for the absolute value (0 if 0 is enclosed)."""
        if self.contains_zero():
            return Fraction(0)
        return min(abs(self.lower), abs(self.upper))

    def magnitude(self) -> Fraction:
        return max(abs(self.lower), abs(self.upper))


# ---------------------------------------------------------------------------
# BallComplex

class BallComplex:
    """Componentwise enclosure of a complex number."""

    __slots__ = ("re", "im")

    def __init__(self, re: BallReal, im: BallReal):
        self.re = re
        self.im = im

    def __add__(self, other: "BallComplex") -> "BallComplex":
        return BallComplex(self.re + other.re, self.im + other.im)

    def __mul__(self, other) -> "BallComplex":
        if isinstance(other, BallComplex):
            return BallComplex(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        return BallComplex(self.re * other, self.im * other)

    __rmul__ = __mul__

    def conj(self) -> "BallComplex":
        return BallComplex(self.re, -self.im)

    def abs2(self) -> BallReal:
        return self.re * self.re + self.im * self.im

    def __abs__(self) -> BallReal:
        return self.abs2().sqrt()


def arg_principal(z: BallComplex) -> BallReal:
    """Principal-branch argument of ``z``, certified, with values in (-pi, pi].

    Raises BranchCutHit when the imaginary enclosure straddles 0 on the
    negative real side (the branch cannot be decided at this precision), and
    PrecisionTooLow when the enclosure of ``z`` contains 0.  A point exactly
    on the negative real axis (imaginary part identically zero) yields pi.
    """
    re, im = z.re, z.im
    prec = max(re.prec, im.prec)
    if re.is_positive():
        return (im / re).atan()
    if im.is_positive():
        return BallReal.pi(prec) / 2 - (re / im).atan()
    if im.is_negative():
        return -(BallReal.pi(prec) / 2) - (re / im).atan()
    if im.is_exact_zero():
        if re.is_negative():
            return BallReal.pi(prec)
        raise PrecisionTooLow("argument of an enclosure containing 0")
    if re.is_negative():
        raise BranchCutHit("imaginary enclosure straddles the cut at angle pi")
    raise PrecisionTooLow("argument of an enclosure containing 0")


# ---------------------------------------------------------------------------
# Certified determinant

def ball_det(rows: Sequence[Sequence[BallReal]]) -> BallReal:
    """Enclosure of the determinant of a square BallReal matrix.

    Gaussian elimination with mignitude pivoting; when no usable pivot
    remains the Hadamard bound supplies a (wide but valid) enclosure.
    """
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValueError("matrix must be square and nonempty")
    a = [list(r) for r in rows]
    prec = max(x.prec for r in a for x in r)
    if n == 1:
        return a[0][0]
    sign = 1
    pivots: list[BallReal] = []
    for k in range(n):
        best, best_mig = None, Fraction(0)
        for i in range(k, n):
            mig = a[i][k].mignitude()
            if mig > best_mig:
                best, best_mig = i, mig
        if best is None:
            return _hadamard_interval(rows, prec)
        if best != k:
            a[k], a[best] = a[best], a[k]
            sign = -sign
        piv = a[k][k]
        pivots.append(piv)
        for i in range(k + 1, n):
            factor = a[i][k] / piv
            for j in range(k + 1, n):
                a[i][j] = a[i][j] - factor * a[k][j]
    det = pivots[0]
    for piv in pivots[1:]:
        det = det * piv
    return det if sign == 1 else -det


def _hadamard_interval(rows, prec: int) -> BallReal:
    bound = Fraction(1)
    for r in rows:
        s = sum((x.magnitude() ** 2 for x in r), Fraction(0))
        # integer square root of ceil(s), rounded up: coarse but sound
        num = -(-s.numerator // s.denominator)
        root = _isqrt_ceil(num)
        bound *= root
    return BallReal.from_endpoints(-bound, bound, prec)


def _isqrt_ceil(n: int) -> int:
    import math

    r = math.isqrt(n)
    return r if r * r == n else r + 1


# ---------------------------------------------------------------------------
# Rational reconstruction

def rational_reconstruct(x: BallReal, den_bound: int) -> Optional[Fraction]:
    """The unique rational p/q with q <= den_bound inside the ball, if any.

    Requires radius(x) < 1/(2 den_bound^2); two distinct rationals with
    denominator <= den_bound differ by at least 1/den_bound^2, so at most one
    can lie in the interval and the closest-to-midpoint candidate is it.
    """
    if den_bound < 1:
        raise ValueError("den_bound must be >= 1")
    if not x.is_finite():
        raise PrecisionTooLow("interval has infinite endpoints")
    if x.radius >= Fraction(1, 2 * den_bound * den_bound):
        raise PrecisionTooLow(
            "radius %s >= 1/(2*%d^2)" % (x.radius, den_bound)
        )
    cand = x.midpoint.limit_denominator(den_bound)
    return cand if x.contains(cand) else None


# ---------------------------------------------------------------------------
# Polynomials over F_p (dense, little-endian coefficient lists)

def fp_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def fp_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return fp_trim(out)


def fp_divmod(a, b, p):
    a = [c % p for c in a]
    b = [c % p for c in b]
    fp_trim(a)
    fp_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = pow(b[-1], -1, p)
    q = [0] * max(len(a) - len(b) + 1, 0)
    r = a[:]
    while len(r) >= len(b):
        coef = (r[-1] * inv_lead) % p
        deg = len(r) - len(b)
        q[deg] = coef
        for i, cb in enumerate(b):
            r[deg + i] = (r[deg + i] - coef * cb) % p
        fp_trim(r)
        if not r:
            break
    return fp_trim(q), r


def fp_gcd(a, b, p):
    a, b = a[:], b[:]
    while b:
        _, a = fp_divmod(a, b, p)
        a, b = b, a
    if a:
        inv_lead = pow(a[-1], -1, p)
        a = [(c * inv_lead) % p for c in a]
    return a


# ---------------------------------------------------------------------------
# Polynomials over Z/m (monic reduction only, used by the Galois ring and,
# with m = 0, by the integer arithmetic of Q(zeta_n))

def _zm_rem_monic(a: Sequence[int], h: Sequence[int], m: int = 0) -> list[int]:
    """Remainder of a modulo the monic polynomial h, padded to deg h entries.

    Coefficients are reduced mod m; m = 0 keeps exact integers (Z/0 = Z).
    """
    r = list(a)
    deg_h = len(h) - 1
    while len(r) > deg_h:
        lead = r.pop()
        if m:
            lead %= m  # the rest is reduced once, at the end
        if lead:
            shift = len(r) - deg_h
            for i in range(deg_h):
                r[shift + i] -= lead * h[i]
    r += [0] * (deg_h - len(r))
    return [c % m for c in r] if m else r


# ---------------------------------------------------------------------------
# Galois rings GR(p^K, f) = (Z/p^K)[t]/(h) with h monic of degree f

class GaloisRing:
    """(Z/p^K)[t]/(h) for a monic h of degree f: the truncated unramified local
    ring of residue degree f when h is irreducible mod p.  Its operations
    (sums, products, powers, valuations and the norm; there is no inverse)
    hold for any monic h.  Z/p^K itself is plain ints (see ``padic_log``)."""

    def __init__(self, p: int, prec: int, f: int, modulus: Sequence[int]):
        if prec < 1 or f < 1:
            raise ValueError("precision and residue degree must be positive")
        if len(modulus) != f + 1:
            raise ValueError("modulus must have degree f")
        self.p = p
        self.prec = prec
        self.f = f
        self.pK = p ** prec
        if modulus[-1] % self.pK != 1:
            raise ValueError("modulus must be monic")
        self.modulus = tuple(c % self.pK for c in modulus)

    # -- element constructors

    def elt(self, coeffs: Sequence[int]) -> "PadicElt":
        c = [x % self.pK for x in coeffs]
        if len(c) > self.f:
            c = _zm_rem_monic(c, self.modulus, self.pK)
        else:
            c = c + [0] * (self.f - len(c))
        return PadicElt(self, tuple(c))

    def from_int(self, n: int) -> "PadicElt":
        return self.elt([n])

    def one(self) -> "PadicElt":
        return self.from_int(1)

    # -- internal coefficient ops

    def _add(self, a, b):
        return tuple((x + y) % self.pK for x, y in zip(a, b))

    def _sub(self, a, b):
        return tuple((x - y) % self.pK for x, y in zip(a, b))

    def _mul(self, a, b):
        out = [0] * (2 * self.f - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return tuple(_zm_rem_monic(out, self.modulus, self.pK))  # reduces mod p^K once

    # -- ring structure

    def valuation(self, x: "PadicElt") -> Optional[int]:
        """min p-adic valuation of the coefficients; None when x = 0 mod p^K."""
        best: Optional[int] = None
        for c in x.coeffs:
            if c == 0:
                continue
            v = split_p(c, self.p)[0]
            if best is None or v < best:
                best = v
                if best == 0:
                    return 0
        return best

    # -- norm

    def norm(self, x: "PadicElt") -> int:
        """The norm to Z/p^K: the determinant of multiplication by x on the
        basis 1, t, ..., t^(f-1).  Fraction-free (Bareiss) elimination over Z
        on the representatives in [0, p^K), reduced mod p^K once at the end,
        so x need not be a unit nor the modulus irreducible."""
        f, pK = self.f, self.pK
        # row j holds the coefficients of x t^j; the transpose has the same det
        a = [list(x.coeffs)]
        for _ in range(f - 1):
            a.append(_zm_rem_monic([0] + a[-1], self.modulus, pK))
        sign, prev = 1, 1
        for k in range(f - 1):
            if a[k][k] == 0:
                piv = next((i for i in range(k + 1, f) if a[i][k]), None)
                if piv is None:
                    return 0
                a[k], a[piv] = a[piv], a[k]
                sign = -sign
            for i in range(k + 1, f):
                for j in range(k + 1, f):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            prev = a[k][k]
        return sign * a[-1][-1] % pK

    def __repr__(self) -> str:
        return "GaloisRing(p=%d, prec=%d, f=%d)" % (self.p, self.prec, self.f)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GaloisRing)
            and (self.p, self.prec, self.f, self.modulus)
            == (other.p, other.prec, other.f, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.prec, self.f, self.modulus))


class PadicElt:
    """Element of a GaloisRing: polynomial of degree < f, coefficients mod p^K."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: GaloisRing, coeffs: tuple[int, ...]):
        self.ring = ring
        self.coeffs = coeffs

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PadicElt)
            and (self.ring, self.coeffs) == (other.ring, other.coeffs)
        )

    def __hash__(self):
        return hash((self.ring, self.coeffs))

    def __add__(self, other: "PadicElt") -> "PadicElt":
        return PadicElt(self.ring, self.ring._add(self.coeffs, other.coeffs))

    def __sub__(self, other: "PadicElt") -> "PadicElt":
        return PadicElt(self.ring, self.ring._sub(self.coeffs, other.coeffs))

    def __mul__(self, other: "PadicElt") -> "PadicElt":
        return PadicElt(self.ring, self.ring._mul(self.coeffs, other.coeffs))

    def __neg__(self) -> "PadicElt":
        return PadicElt(self.ring, tuple((-c) % self.ring.pK for c in self.coeffs))

    def __pow__(self, e: int) -> "PadicElt":
        return binary_power(self, e, self.ring.one())

    def valuation(self) -> Optional[int]:
        return self.ring.valuation(self)

    def __repr__(self) -> str:
        return "PadicElt(p=%d, K=%d, %r)" % (self.ring.p, self.ring.prec, list(self.coeffs))


def binary_power(x, e: int, one):
    """x^e for an int e >= 0 by square-and-multiply from the identity ``one``;
    x is anything with an exact, associative ``*``."""
    result = one
    while True:
        if e & 1:
            result = result * x
        e >>= 1
        if not e:
            return result
        x = x * x


# Miller-Rabin bases of is_prime, the first 13 primes, and psi_13, the least
# strong pseudoprime to all of them (J. Sorenson and J. Webster, Math. Comp.
# 86, 2017).  12 bases do not suffice: psi_12 = 318665857834031151167461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3317044064679887385961981


def is_prime(m: int) -> bool:
    """Whether the integer m is prime, exactly: below MR_BOUND by Miller-Rabin
    with the bases _MR_BASES, which is deterministic there; at or above it
    by trial division (``prime_factors``)."""
    if m < 2:
        return False
    if m >= MR_BOUND:
        return prime_factors(m) == {m: 1}
    for q in _MR_BASES:
        if m % q == 0:
            return m == q
    s, t = split_p(m - 1, 2)
    for b in _MR_BASES:
        y = pow(b, t, m)  # b is a witness unless y = 1 or some y^(2^i) = -1, i < s
        if y != 1 and m - 1 not in (pow(y, 2 ** i, m) for i in range(s)):
            return False
    return True


def prime_factors(n: int) -> dict[int, int]:
    """{q: v_q(n)} over the primes q dividing the integer n >= 1, by trial division."""
    out = {}
    d = 2
    while d * d <= n:
        if n % d == 0:
            out[d], n = split_p(n, d)
        d += 1
    if n > 1:
        out[n] = 1
    return out


def split_p(n: int, p: int) -> tuple[int, int]:
    """(v, m) with n = p^v m and m prime to p, for a nonzero integer n."""
    if n == 0:
        raise ValueError("valuation of zero")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def padic_log(u: int, p: int, K: int) -> tuple[int, int]:
    """Iwasawa-normalized p-adic logarithm of a unit u of Z/p^K.

    Returns (log_p u mod p^K', K').  The Teichmueller part is killed by
    raising to the power p - 1, the series log(1+x) is summed to precision
    and the result divided back.  K' = K - g, where g <= ceil(log_p K) + 1
    accounts for the divisions by p inside the series; a Teichmueller unit
    has logarithm exactly 0, at full precision K.
    """
    pK = p ** K
    if u % p == 0:
        raise NotAUnit("padic_log requires a unit")
    x = pow(u, p - 1, pK) - 1
    if x == 0:
        return 0, K

    # last series index with term valuation possibly below K
    m_max = 1
    while m_max - _ilog(m_max, p) < K:
        m_max += 1
    K_out = K - _ilog(m_max, p)
    if K_out <= 0:
        raise PrecisionTooLow("precision %d too small for padic_log at p=%d" % (K, p))

    p_out = p ** K_out
    acc = 0  # the sum of (-1)^(m+1) x^m / m, valid mod p^K_out
    xpow = 1
    for m in range(1, m_max + 1):
        xpow = xpow * x % pK
        a, m_unit = split_p(m, p)
        # x^m / m_unit is divisible by p^a and known mod p^K, so its
        # representative in [0, p^K) is divisible by p^a as well
        term = xpow * pow(m_unit, -1, pK) % pK // p ** a
        acc = acc + term if m % 2 else acc - term
    return acc * pow(p - 1, -1, p_out) % p_out, K_out


def _ilog(n: int, p: int) -> int:
    """floor(log_p n) for n >= 1."""
    v = 0
    while n >= p:
        n //= p
        v += 1
    return v
