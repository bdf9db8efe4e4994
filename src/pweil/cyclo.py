"""Exact arithmetic in cyclotomic fields Q(zeta_n).

An element is an integer numerator vector on the power basis
1, zeta, ..., zeta^(phi(n)-1), reduced modulo the n-th cyclotomic
polynomial, over one positive integer denominator; numerator and
denominator are coprime, so the representation is canonical.  Ring
operations, the Galois action and the norm work on integers;
``fractions.Fraction`` appears only at the edges (``coeffs`` and
``as_rational``).  An embedding is one exact int dot product of
the numerator with a fixed-point table of cos and sin of 2 pi k / n, kept
per (n, working precision) and exact at the quarter turns; the character
sums of ``regulators`` read the same table.  Torsion is a lookup in a
table of the lcm(2, n) roots of unity kept per n.  The Galois group is
(Z/n)* acting by zeta -> zeta^a: sigma_a is the int a, and complex
conjugation is a = -1.
Conductors n = 2m with m odd are rejected (same field as Q(zeta_m)), so
field labels are unique.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from typing import Optional, Sequence

from .arith import (BallReal, ConfigError, _cos_sin_turn, _zm_rem_monic, binary_power,
                    is_prime, prime_factors)


# ---------------------------------------------------------------------------
# Integer-arithmetic helpers

def euler_phi(n: int) -> int:
    result = n
    for q in prime_factors(n):
        result -= result // q
    return result


def moebius(n: int) -> int:
    exps = prime_factors(n).values()
    return 0 if any(e > 1 for e in exps) else (-1) ** len(exps)


def ramanujan_sum(n: int, k: int) -> int:
    """Sum of zeta_n^(a k) over a in (Z/n)*; exact integer."""
    g = gcd(k % n, n)
    q = n // g
    mu = moebius(q)
    if mu == 0:
        return 0
    return mu * (euler_phi(n) // euler_phi(q))


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, little-endian, computed by exact division."""
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _zm_rem_monic(poly, cyclotomic_polynomial(d))
            if any(rem):
                raise ArithmeticError("Phi_%d does not divide" % d)
    return tuple(poly)


@lru_cache(maxsize=None)
def _power_rows(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """x^j mod Phi_n for j < n as sparse rows ((i, c), ...), one reduction step
    apart from j = phi(n) on; x^k is row k mod n, since Phi_n divides x^n - 1."""
    poly = cyclotomic_polynomial(n)
    deg = len(poly) - 1
    rows, row = [((j, 1),) for j in range(deg)], [0] * (deg - 1) + [1]
    for _ in range(deg, n):
        row = _zm_rem_monic([0] + row, poly)[1]
        rows.append(tuple((i, c) for i, c in enumerate(row) if c))
    return tuple(rows)


# ---------------------------------------------------------------------------
# The field

class CycloField:
    """The field Q(zeta_n) with a fixed embedding zeta -> exp(2 pi i / n).

    ``places`` lists one residue a_v per infinite place: the phi(n)/2
    smallest positive a coprime to n, one from each pair {a, n - a}.  The
    place with a_v = 1 corresponds to the fixed embedding itself.  A
    conductor below 3 or = 2 mod 4 raises ``ConfigError``.
    """

    def __init__(self, n: int):
        if n < 3:
            raise ConfigError("conductor must be >= 3")
        if n % 4 == 2:
            raise ConfigError("conductor %d = 2 mod 4: use conductor %d" % (n, n // 2))
        self.n = n
        self.degree = euler_phi(n)
        self.units = tuple(a for a in range(1, n) if gcd(a, n) == 1)
        self.places = tuple(a for a in range(1, (n + 1) // 2) if gcd(a, n) == 1)
        if len(self.places) * 2 != self.degree:
            raise ArithmeticError("%d places do not pair off %d embeddings"
                                  % (len(self.places), self.degree))
        self._one = CycloElt(self, (1,) + (0,) * (self.degree - 1), 1)  # elements are immutable

    def __repr__(self) -> str:
        return "CycloField(%d)" % self.n

    @cached_property
    def power_rows(self):
        # built on first use, so split_prime rejects a bad p without Phi_n
        return _power_rows(self.n)

    def __eq__(self, other) -> bool:
        return isinstance(other, CycloField) and self.n == other.n

    def __hash__(self):
        return hash(("CycloField", self.n))

    # -- element constructors

    def elt(self, coeffs: Sequence) -> "CycloElt":
        q = [c if isinstance(c, int) else Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in q))
        return CycloElt._make(self, [c.numerator * (den // c.denominator) for c in q], den)

    def zeta(self, k: int = 1) -> "CycloElt":
        k %= self.n
        return CycloElt._make(self, [0] * k + [1], 1)

    def one(self) -> "CycloElt":
        return self._one

    def from_rational(self, q) -> "CycloElt":
        return self.elt([q])

    def torsion_order(self) -> int:
        """Order of the group of roots of unity mu(Q(zeta_n))."""
        return self.n if self.n % 2 == 0 else 2 * self.n


# ---------------------------------------------------------------------------
# Elements

class CycloElt:
    """Element num / den of Q(zeta_n): num is an int tuple of length phi(n)
    on the power basis, den > 0 and gcd(den, *num) == 1."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: CycloField, num: tuple[int, ...], den: int):
        self.field = field
        self.num = num
        self.den = den

    @staticmethod
    def _make(field: CycloField, num: Sequence[int], den: int) -> "CycloElt":
        """num / den in canonical form: reduced modulo Phi_n, padded to
        phi(n) entries, numerator and denominator divided by their gcd; each
        x^k, k >= phi(n), adds along its sparse row (``_power_rows``)."""
        deg, n, rows = field.degree, field.n, field.power_rows
        out = list(num[:deg]) + [0] * (deg - len(num))
        for k in range(deg, len(num)):
            c = num[k]
            if c:
                for i, r in rows[k % n]:
                    out[i] += c * r
        num = out
        g = gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
        return CycloElt(field, tuple(num), den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as reduced fractions (the JSON edge)."""
        return tuple(Fraction(c, self.den) for c in self.num)

    # -- ring operations

    def _check(self, other: "CycloElt"):
        if self.field != other.field:
            raise ValueError("elements of different fields")

    def __add__(self, other):
        other = self._coerce(other)
        self._check(other)
        den = lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        return CycloElt._make(self.field, [a * sa + b * sb for a, b in zip(self.num, other.num)],
                              den)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        self._check(other)
        n = self.field.degree
        out = [0] * (2 * n - 1)
        for i, a in enumerate(self.num):
            if a:
                for j, b in enumerate(other.num):
                    if b:
                        out[i + j] += a * b
        return CycloElt._make(self.field, out, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        return self * other.inverse()

    def __neg__(self):
        return CycloElt(self.field, tuple(-a for a in self.num), self.den)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        if not isinstance(other, CycloElt):
            return NotImplemented
        return self.field == other.field and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.field.n, self.num, self.den))

    def _coerce(self, other) -> "CycloElt":
        if isinstance(other, CycloElt):
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        raise TypeError("cannot combine CycloElt with %r" % type(other))

    def is_zero(self) -> bool:
        return not any(self.num)

    def __pow__(self, e: int) -> "CycloElt":
        if e < 0:
            return self.inverse() ** (-e)
        return binary_power(self, e, self.field.one())

    def inverse(self) -> "CycloElt":
        """x^(-1) = adj / N(x), where adj is the product of the conjugates
        sigma_a(x) over a != 1 in (Z/n)*, so that x adj = N(x) is rational.
        N(x) > 0: Q(zeta_n) is a CM field, so the conjugates pair off as
        z and its complex conjugate."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        field = self.field
        adj = self.apply(field.units[1])
        for a in field.units[2:]:
            adj = adj * self.apply(a)
        nrm = self * adj
        c = nrm.num[0]
        if c <= 0 or any(nrm.num[1:]):
            raise ArithmeticError("N(x) is not a positive rational")
        return CycloElt._make(field, [nrm.den * a for a in adj.num], c * adj.den)

    # -- Galois action

    def apply(self, a: int) -> "CycloElt":
        """sigma_a(x), zeta -> zeta^a, for a unit a mod n."""
        n = self.field.n
        a %= n
        if gcd(a, n) != 1:
            raise ValueError("automorphism index %d not coprime to %d" % (a, n))
        out = [0] * n
        for i, c in enumerate(self.num):
            if c:
                out[(a * i) % n] += c
        return CycloElt._make(self.field, out, self.den)

    def conj(self) -> "CycloElt":
        return self.apply(-1)

    # -- rational-ness

    def as_rational(self) -> Fraction:
        if any(self.num[1:]):
            raise ValueError("element is not rational")
        return Fraction(self.num[0], self.den)

    def __repr__(self) -> str:
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                if i == 0:
                    terms.append(str(c))
                elif i == 1:
                    terms.append("%s*z" % c)
                else:
                    terms.append("%s*z^%d" % (c, i))
        return "CycloElt(n=%d: %s)" % (self.field.n, " + ".join(terms) or "0")


# ---------------------------------------------------------------------------
# Module-level operations

def norm(x: CycloElt) -> Fraction:
    """The norm N(x), the product of all phi(n) conjugates of x, exactly.

    With x = a / d (a = x.num in Z[zeta], d = x.den), N(x) is
    N(a) / d^phi(n), and N(a) = Res(Phi_n, a) is an integer.  Modulo a
    prime l = 1 (mod n), Phi_n splits as the product of (t - w^k) over k in
    (Z/n)*, where w has order n mod l, so N(a) = prod_k a(w^k) (mod l).
    Every conjugate of a has absolute value at most B = sum |a_i|, so
    |N(a)| <= B^phi(n); once the product of the primes used exceeds
    2 B^phi(n), the symmetric residue modulo that product is N(a) itself.
    The result is therefore exact for every input, with no rounding and no
    rational arithmetic before the final quotient.
    """
    d, a = x.den, x.num
    deg = x.field.degree
    target = 2 * sum(abs(c) for c in a) ** deg
    if target == 0:
        return Fraction(0)
    residue, modulus = 0, 1
    i = 0
    while modulus <= target:
        ell, roots = _norm_prime(x.field.n, i)
        i += 1
        coeffs = [c % ell for c in reversed(a)]
        value = 1
        for w in roots:
            acc = 0
            for c in coeffs:
                acc = (acc * w + c) % ell
            value = value * acc % ell
        # Garner step: lift residue from mod modulus to mod modulus * ell
        residue += modulus * ((value - residue) * pow(modulus, -1, ell) % ell)
        modulus *= ell
    if 2 * residue > modulus:
        residue -= modulus
    return Fraction(residue, d ** deg)


@lru_cache(maxsize=None)
def _norm_prime(n: int, i: int) -> tuple[int, tuple[int, ...]]:
    """The i-th prime l = 1 (mod n) above 2^62 and the phi(n) roots of Phi_n mod l."""
    ell = _norm_prime(n, i - 1)[0] + n if i else (2 ** 62 // n + 1) * n + 1
    while not is_prime(ell):
        ell += n
    qs = prime_factors(n)
    for c in range(2, ell):
        w = pow(c, (ell - 1) // n, ell)
        if all(pow(w, n // q, ell) != 1 for q in qs):
            break  # w has order exactly n
    units = [k for k in range(1, n) if gcd(k, n) == 1]
    return ell, tuple(pow(w, k, ell) for k in units)


def embed(x: CycloElt, place: int, precision: int = 64) -> tuple[BallReal, BallReal]:
    """Certified enclosure (re, im) of sigma_v(x) where zeta -> exp(2 pi i a_v / n).

    One exact int dot product at wp = precision + 16 bits: the ends of re
    and im of sigma_v(x.num) are the sums of c_i L_k or c_i H_k, k = a_v i,
    by the sign of c_i, over 2^wp, with L_k <= 2^wp cos(2 pi k / n) <= H_k
    (and sin) from ``_cos_sin_table``.  A non-integral x then divides once
    by x.den, outward on the grid 2^-(wp + g), g the bit length of x.den.
    """
    if precision < 16:
        raise ValueError("precision must be >= 16 bits")
    n = x.field.n
    e = wp = precision + 16
    table = _cos_sin_table(n, wp)
    rl = ru = il = iu = 0  # 2^e times the lower and upper ends of re and im
    for i, c in enumerate(x.num):
        if c:
            a, b, s, t = table[(place * i) % n][c < 0]
            rl, ru, il, iu = rl + c * a, ru + c * b, il + c * s, iu + c * t
    if x.den != 1:
        g, d = x.den.bit_length(), x.den
        e += g
        rl, ru, il, iu = (rl << g) // d, -(-(ru << g) // d), (il << g) // d, -(-(iu << g) // d)
    return BallReal.from_scaled_ints(rl, ru, e, wp), BallReal.from_scaled_ints(il, iu, e, wp)


@lru_cache(maxsize=None)
def _cos_sin_table(n: int, wp: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """For each k, (L_c, H_c, L_s, H_s) with L <= 2^wp cos or sin of 2 pi k / n
    <= H, and the same ends swapped for a negative coefficient: the ends of
    ``_cos_sin_turn`` at wp + 8 bits, floored and ceiled to the grid 2^-wp.
    Its error is below 2^-(wp + 1), so H - L <= 2, and L = H at a quarter
    turn (k = 0 among them), where the values are exact."""
    out = []
    for k in range(n):
        ys, err, W = _cos_sin_turn(k, n, wp + 8)
        d = W - wp
        (cl, ch), (sl, sh) = (((y - err) >> d, -(-(y + err) >> d)) for y in ys)
        out.append(((cl, ch, sl, sh), (ch, cl, sh, sl)))
    return tuple(out)


def is_root_of_unity(x: CycloElt) -> Optional[int]:
    """Order of x in mu(Q(zeta_n)), or None when x is not a root of unity.

    Decided exactly by lookup: mu(k) is cyclic of order w = lcm(2, n),
    generated by g = -zeta for odd n and g = zeta for even n, and
    ``_torsion_exponents(n)`` holds each g^k with its exponent k, so the
    order is w / gcd(k, w).
    """
    if x.is_zero():
        raise ZeroDivisionError("zero is not a root of unity candidate")
    k = _torsion_exponents(x.field.n).get(x)
    if k is None:
        return None
    w = x.field.torsion_order()
    return w // gcd(k, w)


@lru_cache(maxsize=None)
def _torsion_exponents(n: int) -> dict[CycloElt, int]:
    field = CycloField(n)
    g = -field.zeta() if n % 2 else field.zeta()
    return {g ** k: k for k in range(field.torsion_order())}
