"""Exact integers, certified ball arithmetic and truncated Galois-ring arithmetic.

Three layers, used by every other module:

* exact arithmetic runs on Python ints: ``split_p`` is the one p-adic
  valuation of an integer, ``prime_factors`` the one factorization,
  ``is_prime`` the one primality test, ``binary_power`` the one
  square-and-multiply and ``_zm_rem_monic`` the one division by a monic
  polynomial, quotient and remainder, over Z/m or (m = 0) over Z; Z/p^K
  is ints too, and ``padic_log`` the logarithm of a unit of it;
  ``fractions.Fraction`` appears only at the edges, as ball endpoints and
  reconstructed rationals;
* ``BallReal`` is an interval whose two ends are finite dyadic numbers
  m 2^e on Python ints, rounded outward to the ball's precision after
  every operation, so every operation returns an enclosure of the exact
  result; a complex enclosure is a plain (re, im) pair of them.  Sums,
  products, quotients and square roots are correctly rounded, as in
  mpmath's interval arithmetic, and a division by a ball that contains 0
  raises ``PrecisionTooLow``, as every question an enclosure cannot decide
  does; pi, atan and log are
  fixed-point series with a stated error bound, rounded correctly by
  raising the working precision until the rounding is settled
  (``_settle``).  cos and sin are needed only at 2 pi k / n: one
  fixed-point kernel, ``_cos_sin_turn``, reduces by the nearest quarter
  turn exactly and states its error bound, and ``cyclo`` floors and ceils
  it into its table.  The sign, order and radius tests compare the ends
  exactly, and the ends convert to and from ints over a power of 2,
  exactly or outward;
* ``GaloisRing`` / ``PadicElt`` model the unramified local ring
  Z_p[t]/(h(t)) truncated at precision p^K.  No ring operation needs h
  irreducible mod p, so they also serve F_p[t]/(h) for a product h of
  factors, as in the Cantor-Zassenhaus split of Phi_n mod p.

All values are immutable; precision is carried per value, never global.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence


class ConfigError(ValueError):
    """Invalid input: a bad option, conductor, prime, range or character (exit 2)."""


class PrecisionTooLow(ArithmeticError):
    """The enclosure is too wide to decide the question; retry with more bits."""


class BranchCutHit(PrecisionTooLow):
    """An argument enclosure straddles the cut at angle pi and cannot pick a side."""


class NotAUnit(ArithmeticError):
    """p-adic operation applied to a non-unit (value divisible by p)."""


# ---------------------------------------------------------------------------
# Dyadic ends: (m, e) is m 2^e exactly, m odd or (m, e) = (0, 0).  Rounding
# to prec significant bits goes down (up=False), up (True) or to nearest (None).

def _norm(m: int, e: int) -> tuple[int, int]:
    t = (m & -m).bit_length() - 1
    return (m >> t, e + t) if m else (0, 0)


def _round(m: int, e: int, prec: int, up) -> tuple[int, int]:
    n = m.bit_length() - prec
    if n > 0:
        m = (m + (1 << (n - 1))) >> n if up is None else -(-m >> n) if up else m >> n
        e += n
    return _norm(m, e)


def _cmp(x, y) -> int:
    """The sign of x - y."""
    (a, ea), (b, eb) = x, y
    a, b = (a << (ea - eb), b) if ea > eb else (a, b << (eb - ea))
    return (a > b) - (a < b)


def _add(x, y, prec: int, up):
    """x + y, rounded.  A summand y below 2^(L-1), L = min(e_x, top bit of x
    - prec - 2), becomes +-2^(L-2): x is a multiple of 2^L and the rounding
    grid near x at least 2^(L+1), so both sums lie strictly between the same
    two grid points and round alike, and the sum keeps about prec bits."""
    (a, ea), (b, eb) = x, y
    if not (a and b):
        return _round(a, ea, prec, up) if a else _round(b, eb, prec, up)
    if ea < eb:
        a, ea, b, eb = b, eb, a, ea
    low = min(ea, a.bit_length() + ea - prec - 2)
    if b.bit_length() + eb < low:
        b, eb = (1 if b > 0 else -1), low - 2
    return _round((a << (ea - eb)) + b, eb, prec, up)


def _sub(x, y, prec: int, up):
    return _add(x, (-y[0], y[1]), prec, up)


def _mul(x, y, prec: int, up):
    return _round(x[0] * y[0], x[1] + y[1], prec, up)


def _div(x, y, prec: int, up):
    """x / y, rounded: a quotient q of at least prec + 1 bits, and 2q + 1 (a
    sticky bit) if inexact, as no grid point lies between q and q + 1."""
    (a, ea), (b, eb) = x, y
    if b < 0:
        a, b = -a, -b
    k = max(0, prec + 1 + b.bit_length() - a.bit_length())
    q, r = divmod(a << k, b)
    if r:
        return _round(2 * q + 1, ea - eb - k - 1, prec, up)
    return _round(q, ea - eb - k, prec, up)


def _sqrt(x, prec: int, up):
    """sqrt(x), rounded, with the sticky bit of ``_div``."""
    a, e = x
    if a < 0:
        raise ValueError("square root of a negative number")
    k = max(0, 2 * prec + 4 - a.bit_length())
    k += (e - k) & 1
    r = math.isqrt(a << k)
    if r * r == a << k:
        return _round(r, (e - k) // 2, prec, up)
    return _round(2 * r + 1, (e - k) // 2 - 1, prec, up)


def _fraction(x) -> Fraction:
    m, e = x
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)


_LOG2_10 = math.log(10, 2)


def _to_str(x, dps: int) -> str:
    """An end as mpmath's ``to_str`` prints it: dps + 3 decimal digits
    truncated by its fixed-point reckoning, rounded half up to dps digits,
    fixed-point between 10^-max(5, dps // 3) and 10^dps, trailing zeros
    stripped; of a huge value only the leading digits go through str."""
    m, e = x
    if not m:
        return "0.0"
    sign, m = ("-", -m) if m < 0 else ("", m)
    fix = max(int((dps + 3) * _LOG2_10) + 10 - e - m.bit_length(), 0)
    fixdps = int(fix / _LOG2_10 + 0.5)
    n = (m << (e + fix) if e + fix >= 0 else m >> -(e + fix)) * 10 ** fixdps >> fix
    k = max(0, n.bit_length() * 3 // 10 - dps - 5)  # drops digits past dps + 3 of a huge n
    digits = str(n // 10 ** k)
    exponent = len(digits) + k - fixdps - 1
    digits = str(int(digits[:dps]) + (digits[dps:dps + 1] >= "5"))
    if len(digits) > dps:
        digits, exponent = digits[:dps], exponent + 1
    split = 1
    if min(-(dps // 3), -5) < exponent < dps:
        digits, split, exponent = "0" * -exponent + digits, max(exponent, 0) + 1, 0
    digits = (digits[:split] + "." + digits[split:]).rstrip("0")
    digits += "0" if digits[-1] == "." else ""
    return sign + digits + ("e%+d" % exponent if exponent else "")


# ---------------------------------------------------------------------------
# Fixed-point kernels.  Each returns (ys, err, s): ints y with
# |y - 2^s v| <= err for each value v it approximates at working precision w.

def _settle(f, prec: int, modes=(False, True)) -> list:
    """The values v that f approximates, correctly rounded to prec bits in
    each mode, [per value][per mode].  w starts at prec + 32 and doubles
    until y - err and y + err round alike, which an irrational v reaches: it
    is on no rounding boundary."""
    w = prec + 32
    while True:
        ys, err, s = f(w)
        out = [[_round(y - err, -s, prec, up) for up in modes] for y in ys]
        if out == [[_round(y + err, -s, prec, up) for up in modes] for y in ys]:
            return out
        w *= 2


def _atan_series(a: int, b: int, w: int, alternate: bool = True) -> tuple[int, int]:
    """(y, err): |y - 2^w sum_j (-+1)^j z^(2j+1) / (2j+1)| <= err for z =
    a / b in [0, 1/2], the series of atan z (alternating) or atanh z.  Each
    term is a floor of the last times z^2 (error below 8/3, z^2 being a
    w-bit fixed-point int for a long b) and a floor of its quotient (below
    1 more), and the tail once a term is 0 is below 5."""
    total, term, j = 0, (a << w) // b, 1
    a2, b2, shift = a * a, b * b, 0
    if b2 >> 64:
        a2, shift = (a2 << w) // b2, w
    while term:
        t = term // j
        total += -t if alternate and j & 2 else t
        term = term * a2 >> shift if shift else term * a2 // b2
        j += 2
    return total, 2 * j + 6


_KEPT: dict = {}  # name -> (w, y) with |y - 2^w c| < 1.1, for the largest w asked for


def _kept(name: str, w: int, series) -> int:
    """y with |y - 2^w c| < 2 for the constant c, where series(W) must be
    within 2^(g - 4) of 2^W c at W = w + g, g = log2(w) + 10 guard bits;
    kept for the largest w so far and shifted down for a smaller one."""
    big, y = _KEPT.get(name, (0, 0))
    if w > big:
        big = max(w, 2 * big)
        g = big.bit_length() + 10
        big, y = _KEPT[name] = big, series(big + g) >> g
    return y >> (big - w)


def _pi_fixed(w: int) -> int:
    """2^w pi within 2 (``_kept``): Machin's pi = 16 atan(1/5) - 4 atan(1/239),
    the series errors under 15 W + 200 in all, below 2^(g - 4) for w >= 8."""
    return _kept("pi", w, lambda W: 16 * _atan_series(1, 5, W)[0] - 4 * _atan_series(1, 239, W)[0])


def _ln2_fixed(w: int) -> int:
    """2^w log 2 within 2 (``_kept``): log 2 = 2 atanh(1/3), twice the
    series error under 3 W + 20, below 2^(g - 4) for every w."""
    return _kept("log 2", w, lambda W: 2 * _atan_series(1, 3, W, False)[0])


@lru_cache(maxsize=None)
def _pi_ends(prec: int) -> list:
    return _settle(lambda w: ((_pi_fixed(w),), 2, w), prec)[0]


def _log_fixed(m: int, e: int, w: int):
    """log(m 2^e), m > 0 and m 2^e != 1: with m = 2^k (1 + z) / (1 - z), k
    chosen so that |z| <= 1/5, it is (k + e) log 2 + 2 atanh z; the error is
    twice that of the series for z plus 2 |k + e| (``_ln2_fixed``)."""
    k = (3 * m).bit_length() - 2
    d, n = m - (1 << k), k + e
    u, eu = _atan_series(abs(d), m + (1 << k), w, False)
    return (2 * (u if d >= 0 else -u) + n * _ln2_fixed(w),), 2 * eu + 2 * abs(n), w


@lru_cache(maxsize=None)
def _atan_pow2(k: int, s: int) -> tuple[int, int]:
    return _atan_series(1, 1 << k, s)


def _atan_fixed(m: int, e: int, w: int):
    """atan(x), x = m 2^e != 0, at s = w + r + max(r, -log2 |x|) bits, r =
    isqrt(w) // 2 + 1: |x| > 1 takes pi/2 - atan(1/|x|).  While t >= 2^-r,
    with 2^-k <= t <= 2^(1-k), atan t = atan 2^-k + atan((t - 2^-k) / (1 +
    t 2^-k)) (``_atan_pow2``, cached) and the new t is below 2^-k; a step
    adds under 2 units to the error of t and scales it by at most 1 + 4^-k,
    a product below 1.4 over distinct k.  Then the series of t."""
    a = abs(m)
    top = a.bit_length() + e
    r = math.isqrt(w) // 2 + 1
    s = w + r + max(r, -top)
    one = 1 << s
    if top > 0:
        t = (1 << (s - e)) // a if s >= e else 0
    else:
        t = a << (e + s) if e + s >= 0 else a >> -(e + s)
    y = err = 0
    while t >> (s - r):
        k = max(1, s + 1 - t.bit_length())
        t = ((t - (one >> k)) << s) // (one + (t >> k))
        c, ec = _atan_pow2(k, s)
        y, err = y + c, err + ec + 4
    c, ec = _atan_series(t, one, s)
    y, err = y + c, err + ec + 2
    if top > 0:
        y, err = (_pi_fixed(s) >> 1) - y, err + 2
    return (-y if m < 0 else y,), err, s


def _cos_sin_turn(k: int, n: int, w: int):
    """((c, s), err, W): |c - 2^W cos x| and |s - 2^W sin x| are at most err
    for x = 2 pi k / n, n > 0.  The nearest quarter turn j = round(4k / n)
    is exact, so x = j pi/2 + t with t = pi a / (2n), a = 4k - jn and |t|
    <= pi/4; a = 0 gives the exact values and err = 0.  Otherwise u, within
    2 units of 2^W |t| / 2^h (h = isqrt(w) // 2 >= 1; ``_pi_fixed`` is within
    2 of 2^W pi), feeds the series of exp(iu): each of its m terms is two
    floors of the last times u / i, an error below 3, and the tail once a
    term is 0 is below 6, so the complex error is below 3m + 8.  Squaring
    back h times takes an error d to at most 2d + 3, so err = (3m + 11) 2^h."""
    j = (8 * k + n) // (2 * n)
    a = 4 * k - j * n
    h = math.isqrt(w) // 2
    W = w + h + 8
    c, s, err = 1 << W, 0, 0
    if a:
        u, parts, term, m = _pi_fixed(W) * abs(a) // (2 * n) >> h, [0, 0], c, 0
        while term:
            parts[m & 1] += -term if m & 2 else term
            m += 1
            term = (term * u >> W) // m
        c, s = parts
        for _ in range(h):
            c, s = (c * c - s * s) >> W, (c * s) >> (W - 1)
        s, err = s if a > 0 else -s, (3 * m + 11) << h
    c, s = ((c, s), (-s, c), (-c, -s), (s, -c))[j & 3]
    return (c, s), err, W


# the ends of [a, b] [c, d] that make its lower and upper end, by the sign
# classes of the factors: 1 for a >= 0, -1 for b <= 0, 0 for both signs
_MUL_ENDS = {(1, 1): (0, 0, 1, 1), (1, -1): (1, 0, 0, 1), (1, 0): (1, 0, 1, 1),
             (-1, 1): (0, 1, 1, 0), (-1, -1): (1, 1, 0, 0), (-1, 0): (0, 1, 0, 0),
             (0, 1): (0, 1, 1, 1), (0, -1): (1, 0, 0, 0)}


def _binary(method):
    """A ball operator from method(self, other, prec): other coerced to a
    ball (an int or a Fraction at self's precision), prec the larger one."""
    def operator(self, other):
        if isinstance(other, int):
            other = BallReal.from_int(other, self.prec)
        elif isinstance(other, Fraction):
            other = BallReal.from_fraction(other, self.prec)
        elif not isinstance(other, BallReal):
            return NotImplemented
        return method(self, other, max(self.prec, other.prec))
    return operator


# ---------------------------------------------------------------------------
# BallReal

class BallReal:
    """A real number known to lie in a closed interval [lo, hi].

    Every arithmetic operation rounds outward, so the exact result of the
    corresponding exact-real operation is contained in the returned interval.
    ``prec`` is the working precision in bits for newly created endpoints;
    the ends are finite dyadic (m, e) pairs.
    """

    __slots__ = ("_lo", "_hi", "prec")

    def __init__(self, lo, hi, prec: int):
        self._lo = lo
        self._hi = hi
        self.prec = prec

    # -- constructors

    @staticmethod
    def from_int(n: int, prec: int = 53) -> "BallReal":
        x = _norm(n, 0)
        return BallReal(x, x, prec)

    @staticmethod
    def from_fraction(q, prec: int = 53) -> "BallReal":
        return BallReal.from_endpoints(q, q, prec)

    @staticmethod
    def from_endpoints(lo, hi, prec: int = 53) -> "BallReal":
        lo = Fraction(lo)
        hi = Fraction(hi)
        if lo > hi:
            raise ValueError("lower endpoint above upper endpoint")
        return BallReal(_div((lo.numerator, 0), (lo.denominator, 0), prec, False),
                        _div((hi.numerator, 0), (hi.denominator, 0), prec, True), prec)

    @staticmethod
    def from_scaled_ints(lo: int, hi: int, e: int, prec: int = 53) -> "BallReal":
        """The exact ball [lo 2^-e, hi 2^-e]."""
        return BallReal(_norm(lo, -e), _norm(hi, -e), prec)

    @staticmethod
    def pi(prec: int) -> "BallReal":
        """pi rounded down and up to prec bits, correctly (``_pi_fixed``)."""
        return BallReal(*_pi_ends(prec), prec)

    @staticmethod
    def zero(prec: int = 53) -> "BallReal":
        return BallReal((0, 0), (0, 0), prec)

    # -- accessors

    @property
    def lower(self) -> Fraction:
        return _fraction(self._lo)

    @property
    def upper(self) -> Fraction:
        return _fraction(self._hi)

    @property
    def midpoint(self) -> Fraction:
        return (self.lower + self.upper) / 2

    @property
    def radius(self) -> Fraction:
        return (self.upper - self.lower) / 2

    def man_exp(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """Both endpoints as exact (m, e) pairs, m 2^e."""
        return self._lo, self._hi

    def int_bounds(self, e: int) -> tuple[int, int]:
        """floor(2^e lower) and ceil(2^e upper)."""
        (a, ea), (b, eb) = self._lo, self._hi
        ea, eb = ea + e, eb + e
        return (a << ea if ea >= 0 else a >> -ea), (b << eb if eb >= 0 else -(-b >> -eb))

    def radius_below(self, k: int) -> bool:
        """radius < 2^-k, that is upper - lower < 2^(1-k), exactly on the endpoints."""
        (a, ea), (b, eb) = self._lo, self._hi
        e = min(ea, eb)
        return _cmp(((b << (eb - e)) - (a << (ea - e)), e), (1, 1 - k)) < 0

    def __repr__(self) -> str:
        return "BallReal(%s)" % self.to_str(max(1, round(self.prec / 3.3219280948873626) - 1) + 5)

    def to_str(self, dps: int = 20) -> str:
        """[lower, upper] with dps digits each, as mpmath's ``mpi_to_str``."""
        return "[%s, %s]" % (_to_str(self._lo, dps), _to_str(self._hi, dps))

    # -- arithmetic: the ends of mpmath's interval kernels, correctly rounded
    # at the larger precision

    @_binary
    def __add__(self, other, prec):
        return BallReal(_add(self._lo, other._lo, prec, False),
                        _add(self._hi, other._hi, prec, True), prec)

    __radd__ = __add__

    @_binary
    def __sub__(self, other, prec):
        return BallReal(_sub(self._lo, other._hi, prec, False),
                        _sub(self._hi, other._lo, prec, True), prec)

    @_binary
    def __mul__(self, other, prec):
        x, y = (self._lo, self._hi), (other._lo, other._hi)
        ends = _MUL_ENDS.get(tuple(1 if a[0] >= 0 else -1 if b[0] <= 0 else 0 for a, b in (x, y)))
        if ends is None:  # both contain 0
            lo = [_mul(x[0], y[1], prec, False), _mul(x[1], y[0], prec, False)]
            hi = [_mul(x[0], y[0], prec, True), _mul(x[1], y[1], prec, True)]
            return BallReal(lo[_cmp(*lo) > 0], hi[_cmp(*hi) < 0], prec)
        i, j, k, l = ends
        return BallReal(_mul(x[i], y[j], prec, False), _mul(x[k], y[l], prec, True), prec)

    __rmul__ = __mul__

    @_binary
    def __truediv__(self, other, prec):
        (a, b), (c, d) = (self._lo, self._hi), (other._lo, other._hi)
        if c[0] <= 0 <= d[0]:
            raise PrecisionTooLow("division by a ball that contains 0")
        if c[0] < 0:  # divide -self by -other, whose lower end is > 0
            a, b, c, d = (-b[0], b[1]), (-a[0], a[1]), (-d[0], d[1]), (-c[0], c[1])
        lo = _div(a, d if a[0] >= 0 else c, prec, False)
        return BallReal(lo, _div(b, d if b[0] <= 0 else c, prec, True), prec)

    def __neg__(self):
        (a, ea), (b, eb), prec = self._lo, self._hi, self.prec
        return BallReal(_round(-b, eb, prec, False), _round(-a, ea, prec, True), prec)

    def __abs__(self):
        lo, hi, prec = self._lo, self._hi, self.prec
        if lo[0] >= 0:
            return BallReal(_round(*lo, prec, False), _round(*hi, prec, True), prec)
        if hi[0] < 0:
            return -self
        # contains 0: [0, max(-lo, hi)]
        return BallReal((0, 0), _round(*max(hi, (-lo[0], lo[1]), key=_fraction), prec, True),
                        prec)

    def sqrt(self) -> "BallReal":
        """sqrt is increasing; both ends are correctly rounded."""
        prec = self.prec
        return BallReal(_sqrt(self._lo, prec, False), _sqrt(self._hi, prec, True), prec)

    def log(self) -> "BallReal":
        """log is increasing; both ends are correctly rounded (``_log_fixed``),
        log 1 = 0 exactly, and an exact ball takes both from one evaluation."""
        if not self.is_positive():
            raise ValueError("log of a ball that is not positive")

        def ends(x, *modes):  # log 1 = 0
            if x == (1, 0):
                return [(0, 0)] * len(modes)
            return _settle(lambda w: _log_fixed(*x, w), self.prec, modes)[0]

        lo, hi = self._lo, self._hi
        return BallReal(*(ends(lo, False, True) if lo == hi else ends(lo, False) + ends(hi, True)),
                        self.prec)

    def atan(self) -> "BallReal":
        """One evaluation at the exact midpoint, rounded to nearest correctly
        (``_atan_fixed``: an error below 1/2 ulp), widened by rad / (1 + m^2)
        (mean value theorem; m the endpoint of least magnitude, 0 if the ball
        contains 0) and by one ulp for that rounding.  The widening is an int
        on the grid of 1/16 ulp, rounded up; the ends are rounded outward.  A
        ball centred on 0 is its own enclosure (|atan x| <= |x|), so exact
        zero stays exact.
        """
        prec = self.prec
        (a, ea), (b, eb) = self._lo, self._hi
        e = min(ea, eb)
        a, b = a << (ea - e), b << (eb - e)  # the ball is [a 2^e, b 2^e]
        if a + b == 0:
            return self
        vm, ve = _settle(lambda w: _atan_fixed(a + b, e - 1, w), prec, (None,))[0][0]
        g = ve + vm.bit_length() - prec - 4  # 2^g = 1/16 ulp of the value
        m = 0 if a <= 0 <= b else min(abs(a), abs(b))
        t = max(0, -e)  # rad / (1 + m^2) = (b - a) 2^(e - 1 + 2t) / (2^2t + (m 2^(e+t))^2)
        num, den, shift = b - a, (1 << 2 * t) + (m << (e + t)) ** 2, e - 1 + 2 * t - g
        num, den = (num << shift, den) if shift >= 0 else (num, den << -shift)
        widen = 16 - (-num // den)
        mid = vm << (ve - g)
        return BallReal(_round(mid - widen, g, prec, False), _round(mid + widen, g, prec, True),
                        prec)

    # -- predicates (certified; True only when provable from the enclosure),
    # exact comparisons of the endpoints

    def contains_zero(self) -> bool:
        return self._lo[0] <= 0 <= self._hi[0]

    def excludes_zero(self) -> bool:
        return self.is_positive() or self.is_negative()

    def is_positive(self) -> bool:
        return self._lo[0] > 0

    def is_negative(self) -> bool:
        return self._hi[0] < 0

    def is_exact_zero(self) -> bool:
        return self._lo == self._hi == (0, 0)

    def contains(self, q) -> bool:
        q = Fraction(q)
        return self.lower <= q <= self.upper

    def overlaps(self, other: "BallReal") -> bool:
        return _cmp(self._lo, other._hi) <= 0 and _cmp(other._lo, self._hi) <= 0

    def mignitude(self) -> Fraction:
        """Certified lower bound for the absolute value (0 if 0 is enclosed)."""
        if self.contains_zero():
            return Fraction(0)
        return min(abs(self.lower), abs(self.upper))

    def magnitude(self) -> Fraction:
        return max(abs(self.lower), abs(self.upper))


def arg_principal(re: BallReal, im: BallReal) -> BallReal:
    """Principal-branch argument of the complex enclosure (re, im), certified,
    with values in (-pi, pi].

    Raises BranchCutHit when the imaginary enclosure straddles 0 on the
    negative real side (the branch cannot be decided at this precision), and
    PrecisionTooLow when the enclosure contains 0.  A point exactly on the
    negative real axis (imaginary part identically zero) yields pi.
    """
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
        bound *= 1 + math.isqrt(num - 1) if num else 0
    return BallReal.from_endpoints(-bound, bound, prec)


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
    if x.radius >= Fraction(1, 2 * den_bound * den_bound):
        raise PrecisionTooLow(
            "radius %s >= 1/(2*%d^2)" % (x.radius, den_bound)
        )
    cand = x.midpoint.limit_denominator(den_bound)
    return cand if x.contains(cand) else None


# ---------------------------------------------------------------------------
# Polynomials over Z/m (the one division by a monic polynomial: the Galois
# ring, Phi_n and its factors mod p and, with m = 0, the arithmetic of Q(zeta_n))

def _zm_rem_monic(a: Sequence[int], h: Sequence[int], m: int = 0) -> tuple[list[int], list[int]]:
    """(q, r) with a = q h + r for the monic polynomial h, r padded to deg h
    entries; the quotient comes from the same loop as the remainder.

    Coefficients are reduced mod m; m = 0 keeps exact integers (Z/0 = Z).
    """
    r = list(a)
    deg_h = len(h) - 1
    q = [0] * max(len(r) - deg_h, 0)
    while len(r) > deg_h:
        lead = r.pop()
        if m:
            lead %= m  # the rest is reduced once, at the end
        if lead:
            shift = len(r) - deg_h
            q[shift] = lead
            for i in range(deg_h):
                r[shift + i] -= lead * h[i]
    r += [0] * (deg_h - len(r))
    return q, [c % m for c in r] if m else r


# ---------------------------------------------------------------------------
# Galois rings GR(p^K, f) = (Z/p^K)[t]/(h) with h monic of degree f

class GaloisRing:
    """(Z/p^K)[t]/(h) for a monic h of degree f: the truncated unramified local
    ring of residue degree f when h is irreducible mod p.  Its operations
    (sums, products, powers and valuations; there is no inverse) hold for
    any monic h.  Z/p^K itself is plain ints (see ``padic_log``)."""

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
        # ``_mul``'s slot width and its packed rows t^e mod h, f <= e <= 2f - 2
        self._bits = (2 * f * self.pK ** 2).bit_length() + 1
        rows, row = [], [0] * (f - 1) + [1]
        for _ in range(f - 1):
            row = _zm_rem_monic([0] + row, self.modulus, self.pK)[1]
            rows.append(self._pack(row))
        self._rows = tuple(rows)

    # -- element constructors

    def elt(self, coeffs: Sequence[int]) -> "PadicElt":
        c = [x % self.pK for x in coeffs]
        if len(c) > self.f:
            c = _zm_rem_monic(c, self.modulus, self.pK)[1]
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

    def _pack(self, a) -> int:
        """The coefficients a_i in [0, p^K) as one int, a_i at bit i * _bits."""
        w, acc = self._bits, 0
        for c in reversed(a):
            acc = (acc << w) | c
        return acc

    def _mul(self, a, b):
        """a b by Kronecker substitution: one int product holds the 2f - 1
        coefficients, each below f p^2K; each high one, mod p^K, times its row
        t^e mod h joins the low f, which so stay below 2 f p^2K: no slot carries."""
        f, w, pK = self.f, self._bits, self.pK
        mask = (1 << w) - 1
        prod = self._pack(a) * self._pack(b)
        low = prod & ((1 << (w * f)) - 1)
        for e, row in enumerate(self._rows, f):
            low += (prod >> (w * e) & mask) % pK * row
        return tuple([(low >> (w * i) & mask) % pK for i in range(f)])

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

    def __repr__(self) -> str:
        return "GaloisRing(p=%d, prec=%d, f=%d)" % (self.p, self.prec, self.f)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GaloisRing)
            and (self.p, self.prec, self.f, self.modulus)
            == (other.p, other.prec, other.f, other.modulus)
        )


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
    """x^e for an int e >= 0 by square-and-multiply, starting from the power of x
    at the lowest set bit of e: ``one`` is returned for e = 0, never multiplied;
    x is anything with an exact, associative ``*``."""
    result = None
    while e:
        if e & 1:
            result = x if result is None else result * x
        e >>= 1
        if e:
            x = x * x
    return one if result is None else result


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

    K_out, terms = _log_terms(p, K)
    p_out = p ** K_out
    acc = 0  # the sum of (-1)^(m+1) x^m / m, valid mod p^K_out
    xpow = 1
    for m, inv, pa in terms:
        xpow = xpow * x % pK
        # x^m / m_unit is divisible by p^a and known mod p^K, so its
        # representative in [0, p^K) is divisible by p^a as well
        term = xpow * inv % pK // pa
        acc = acc + term if m % 2 else acc - term
    return acc * pow(p - 1, -1, p_out) % p_out, K_out


@lru_cache(maxsize=None)
def _log_terms(p: int, K: int) -> tuple[int, tuple[tuple[int, int, int], ...]]:
    """K' and the terms (m, m_unit^-1 mod p^K, p^a), m = p^a m_unit, up to m_max,
    the last index whose term may have valuation below K."""
    m_max = 1
    while m_max - _ilog(m_max, p) < K:
        m_max += 1
    K_out = K - _ilog(m_max, p)
    if K_out <= 0:
        raise PrecisionTooLow("precision %d too small for padic_log at p=%d" % (K, p))
    pK = p ** K
    terms = []
    for m in range(1, m_max + 1):
        a, m_unit = split_p(m, p)
        terms.append((m, pow(m_unit, -1, pK), p ** a))
    return K_out, tuple(terms)


def _ilog(n: int, p: int) -> int:
    """floor(log_p n) for n >= 1."""
    v = 0
    while n >= p:
        n //= p
        v += 1
    return v
