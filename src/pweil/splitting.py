"""Decomposition of an unramified rational prime p in Q(zeta_n).

Cantor-Zassenhaus finds one degree-f factor h of Phi_n mod p; in F_p[t]/(h)
the roots of Phi_n are the t^b, so each Frobenius orbit b<p> gives one
factor of Phi_n mod p and its coset in (Z/n)*.  The p-adic side needs only
one unramified completion: ``SplitData.ring_at(k)`` keeps GR(p^k, f) on the
factor of P0 mod p with the root w = t of Phi_n Newton-lifted to p^k, and
a prime above p is an exponent e, the embedding zeta -> w^e.  Valuations
reduce to p-adic valuations of images in that ring, and P^k is the kernel
of the embedding mod p^k (``weilgroup.ideal_basis``), so no general ideal
factorization and no lifted factor of Phi_n is ever needed.

The split is exact and carries no p-adic precision: each caller asks
``ring_at`` for the digits it needs (``ord_at`` as many as the valuation
takes, the regulator its K).

Labelling is canonical: for f = 1 primes are sorted by the image root of
zeta in [0, p), otherwise by the coefficient tuple of the factor mod p.
The coset of a prime is the set of a with sigma_a sending the prime of
label 0's reduction onto this prime's; sigma_a then multiplies cosets by a.
P0, of label 0, has 1 in its coset, so P = sigma_a(P0) for the transporter
a = min coset of P, which ``SplitData.transporter`` alone computes.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from .arith import ConfigError, GaloisRing, PadicElt, _zm_rem_monic, is_prime, split_p
from .cyclo import CycloElt, CycloField, cyclotomic_polynomial


# ---------------------------------------------------------------------------
# One degree-f factor of Phi_n mod p (all its factors have degree f)

def _one_factor(poly: list[int], f: int, p: int, rng: random.Random) -> list[int]:
    """A monic degree-f factor of ``poly``, a monic product of distinct
    degree-f irreducibles mod p: Cantor-Zassenhaus splitting that keeps the
    smaller piece of each split."""
    cur = poly
    while len(cur) - 1 > f:
        ring = GaloisRing(p, 1, len(cur) - 1, cur)
        a = ring.elt([rng.randrange(p) for _ in range(ring.f)])
        if p == 2:
            # the additive trace map of F_{2^f} splits products of degree-f factors
            b = acc = a
            for _ in range(f - 1):
                acc = acc * acc
                b = b + acc
        else:
            b = a ** ((p ** f - 1) // 2) - ring.one()
        g = _gcd_monic(b.coeffs, cur, p)
        if 1 <= len(g) - 1 < ring.f:
            cur = min(g, _zm_rem_monic(cur, g, p)[0], key=len)
    return cur


def _gcd_monic(a: Sequence[int], h: list[int], p: int) -> list[int]:
    """The monic gcd of a and the monic h mod p: Euclid on monic remainders."""
    while True:
        r = _zm_rem_monic(a, h, p)[1]
        while r and not r[-1]:
            r.pop()
        if not r:
            return h
        inv = pow(r[-1], -1, p)
        a, h = h, [c * inv % p for c in r]


# ---------------------------------------------------------------------------
# Primes above p

class PrimeAbove:
    """A prime of Q(zeta_n) over p: its factor of Phi_n mod p, its Frobenius
    coset and the exponent e of its embedding zeta -> w^e (see SplitData)."""

    def __init__(self, field: CycloField, p: int, index: int, h_bar: tuple[int, ...],
                 coset: frozenset[int], e: int):
        self.field = field
        self.p = p
        self.index = index
        self.h_bar = h_bar
        self.coset = coset
        self.e = e
        self.f = len(h_bar) - 1
        self.split: Optional["SplitData"] = None  # set by SplitData

    def image(self, num: Sequence[int], prec: int) -> PadicElt:
        """num(zeta) under zeta -> w^e, in ``split.ring_at(prec)``."""
        ring, w_pow = self.split.ring_at(prec)
        n, e = self.field.n, self.e
        acc = [0] * self.f
        for k, c in enumerate(num):
            if c:
                for i, wc in enumerate(w_pow[e * k % n].coeffs):
                    acc[i] += c * wc
        return ring.elt(acc)

    @property
    def label(self) -> str:
        return "P%d" % self.index

    def root_mod_p(self) -> Optional[int]:
        """Image of zeta in F_p when f = 1."""
        if self.f != 1:
            return None
        return (-self.h_bar[0]) % self.p

    def is_conj_stable(self) -> bool:
        return frozenset((-a) % self.field.n for a in self.coset) == self.coset

    def __repr__(self) -> str:
        return "PrimeAbove(p=%d, %s, f=%d, h mod p=%s)" % (
            self.p, self.label, self.f, list(self.h_bar),
        )

    def to_jsonable(self) -> dict:
        return {
            "label": self.label,
            "p": self.p,
            "f": self.f,
            "h_mod_p": list(self.h_bar),
            "coset": sorted(self.coset),
        }


class SplitData:
    """All primes above p with the Galois action, the transporters
    (P_i = sigma_a(P0) for a = ``transporter[i]``), the set T and the section S."""

    def __init__(self, field: CycloField, p: int, primes: Sequence[PrimeAbove]):
        self.field = field
        self.p = p
        self.primes = tuple(primes)
        for prime in self.primes:
            prime.split = self
        self.f = self.primes[0].f
        self.g = len(self.primes)
        self._rings: dict[int, tuple[GaloisRing, tuple[PadicElt, ...]]] = {}
        self._prime_of = {a: prime.index for prime in self.primes for a in prime.coset}
        self.transporter = tuple(min(prime.coset) for prime in self.primes)
        self.T = tuple(pr.index for pr in self.primes if not pr.is_conj_stable())
        self.S = tuple(sorted({min(idx, self.conj_index(idx)) for idx in self.T}))

    def ring_at(self, prec: int) -> tuple[GaloisRing, tuple[PadicElt, ...]]:
        """GR(p^prec, f) on h_bar of P0 (monic and irreducible mod p, so a
        modulus at every precision) and the powers w^k, k < n, of the root
        w = t of Phi_n; kept once per precision, w Newton-lifted from the
        nearest lower precision kept (else from t).

        X^n - 1 is separable mod p, so its root lifting t is that of Phi_n;
        its Newton step w - (w^n - 1) / (n w^(n-1)) equals w (n + 1 - w^n) / n
        to the doubled precision, since w^n = 1 to the current one."""
        lift = self._rings.get(prec)
        if lift is None:
            n = self.field.n
            ring = GaloisRing(self.p, prec, self.f, self.primes[0].h_bar)
            below = max((k for k in self._rings if k < prec), default=1)
            w = ring.elt(self._rings[below][1][1].coeffs if below in self._rings else [0, 1])
            n_plus_1, inv_n = ring.from_int(n + 1), ring.from_int(pow(n, -1, ring.pK))
            while below < prec:
                w = w * (n_plus_1 - w ** n) * inv_n
                below *= 2
            w_pow = [ring.one()]
            for _ in range(n - 1):
                w_pow.append(w_pow[-1] * w)
            if w_pow[-1] * w != ring.one():
                raise ArithmeticError("w is not an n-th root of unity")
            lift = self._rings[prec] = (ring, tuple(w_pow))
        return lift

    def act_index(self, a: int, index: int) -> int:
        """Index of sigma_a(P_index): its coset is a times that of P_index."""
        return self._prime_of[a * self.transporter[index] % self.field.n]

    def conj_index(self, index: int) -> int:
        return self.act_index(self.field.n - 1, index)

    def __repr__(self) -> str:
        return "SplitData(n=%d, p=%d, f=%d, g=%d, |T|=%d)" % (
            self.field.n, self.p, self.f, self.g, len(self.T),
        )

    def to_jsonable(self) -> dict:
        return {
            "n": self.field.n,
            "p": self.p,
            "f": self.f,
            "g": self.g,
            "primes": [pr.to_jsonable() for pr in self.primes],
            "T": [self.primes[i].label for i in self.T],
            "S": [self.primes[i].label for i in self.S],
        }


def split_prime(field: CycloField, p: int) -> SplitData:
    """Decompose the unramified prime p in Q(zeta_n).

    Finds one degree-f factor h of Phi_n mod p.  In F_p[t]/(h) the roots of
    Phi_n are the t^b, and each Frobenius orbit b<p> gives the factor
    prod (X - t^b); the factors must multiply to Phi_n mod p.  They are
    sorted and labelled; if the factor of label 0 has orbit c0<p>, the one
    of orbit b<p> has coset c0 b^-1 <p> and exponent e in b c0^-1 <p>.
    Nothing here depends on a p-adic precision.  Raises ``ConfigError`` when
    p is not prime or divides n.
    """
    if not is_prime(p):
        raise ConfigError("%d is not prime" % p)
    n = field.n
    if n % p == 0:
        raise ConfigError("p = %d divides the conductor %d (ramified)" % (p, n))
    f = next(k for k in range(1, n) if pow(p, k, n) == 1)  # the order of p mod n
    phi_bar = [c % p for c in cyclotomic_polynomial(n)]
    ring = GaloisRing(p, 1, f, _one_factor(phi_bar, f, p, random.Random(1000003 * n + p)))
    t, t_pow = ring.elt([0, 1]), [ring.one()]
    for _ in range(n - 1):
        t_pow.append(t_pow[-1] * t)
    frob = [p ** i % n for i in range(f)]
    orbit_of = {}
    for b in field.units:
        if min(b * q % n for q in frob) == b:
            roots = [t_pow[b * q % n] for q in frob]
            # the orbit of t itself gives h
            orbit_of[ring.modulus if b == 1 else _poly_from_roots(ring, roots)] = b
    rest = phi_bar
    for h in orbit_of:  # divided out one at a time: each must leave no remainder
        rest, rem = _zm_rem_monic(rest, h, p)
        if any(rem):
            raise ArithmeticError("an orbit factor does not divide Phi_n mod p")
    if rest != [1]:
        raise ArithmeticError("orbit factors do not multiply to Phi_n mod p")

    factors = sorted(orbit_of, key=(lambda h: (-h[0]) % p) if f == 1 else None)
    c0 = orbit_of[factors[0]]
    primes = []
    for idx, h in enumerate(factors):
        b = orbit_of[h]
        coset = frozenset(c0 * pow(b * q, -1, n) % n for q in frob)
        primes.append(PrimeAbove(field, p, idx, h, coset, min(pow(a, -1, n) for a in coset)))
    return SplitData(field, p, primes)


def _poly_from_roots(ring: GaloisRing, roots: Sequence) -> tuple[int, ...]:
    """prod (X - r) over the roots in GR(p^k, f)[X]; every coefficient must
    lie in Z/p^k (F_p at k = 1)."""
    poly = [ring.one()]
    for r in roots:
        poly = [-(r * poly[0])] + [poly[i - 1] - r * poly[i] for i in range(1, len(poly))] \
            + [poly[-1]]
    if any(c for e in poly for c in e.coeffs[1:]):
        raise ArithmeticError("factor not defined over Z/p^%d" % ring.prec)
    return tuple(e.coeffs[0] for e in poly)


# ---------------------------------------------------------------------------
# Valuations

# digits at which ord_at starts: no numerator valuation in the full scan range exceeds 4
ORD_START_PRECISION = 8
ORD_PRECISION_CAP = 8192


def ord_at(prime: PrimeAbove, x: CycloElt) -> int:
    """The exact valuation ord_P(x) for nonzero x in Q(zeta_n).

    The numerator is mapped into GR(p^k, f) through zeta -> w^e
    (``PrimeAbove.image``) from k = ORD_START_PRECISION; its valuation there
    is the minimum p-adic valuation of the coefficients.  While the image
    vanishes mod p^k, k doubles through ``SplitData.ring_at``, which keeps
    each lift of w it makes, up to ORD_PRECISION_CAP (8 * 2^10).  The start
    does not change the result."""
    if x.is_zero():
        raise ZeroDivisionError("valuation of zero")
    v_den = split_p(x.den, prime.p)[0]
    k = ORD_START_PRECISION
    while True:
        v = prime.image(x.num, k).valuation()
        if v is not None:
            return v - v_den
        k *= 2
        if k > ORD_PRECISION_CAP:
            raise ArithmeticError(
                "valuation exceeds precision cap %d at %r" % (ORD_PRECISION_CAP, prime)
            )


def conj_prime(prime: PrimeAbove) -> PrimeAbove:
    split = prime.split
    if split is None:
        raise ValueError("prime is not attached to split data")
    return split.primes[split.conj_index(prime.index)]

