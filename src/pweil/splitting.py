"""Decomposition of an unramified rational prime p in Q(zeta_n).

A prime above p is represented by a monic degree-f factor of Phi_n lifted
to precision p^K (by Hensel for the first factor, whose root t gives every
other as a product of (X - t^b)), together with its Frobenius coset in (Z/n)*.
Valuations reduce to p-adic valuations of images in the Galois ring
(Z/p^K)[t]/(h), so no general ideal factorization is ever needed.  A prime
keeps one such ring per precision (``ring_at``), so no digit is lifted twice.

Labelling is canonical: for f = 1 primes are sorted by the image root of
zeta in [0, p), otherwise by the coefficient tuple of the factor mod p.
The coset of a prime is the set of a with sigma_a sending the prime of
label 0's reduction onto this prime's; sigma_a then multiplies cosets by a.
"""

from __future__ import annotations

import json
import random
from math import gcd
from typing import Optional, Sequence

from .arith import (GaloisRing, _zm_rem_monic, fp_add, fp_divmod, fp_gcd, fp_mul, fp_pow_mod,
                    fp_sub, fp_trim, fp_xgcd, split_p)
from .cyclo import CycloElt, CycloField, GaloisAut, cyclotomic_polynomial


class NotPrime(ValueError):
    """The given integer is not a prime number."""


class RamifiedPrime(ValueError):
    """p divides the conductor; only unramified primes are supported."""


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def multiplicative_order(a: int, n: int) -> int:
    if gcd(a, n) != 1:
        raise ValueError("order of a non-unit")
    order = 1
    x = a % n
    while x != 1:
        x = (x * a) % n
        order += 1
    return order


# ---------------------------------------------------------------------------
# Equal-degree factorization of Phi_n mod p (all factors have degree f)

def _equal_degree_factor(poly: list[int], f: int, p: int, rng: random.Random) -> list[list[int]]:
    deg = len(poly) - 1
    if deg == f:
        inv_lead = pow(poly[-1], -1, p)
        return [[(c * inv_lead) % p for c in poly]]
    out: list[list[int]] = []
    stack = [poly]
    while stack:
        cur = stack.pop()
        d = len(cur) - 1
        if d == f:
            inv_lead = pow(cur[-1], -1, p)
            out.append([(c * inv_lead) % p for c in cur])
            continue
        split = None
        while split is None:
            a = [rng.randrange(p) for _ in range(d)]
            fp_trim(a)
            if not a:
                continue
            g = fp_gcd(a, cur, p)
            if 1 <= len(g) - 1 < d:
                split = g
                break
            if p == 2:
                # additive trace map of F_{2^f} splits products of degree-f factors
                t = fp_divmod(a, cur, 2)[1]
                acc = t[:]
                for _ in range(f - 1):
                    acc = fp_divmod(fp_mul(acc, acc, 2), cur, 2)[1]
                    t = fp_add(t, acc, 2)
                g = fp_gcd(t, cur, 2)
            else:
                b = fp_pow_mod(a, (p ** f - 1) // 2, cur, p)
                b = fp_sub(b, [1], p)
                g = fp_gcd(b, cur, p)
            if 1 <= len(g) - 1 < d:
                split = g
        q, r = fp_divmod(cur, split, p)
        assert not r
        stack.append(split)
        stack.append(q)
    return out


# ---------------------------------------------------------------------------
# Hensel lifting: refine h | Phi_n from mod p to mod p^K

def hensel_lift_factor(full: Sequence[int], h_bar: Sequence[int], p: int, K: int,
                       start: Optional[tuple[Sequence[int], int]] = None) -> tuple[int, ...]:
    """Lift the monic factor h_bar of ``full`` mod p to a factor mod p^K,
    from h_bar or from ``start = (lift mod p^K0, K0)``: the lift is unique."""
    full = [int(c) for c in full]
    h = [c % p for c in h_bar]
    fdeg = len(h) - 1
    # cofactor and Bezout data mod p, fixed for every linear step
    g_bar, rem = fp_divmod([c % p for c in full], h, p)
    assert not rem, "h_bar does not divide the polynomial mod p"
    one, s, t = fp_xgcd(h, g_bar, p)
    assert one == [1], "factor and cofactor are not coprime mod p"
    hk, K0 = (list(start[0]), start[1]) if start else (h[:], 1)
    pk = p ** K0
    for _ in range(K - K0):
        pk_next = pk * p
        rem = _zm_rem_monic(full, hk, pk_next)
        assert all(c % pk == 0 for c in rem)
        r_bar = fp_trim([(c // pk) % p for c in rem])
        delta = fp_divmod(fp_mul(t, r_bar, p), h, p)[1]
        delta += [0] * (fdeg - len(delta))
        hk = [(hc + pk * dc) % pk_next for hc, dc in zip(hk, delta + [0])]
        pk = pk_next
    check = _zm_rem_monic(full, hk, p ** K)
    assert all(c == 0 for c in check), "Hensel lifting failed"
    return tuple(hk)


# ---------------------------------------------------------------------------
# Primes above p

class PrimeAbove:
    """A prime of Q(zeta_n) over p: lifted local factor plus Frobenius coset."""

    def __init__(self, field: CycloField, p: int, index: int, h_bar: tuple[int, ...],
                 h_lifted: tuple[int, ...], K: int, coset: frozenset[int]):
        self.field = field
        self.p = p
        self.index = index
        self.h_bar = h_bar
        self.K = K
        self.coset = coset
        self.f = len(h_bar) - 1
        self._rings = {K: GaloisRing(p, K, self.f, h_lifted)}
        self.split: Optional["SplitData"] = None  # set by SplitData

    def ring_at(self, prec: int) -> GaloisRing:
        """GR(p^prec, f) on this prime's factor, kept once per precision and
        Hensel-extended from the nearest lower one kept (else from h mod p)."""
        ring = self._rings.get(prec)
        if ring is None:
            below = max((k for k in self._rings if k < prec), default=None)
            start = (self._rings[below].modulus, below) if below else None
            lifted = hensel_lift_factor(cyclotomic_polynomial(self.field.n), self.h_bar,
                                        self.p, prec, start)
            ring = self._rings[prec] = GaloisRing(self.p, prec, self.f, lifted)
        return ring

    @property
    def label(self) -> str:
        return "P%d" % self.index

    @property
    def residue_norm(self) -> int:
        return self.p ** self.f

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
    """All primes above p with the Galois action, the set T and the section S."""

    def __init__(self, field: CycloField, p: int, primes: Sequence[PrimeAbove], K: int):
        self.field = field
        self.p = p
        self.K = K
        self.primes = tuple(primes)
        for prime in self.primes:
            prime.split = self
        self.f = self.primes[0].f
        self.g = len(self.primes)
        self._coset_index = {prime.coset: prime.index for prime in self.primes}
        self.T = tuple(pr.index for pr in self.primes if not pr.is_conj_stable())
        S = []
        seen = set()
        for idx in self.T:
            if idx in seen:
                continue
            cidx = self.conj_index(idx)
            seen.add(idx)
            seen.add(cidx)
            S.append(min(idx, cidx))
        self.S = tuple(sorted(S))

    def act_index(self, a: int, index: int) -> int:
        n = self.field.n
        target = frozenset((a * b) % n for b in self.primes[index].coset)
        return self._coset_index[target]

    def conj_index(self, index: int) -> int:
        return self.act_index(self.field.n - 1, index)

    def rank(self) -> int:
        return len(self.S)

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
            "K": self.K,
            "primes": [pr.to_jsonable() for pr in self.primes],
            "T": [self.primes[i].label for i in self.T],
            "S": [self.primes[i].label for i in self.S],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), sort_keys=True)


def split_prime(field: CycloField, p: int, K: int = 50) -> SplitData:
    """Decompose the unramified prime p in Q(zeta_n).

    Factors Phi_n mod p, sorts and labels the factors and Hensel-lifts only
    the first, h0, to p^K.  In GR(p^K, f) on that lift the roots of Phi_n are
    the t^b; each prime's lifted factor is the product of (X - t^b) over one
    orbit b<p>, named by its residue mod p, with the orbit's inverses as coset.
    """
    if not is_prime(p):
        raise NotPrime("%d is not prime" % p)
    n = field.n
    if n % p == 0:
        raise RamifiedPrime("p = %d divides the conductor %d" % (p, n))
    f = multiplicative_order(p, n)
    phi_int = cyclotomic_polynomial(n)
    rng = random.Random(1000003 * n + p)
    factors = _equal_degree_factor([c % p for c in phi_int], f, p, rng)
    assert len(factors) == field.degree // f

    if f == 1:
        factors.sort(key=lambda h: (-h[0]) % p)
    else:
        factors.sort(key=lambda h: tuple(h))
    label = {tuple(h): idx for idx, h in enumerate(factors)}

    ring = GaloisRing(p, K, f, hensel_lift_factor(phi_int, factors[0], p, K))
    t, t_pow = ring.elt([0, 1]), [ring.one()]
    for _ in range(n - 1):
        t_pow.append(t_pow[-1] * t)
    lifted: list = [None] * len(factors)
    cosets: list = lifted[:]
    for b in field.units:
        orbit = [(b * p ** i) % n for i in range(f)]
        if min(orbit) != b:
            continue
        # the orbit of t itself belongs to the lift of h0
        h = ring.modulus if b == 1 else _poly_from_roots(ring, [t_pow[c] for c in orbit])
        assert not any(_zm_rem_monic(phi_int, h, ring.pK)), "factor does not divide Phi_n"
        idx = label.get(tuple(c % p for c in h))
        assert idx is not None and lifted[idx] is None, "factor mod p is not a new h_bar"
        lifted[idx] = h
        cosets[idx] = frozenset(pow(c, -1, n) for c in orbit)

    primes = [PrimeAbove(field, p, idx, tuple(h), lifted[idx], K, cosets[idx])
              for idx, h in enumerate(factors)]
    # Frobenius cosets partition the unit group
    assert set().union(*cosets) == set(field.units)
    return SplitData(field, p, primes, K)


def _poly_from_roots(ring: GaloisRing, roots: Sequence) -> tuple[int, ...]:
    """prod (X - r) over the roots, in GR[X]; every coefficient must lie in Z/p^K."""
    poly = [ring.one()]
    for r in roots:
        poly = [-(r * poly[0])] + [poly[i - 1] - r * poly[i] for i in range(1, len(poly))] \
            + [poly[-1]]
    assert not any(c for e in poly for c in e.coeffs[1:]), "factor not defined over Z/p^K"
    return tuple(e.coeffs[0] for e in poly)


# ---------------------------------------------------------------------------
# Valuations

def ord_at(prime: PrimeAbove, x: CycloElt, max_precision: int = 6400) -> int:
    """The exact valuation ord_P(x) for nonzero x in Q(zeta_n).

    The numerator is mapped into GR(p^K, f) through zeta -> root of the
    lifted factor; its valuation there is the minimum p-adic valuation of
    the reduced coefficients.  If the image vanishes mod p^K, the precision
    doubles through ``PrimeAbove.ring_at``, which keeps each lift it makes.
    """
    if x.is_zero():
        raise ZeroDivisionError("valuation of zero")
    v_den = split_p(x.den, prime.p)[0]
    K = prime.K
    while True:
        v = prime.ring_at(K).from_int_poly(x.num).valuation()
        if v is not None:
            return v - v_den
        K *= 2
        if K > max_precision:
            raise ArithmeticError(
                "valuation exceeds precision cap %d at %r" % (max_precision, prime)
            )


def act_on_prime(aut: GaloisAut, prime: PrimeAbove) -> PrimeAbove:
    """sigma_a(P): the prime whose coset is a times the coset of P."""
    split = prime.split
    if split is None:
        raise ValueError("prime is not attached to split data")
    return split.primes[split.act_index(aut.a, prime.index)]


def conj_prime(prime: PrimeAbove) -> PrimeAbove:
    split = prime.split
    if split is None:
        raise ValueError("prime is not attached to split data")
    return split.primes[split.conj_index(prime.index)]

