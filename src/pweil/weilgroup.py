"""The group E_p(k) of rational p-Weil numbers of weight 0 in k = Q(zeta_n).

Membership, the valuation map alpha into the minus part of the divisor
group at p, the section pi built from generators x_P of the principal
powers P^(M/f), the basis xi_P = x_P^c / x_P, and Jacobi sums as explicit
weight-1 Weil numbers.  One ideal-lattice search per (n, p) finds the
generator x_{P0} at one prime; the Galois group is transitive on the primes
above p, so the basis is the Galois orbit of x_{P0}: x_P = sigma_a(x_{P0}).

The composition alpha o pi is multiplication by -M; pi o alpha is
x -> x^(-M) up to roots of unity.  Both identities are verified exactly.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Optional

from .arith import ConfigError, is_prime, prime_factors, split_p
from .cyclo import CycloElt, CycloField, is_root_of_unity, norm, ramanujan_sum
from .lattice import EnumerationBudgetExceeded, short_vectors
from .splitting import PrimeAbove, SplitData, _poly_from_roots, ord_at


class NotAWeilUnit(ArithmeticError):
    """The element does not lie in E_p(k)."""


class MinusPartViolation(ArithmeticError):
    """Divisor vector is not in the -1 eigenspace of conjugation."""


# ---------------------------------------------------------------------------
# Membership

def is_weil_unit(x: CycloElt, p: int) -> bool:
    """True iff x lies in E_p(k): all absolute values away from p are 1.

    In a CM field the archimedean conditions are equivalent to the exact
    identity x x^c = 1.  The finite conditions hold iff both x and 1/x are
    integral away from p; since Z[zeta_n] is the maximal order, that is the
    statement that the denominator x.den is a power of p.  Once
    x x^c = 1 holds, 1/x = x^c.  Complex conjugation maps Z[zeta_n] onto
    itself, so d x^c is integral iff d x is; as the power basis is a Z-basis
    of Z[zeta_n], x^c has the same denominator as x and checking x suffices.
    """
    if x.is_zero():
        raise ZeroDivisionError("membership of zero")
    if x * x.conj() != x.field.one():
        return False
    return split_p(x.den, p)[1] == 1


# ---------------------------------------------------------------------------
# Divisor vectors indexed by the primes above p

class DivisorVec:
    """Integer vector on the primes above p (a divisor supported at p)."""

    __slots__ = ("split", "coeffs")

    def __init__(self, split: SplitData, coeffs: tuple[int, ...]):
        if len(coeffs) != split.g:
            raise ValueError("coefficient count != number of primes above p")
        self.split = split
        self.coeffs = coeffs

    def is_minus_part(self) -> bool:
        return all(
            self.coeffs[i] + self.coeffs[self.split.conj_index(i)] == 0
            for i in range(self.split.g)
        )

    def to_jsonable(self) -> dict:
        return {self.split.primes[i].label: c for i, c in enumerate(self.coeffs)}


def minus_basis(split: SplitData) -> list[DivisorVec]:
    """The basis P^c - P, for P in S, of the minus part."""
    out = []
    for idx in split.S:
        coeffs = [0] * split.g
        coeffs[split.conj_index(idx)] = 1
        coeffs[idx] = -1
        out.append(DivisorVec(split, tuple(coeffs)))
    return out


def alpha_p_map(x: CycloElt, split: SplitData) -> DivisorVec:
    """The valuation map: x -> -sum_P f(P|p) ord_P(x) . P, in the minus part."""
    if not is_weil_unit(x, split.p):
        raise NotAWeilUnit("alpha is only defined on E_p(k)")
    coeffs = tuple(-split.f * ord_at(pr, x) for pr in split.primes)
    vec = DivisorVec(split, coeffs)
    if not vec.is_minus_part():
        raise MinusPartViolation("valuation vector escaped the minus part")
    return vec


# ---------------------------------------------------------------------------
# Ideal lattices and generator search

def ideal_basis(prime: PrimeAbove, power: int = 1) -> list[list[int]]:
    """A triangular Z-basis (rows of zeta-power coordinates) of P^power, k = power.

    P^k is the kernel of zeta -> w^e into GR(p^k, f) (``PrimeAbove.image``),
    in which w^e has the minimal polynomial mu_k = prod_{i<f} (X - w^(e p^i))
    over Z/p^k, monic of degree f, so P^k = (p^k, mu_k(zeta)).  The rows
    p^k zeta^j, j < f, and zeta^j mu_k(zeta), j < phi(n) - f, lie in P^k and
    are lower triangular with determinant p^(kf) = [Z[zeta] : P^k], so they
    are a basis of it.  Power 0 gives the identity basis.
    """
    deg = prime.field.degree
    if power == 0:
        return [[int(i == j) for j in range(deg)] for i in range(deg)]
    ring, w_pow = prime.split.ring_at(power)
    n, f = prime.field.n, prime.f
    mu = list(_poly_from_roots(ring, [w_pow[prime.e * prime.p ** i % n] for i in range(f)]))
    rows = [[0] * j + [ring.pK] + [0] * (deg - 1 - j) for j in range(f)]
    rows += [[0] * j + mu + [0] * (deg - f - 1 - j) for j in range(deg - f)]
    return rows


@lru_cache(maxsize=None)
def trace_gram(field: CycloField) -> tuple[tuple[int, ...], ...]:
    """Gram matrix of the hermitian trace form Tr(x y^c) on the power basis,
    built once per conductor."""
    deg = field.degree
    return tuple(tuple(ramanujan_sum(field.n, i - j) for j in range(deg)) for i in range(deg))


def _iroot_ceil(n: int, k: int) -> int:
    """Smallest r with r^k >= n: Newton's integer iteration descends from
    2^ceil(bits(n) / k) > n^(1/k) to floor(n^(1/k)) and stops there."""
    if n <= 1:
        return n
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r + (r ** k < n)
        r = s


# enumeration nodes per short_vectors call, radius doublings per search,
# largest class order h tried by build_weil_basis
NODE_BUDGET = 5_000_000
MAX_DOUBLINGS = 6
H_CAP = 12


def find_generator(prime: PrimeAbove, power: int) -> Optional[CycloElt]:
    """A generator of the ideal P^power, canonically normalized, or None.

    Enumerates the ideal lattice under the trace form Tr(x x^c) starting at
    1.5x the arithmetic-geometric floor and doubling the radius; an element
    x of the ideal whose norm is +-p^(f power) is a generator.  No valuation
    needs checking: x lies in P^power, so (x) = P^power J with J integral,
    and N(J) = |N(x)| / N(P)^power = 1 forces J = (1).  Among the
    candidates within the first successful radius the one with the
    lexicographically smallest absolute coefficient tuple read from the
    highest power of zeta down is returned, sign fixed by making the first
    nonzero coefficient positive (this prefers generators supported on low
    powers of zeta); the candidates are tested in that order, so the norm
    is computed only up to the first generator.  Returning None is evidence, not proof, that P^power is
    non-principal: the search radius covers 1.5 * 2^MAX_DOUBLINGS times the
    minimum possible generator size.
    """
    field = prime.field
    if power == 0:
        return field.one()
    n_target = prime.p ** (prime.f * power)
    deg = field.degree
    basis = ideal_basis(prime, power)
    gram = trace_gram(field)
    floor = deg * _iroot_ceil(n_target * n_target, deg)
    bound = floor + (floor + 1) // 2
    for _ in range(MAX_DOUBLINGS + 1):
        vectors = short_vectors(basis, bound, gram=gram, node_budget=NODE_BUDGET)
        # a length-phi vector over den 1 is canonical: build only what is tested
        for vec in sorted((vec for vec, _norm_sq in vectors), key=_generator_key):
            elt = CycloElt(field, vec, 1)
            if abs(norm(elt)) == n_target:
                return elt
        bound *= 2
    return None


def _generator_key(num: tuple[int, ...]):
    """The order of candidates: the absolute numerator read from the highest
    power of zeta down, then the signed one."""
    rev = tuple(reversed(num))
    return (tuple(abs(c) for c in rev), rev)


# ---------------------------------------------------------------------------
# The basis of E_p(k) x Q

class WeilBasis(NamedTuple):
    """Exponent M, generators x_P ((x_P) = P^(M/f), x_{P^c} = x_P^c) and the
    basis xi_P = x_P^c / x_P of E_p(k) tensor Q for P in S."""

    split: SplitData
    M: int
    h: int
    x: dict  # prime index in T -> CycloElt
    xi: dict  # prime index in S -> CycloElt

    @property
    def rank(self) -> int:
        return len(self.xi)

    def to_jsonable(self) -> dict:
        return {
            "M": self.M,
            "h": self.h,
            "rank": self.rank,
            "x": {
                self.split.primes[i].label: [str(c) for c in elt.coeffs]
                for i, elt in sorted(self.x.items())
            },
            "xi": {
                self.split.primes[i].label: [str(c) for c in elt.coeffs]
                for i, elt in sorted(self.xi.items())
            },
        }


def build_weil_basis(split: SplitData) -> WeilBasis:
    """Construct M, the generators x_P and the basis elements xi_P.

    The primes above p form one Galois orbit, so they share the class order
    h of P0 = S[0], found by searching generators of P0^h for h = 1, 2, ...;
    M = f h.  A search that runs out of nodes moves on to the next h; its
    error is raised only when no h <= H_CAP gives a generator.  P0 has
    label 0, so P = sigma_a(P0) for the transporter a of P
    (``SplitData.transporter``); for P in S, x_P = sigma_a(x_{P0}), which
    generates sigma_a(P0^h) = P^h,
    and x_{P^c} = x_P^c, so the basis is the Galois orbit of xi_{P0}:
    xi_P = sigma_a(xi_{P0}).  All structural identities are verified
    exactly before returning.
    """
    if not split.T:
        return WeilBasis(split, M=1, h=0, x={}, xi={})
    f, field = split.f, split.field
    p0 = split.primes[split.S[0]]
    exhausted = None  # the first h whose search ran out of nodes
    for h in range(1, H_CAP + 1):
        try:
            x0 = find_generator(p0, h)
        except EnumerationBudgetExceeded as exc:
            exhausted = exhausted or exc
            continue
        if x0 is not None:
            break
    else:
        if exhausted is not None:
            raise exhausted
        raise EnumerationBudgetExceeded(
            "no generator of %s^h found for h <= %d (class order too large "
            "or search radius exhausted)" % (p0.label, H_CAP)
        )
    M = f * h
    xi0 = x0.conj() / x0
    x: dict[int, CycloElt] = {}
    xi: dict[int, CycloElt] = {}
    for idx in split.S:
        a = split.transporter[idx]
        x[idx] = x0.apply(a)
        x[split.conj_index(idx)] = x[idx].conj()
        xi[idx] = xi0.apply(a)

    p = split.p
    for idx in split.T:
        elt = x[idx]
        if elt.den != 1 or abs(norm(elt)) != p ** M:
            raise ArithmeticError("generator not integral of norm p^M")
        # integral of norm p^M with ord_P = M/f: ord_Q = 0 at every other Q above p
        if ord_at(split.primes[idx], elt) != M // f:
            raise ArithmeticError("generator valuation profile broken")
    for idx in split.S:
        if not is_weil_unit(xi[idx], p):
            raise NotAWeilUnit("xi_%s is not in E_p(k)" % split.primes[idx].label)
    return WeilBasis(split, M=M, h=h, x=x, xi=xi)


def pi_m_map(nu: DivisorVec, basis: WeilBasis) -> CycloElt:
    """pi_M: minus-part divisor -> product over T of x_P^(nu_P), in E_p(k).

    Computed as the product over S of xi_P^(nu_{P^c}), with no inverse: nu
    is in the minus part, x_{P^c} = x_P^c and xi_P = x_{P^c} / x_P, so the
    two products are equal, and xi^(-e) = (xi^c)^e since xi xi^c = 1.
    """
    if not nu.is_minus_part():
        raise MinusPartViolation("pi_M is only defined on the minus part")
    split = basis.split
    out = None
    for idx in split.S:
        e = nu.coeffs[split.conj_index(idx)]
        if e:
            factor = _unit_pow(basis.xi[idx], e)
            out = factor if out is None else out * factor
    return split.field.one() if out is None else out


def _unit_pow(xi: CycloElt, e: int) -> CycloElt:
    """xi^e for xi with xi xi^c = 1: a negative power is a power of xi^c."""
    return xi ** e if e >= 0 else xi.conj() ** -e


# ---------------------------------------------------------------------------
# Structure verification

# sample Weil units in check (ii) of verify_weil_basis, and their seed
VERIFY_SAMPLES = 5
VERIFY_SEED = 0


def verify_weil_basis(basis: WeilBasis) -> dict:
    """Exact verification of the structural identities of E_p(k).

    Checks (i) alpha o pi = -M id on the minus-part basis, each with
    xi_P x_P = x_P^c so that the x_P, which ``pi_m_map`` does not read, stay
    checked; (ii) x^M pi(alpha(x)) is exactly a root of unity for sample Weil
    units x; (iii) rank = |T|/2; and the valuation profile alpha(xi_P), which
    is alpha(pi(P^c - P)) from (i).  No check inverts an element.
    Failures are reported, not raised.
    """
    import random

    split = basis.split
    field = split.field
    checks = []

    profile = []  # alpha(xi_P) = M*(P) - M*(P^c), i.e. -M*(P^c - P)
    for idx, vec in zip(split.S, minus_basis(split)):
        img = alpha_p_map(pi_m_map(vec, basis), split)
        profile_ok = img.coeffs == tuple(-basis.M * c for c in vec.coeffs)
        checks.append({
            "name": "alpha(pi(%s)) = -M*(%s)" % (vec.to_jsonable(), vec.to_jsonable()),
            "ok": profile_ok and basis.xi[idx] * basis.x[idx] == basis.x[split.conj_index(idx)],
        })
        label = split.primes[idx].label
        profile.append({"name": "alpha(xi_%s) = M*(%s) - M*(%s^c)" % (label, label, label),
                        "ok": profile_ok})

    rng = random.Random(VERIFY_SEED)
    w = field.torsion_order()
    for trial in range(VERIFY_SAMPLES if split.S else 0):
        xel = field.zeta(rng.randrange(field.n))
        if rng.random() < 0.5:
            xel = -xel
        for idx in split.S:
            xel = xel * _unit_pow(basis.xi[idx], rng.randint(-2, 2))
        y = (xel ** basis.M) * pi_m_map(alpha_p_map(xel, split), basis)
        order = is_root_of_unity(y)
        checks.append({
            "name": "sample %d: x^M pi(alpha(x)) is torsion" % trial,
            "ok": order is not None,
            "order": order,
            "torsion_bound": w,
        })

    checks.append({
        "name": "rank = |T|/2",
        "ok": 2 * len(split.S) == len(split.T),
        "rank": len(split.S),
        "T_size": len(split.T),
    })

    checks += profile
    return {"ok": all(c["ok"] for c in checks), "checks": checks}


# ---------------------------------------------------------------------------
# Jacobi sums: explicit weight-1 Weil numbers for p = 1 mod n

def _primitive_root(p: int) -> int:
    fac = prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in fac):
            return g
    raise ValueError("no primitive root found (p not prime?)")


def jacobi_weil_number(p: int, n: int, a: int, b: int) -> CycloElt:
    """The Jacobi sum -sum_t chi^a(t) chi^b(1-t) in Z[zeta_n], of weight 1.

    chi is the character of F_p* of exact order n sending the smallest
    primitive root to zeta_n; requires p = 1 mod n and a, b, a+b nonzero
    mod n, and raises ``ConfigError`` otherwise, or for a bad conductor or a
    p that is not prime.  The defining identity lambda * lambda^c = p is
    verified exactly.
    """
    field = CycloField(n)
    if not is_prime(p):
        raise ConfigError("%d is not prime" % p)
    if (p - 1) % n != 0:
        raise ConfigError("need p = 1 mod n to build character sums (p=%d, n=%d)" % (p, n))
    a %= n
    b %= n
    if a == 0 or b == 0 or (a + b) % n == 0:
        raise ConfigError("indices a, b, a+b must be nonzero mod n")
    g = _primitive_root(p)
    dlog = [0] * p
    acc = 1
    for k in range(p - 1):
        dlog[acc] = k
        acc = (acc * g) % p
    counts = [0] * n
    for t in range(2, p):
        e = (a * dlog[t] + b * dlog[(1 - t) % p]) % n
        counts[e] += 1
    lam = field.elt([-c for c in counts])
    check = lam * lam.conj()
    if check != field.from_rational(p):
        raise ArithmeticError("Jacobi sum failed lambda*lambda^c = p")
    return lam
