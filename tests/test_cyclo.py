import random
from fractions import Fraction
from math import gcd

import mpmath
import pytest
import sympy
from mpmath.libmp import libmpi

from pweil.arith import _zm_rem_monic
from pweil.cyclo import (
    CycloElt,
    CycloField,
    _norm_prime,
    cyclotomic_polynomial,
    embed,
    euler_phi,
    is_root_of_unity,
    norm,
    ramanujan_sum,
)
from oracles import (
    embed_uncached,
    fraction_add,
    fraction_apply,
    fraction_inverse,
    fraction_mul,
    fraction_pow,
    fraction_sub,
    from_mpi,
    modulus_squared,
    powering_is_root_of_unity,
    to_mpci,
)


def test_conductor_validation():
    with pytest.raises(ValueError):
        CycloField(6)   # same field as conductor 3
    with pytest.raises(ValueError):
        CycloField(2)
    assert CycloField(12).degree == 4


def test_cyclotomic_polynomials_against_sympy():
    for n in (3, 5, 7, 8, 11, 12, 15, 16, 20):
        ours = cyclotomic_polynomial(n)
        theirs = sympy.Poly(sympy.cyclotomic_poly(n, sympy.Symbol("x"))).all_coeffs()
        assert list(ours) == list(reversed(theirs))


def test_places_cover_conjugate_pairs():
    for n in (5, 8, 12, 13, 20):
        field = CycloField(n)
        assert len(field.places) == field.degree // 2
        covered = set()
        for a in field.places:
            covered.add(a)
            covered.add(n - a)
        assert covered == set(field.units)
        assert field.places[0] == 1


def test_mul_inverse_identity(k5):
    x = 1 + 2 * k5.zeta()
    assert x * x.inverse() == k5.one()
    with pytest.raises(ZeroDivisionError):
        k5.elt([]).inverse()


def test_one_is_kept_per_field_and_pow_builds_only_its_products(k5, monkeypatch):
    # elements are immutable, so a field keeps one 1; x^e for e > 0 makes
    # only its square-and-multiply products, and x^0 is that kept 1
    assert k5.one() is k5.one() and k5.one() == k5.elt([1])
    x = 1 + 2 * k5.zeta()
    made, make = [], CycloElt._make
    monkeypatch.setattr(CycloElt, "_make", staticmethod(lambda *a: made.append(a) or make(*a)))
    assert x ** 1 is x and x ** 0 is k5.one() and made == []
    assert x ** 5 == x * x * x * x * x
    assert len(made) == 3 + 4  # two squarings and a product, then the four checks


def test_aut_examples(k5):
    z = k5.zeta()
    # conjugation sends zeta to zeta^(n-1)
    assert z.conj() == k5.zeta(4)
    # sigma_2 carries the generator of one prime above 11 to another's
    assert (1 + 2 * z).apply(2) == 1 + 2 * k5.zeta(2)


def test_apply_rejects_a_non_unit():
    z = CycloField(8).zeta()
    for a in (2, 4, 0, -2):
        with pytest.raises(ValueError, match="not coprime to 8"):
            z.apply(a)


def test_aut_composition_on_grid():
    rng = random.Random(0)
    for n in (5, 8, 12, 16, 20):
        field = CycloField(n)
        for _ in range(3):
            x = field.elt([rng.randint(-5, 5) for _ in range(field.degree)])
            for a in field.units:
                for b in field.units:
                    lhs = x.apply(b).apply(a)
                    assert lhs == x.apply(a * b % n)


def test_norm_examples(k5):
    z = k5.zeta()
    assert norm(k5.one()) == 1
    assert norm(z) == 1
    x = 1 + 2 * z
    assert norm(x) == 11
    # oracle 1: resultant of Phi_5 and 1 + 2t
    t = sympy.Symbol("t")
    res = sympy.resultant(sympy.cyclotomic_poly(5, t), 1 + 2 * t)
    assert res == 11
    # oracle 2: the product of the four embeddings at 256 bits, by mpmath's
    # complex interval product, rounds to 11
    acc = None
    for a in k5.units:
        e = to_mpci(embed(x, a, 256))
        acc = e if acc is None else libmpi.mpci_mul(acc, e, 272)
    re, im = (from_mpi(v, 272) for v in acc)
    assert abs(re.midpoint - 11) < Fraction(1, 10 ** 50)
    assert abs(im.midpoint) < Fraction(1, 10 ** 50)


def test_norm_multiplicative_random():
    rng = random.Random(9)
    field = CycloField(12)
    for _ in range(8):
        x = field.elt([Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(4)])
        y = field.elt([rng.randint(-6, 6) for _ in range(4)])
        if x.is_zero() or y.is_zero():
            continue
        assert norm(x * y) == norm(x) * norm(y)


GRID_CONDUCTORS = (5, 7, 8, 11, 12, 13, 15, 16, 20)
ADMISSIBLE_CONDUCTORS = (3, 4, 5, 7, 8, 9, 11, 12, 13, 15, 16, 17, 19, 20)


def norm_by_conjugates(x):
    """Oracle: the product of all phi(n) conjugates of x in exact rationals."""
    prod = x.field.one()
    for a in x.field.units:
        prod = prod * x.apply(a)
    return prod.as_rational()


def _resultant_norm(x):
    t = sympy.Symbol("t")
    poly = sum(sympy.Rational(c.numerator, c.denominator) * t ** i
               for i, c in enumerate(x.coeffs))
    return Fraction(str(sympy.resultant(sympy.cyclotomic_poly(x.field.n, t), poly, t)))


def test_norm_matches_resultant_and_conjugate_product():
    rng = random.Random(17)
    for n in GRID_CONDUCTORS:
        field = CycloField(n)
        deg = field.degree
        assert norm(field.elt([])) == 0
        samples = [
            field.elt([rng.randint(-9, 9) for _ in range(deg)]),
            # coefficients >= 10^8: the CRT bound needs more than one prime
            field.elt([rng.choice((-1, 1)) * rng.randint(10 ** 8, 10 ** 12)
                       for _ in range(deg)]),
            # p-power denominators, as in x_P^c / x_P
            field.elt([Fraction(rng.randint(-50, 50), rng.choice((1, 3, 9, 11 ** 3)))
                       for _ in range(deg)]),
            field.elt([0] * (deg - 1) + [Fraction(-7, 2 ** 5)]),
        ]
        big = samples[1]
        assert 2 * sum(abs(c) for c in big.coeffs) ** deg > _norm_prime(n, 0)[0] ** 2
        for x in samples:
            expected = _resultant_norm(x)
            assert norm(x) == expected
            assert norm_by_conjugates(x) == expected


def test_norm_primes_split_the_cyclotomic_polynomial():
    for n in GRID_CONDUCTORS:
        phi = cyclotomic_polynomial(n)
        for i in range(3):
            ell, roots = _norm_prime(n, i)
            assert ell > 2 ** 62 and ell % n == 1 and sympy.isprime(ell)
            assert i == 0 or ell > _norm_prime(n, i - 1)[0]
            assert len(set(roots)) == len(roots) == CycloField(n).degree
            for w in roots:
                assert sum(c * pow(w, k, ell) for k, c in enumerate(phi)) % ell == 0


def test_embed_examples(k5):
    # frozen oracle (independent high-precision evaluation of 1 + 2e^(2 pi i/5)):
    # 1.61803398874989484820458683436563811772...
    # 1.902113032590307144232878666758764286811...
    x = 1 + 2 * k5.zeta()
    re, im = embed(x, 1, 256)
    re_oracle = Fraction("1.61803398874989484820458683436563811772")
    im_oracle = Fraction("1.902113032590307144232878666758764286811")
    assert abs(re.midpoint - re_oracle) < Fraction(1, 10 ** 35)
    assert abs(im.midpoint - im_oracle) < Fraction(1, 10 ** 35)
    assert re.radius < Fraction(1, 2 ** 200)

    re, im = embed(k5.one(), 1, 64)
    assert re.radius == 0 and re.midpoint == 1 and im.midpoint == 0

    assert modulus_squared(embed(k5.zeta(), 2, 128)).contains(1)


def test_embed_matches_independent_mpmath(k5):
    # independent oracle: mpmath.mp floating evaluation at high dps
    rng = random.Random(3)
    with mpmath.workdps(60):
        for _ in range(5):
            coeffs = [rng.randint(-4, 4) for _ in range(4)]
            x = k5.elt(coeffs)
            for a in k5.places:
                zeta = mpmath.exp(2j * mpmath.mp.pi * a / 5)
                val = sum(c * zeta ** i for i, c in enumerate(coeffs))
                re, im = embed(x, a, 200)
                assert abs(re.midpoint - Fraction(mpmath.nstr(val.real, 40))) < Fraction(1, 10 ** 30)
                assert abs(im.midpoint - Fraction(mpmath.nstr(val.imag, 40))) < Fraction(1, 10 ** 30)


def test_embed_aut_compatibility():
    # sigma_a then the fixed embedding equals the place of a (or its conjugate)
    rng = random.Random(4)
    for n in (5, 8, 12):
        field = CycloField(n)
        x = field.elt([rng.randint(-3, 3) for _ in range(field.degree)])
        for a in field.units:
            lhs = embed(x.apply(a), 1, 128)
            if a in field.places:
                rhs = embed(x, a, 128)
            else:
                re, im = embed(x, n - a, 128)
                rhs = re, -im  # the complex conjugate
            assert lhs[0].overlaps(rhs[0]) and lhs[1].overlaps(rhs[1])


def _mpmath_point(x, a, prec):
    # sigma_a(x) as mpmath's point value at prec bits, from cospi and sinpi,
    # which are exact at a quarter turn
    n, re, im = x.field.n, 0, 0
    with mpmath.workprec(prec):
        for i, c in enumerate(x.num):
            if c:
                t = mpmath.mpf(2 * (a * i % n)) / n
                re, im = re + c * mpmath.cospi(t), im + c * mpmath.sinpi(t)
        return [Fraction(*mpmath.libmp.to_rational(mpmath.mpf(v)._mpf_)) / x.den for v in (re, im)]


def _check_embed(x, a, precision, fine=True):
    # the int dot product contains the per-coefficient interval oracle at 4x
    # the precision, overlaps it at the same precision, and its radius is at
    # most (sum |c_k| + 1) 2^(1 - W) / den with W = precision + 16, c_k the
    # numerator coefficients: the table has H - L <= 2 and den rounds once.
    # Where every nonzero coefficient sits at a quarter turn, the table makes
    # the dot product exact but the oracle's interval cos/sin is not: there
    # the exact ball holds mpmath's point value instead
    got, same = embed(x, a, precision), embed_uncached(x, a, precision)
    w = precision + 16
    bound = Fraction(2 * (sum(map(abs, x.num)) + 1), x.den << w)
    for g, s in zip(got, same):
        assert g.overlaps(s) and g.prec == s.prec == w
        assert g.radius <= bound
    if fine:
        ref = embed_uncached(x, a, 4 * precision)
        for part, (g, f) in enumerate(zip(got, ref)):
            if not (g.lower <= f.lower and f.upper <= g.upper):
                assert g.radius == 0 and g.contains(_mpmath_point(x, a, 4 * precision)[part])


@pytest.mark.parametrize("precision", [64, 288, 1056])
def test_embed_matches_the_uncached_formula(precision):
    # random elements, and rationals, whose exact dot product makes the
    # outward rounding of the division by den the whole enclosure
    rng = random.Random(precision)
    for n in (5, 8, 12, 13, 15, 20):
        field = CycloField(n)
        xs = [field.elt([Fraction(rng.randint(-9, 9), rng.choice((1, 3, 4)))
                         for _ in range(field.degree)]) for _ in range(3)]
        for x in xs + [field.from_rational(Fraction(5, 3)), field.from_rational(Fraction(-7, 3))]:
            for a in field.places:
                _check_embed(x, a, precision)


@pytest.mark.parametrize("precision", [64, 288, 1056])
def test_embed_of_an_integral_element_matches_the_fraction_path(precision):
    # integral elements with small and with huge coefficients, against the
    # 4x oracle at the first place (it costs about 8x the oracle at precision)
    rng = random.Random(precision + 1)
    for n in ADMISSIBLE_CONDUCTORS:
        field = CycloField(n)
        for bits in (4, 40, precision):
            x = field.elt([rng.randint(-2 ** bits, 2 ** bits) for _ in range(field.degree)])
            assert x.den == 1
            for a in field.places:
                _check_embed(x, a, precision, fine=a == field.places[0])


def test_root_of_unity_examples(k5):
    z = k5.zeta()
    assert is_root_of_unity(-(z ** 3)) == 10
    assert is_root_of_unity(k5.one()) == 1
    assert is_root_of_unity(-k5.one()) == 2
    assert is_root_of_unity(z) == 5
    # the quotient of conjugate generators is NOT torsion: otherwise the two
    # primes above 11 would agree as ideals after raising to some power
    x = 1 + 2 * z
    xi = x.conj() / x
    assert is_root_of_unity(xi) is None
    assert is_root_of_unity(1 + 2 * z) is None


@pytest.mark.parametrize("n", ADMISSIBLE_CONDUCTORS)
def test_root_of_unity_lookup_matches_powering(n):
    # the w = lcm(2, n) roots +-zeta^k: the lookup gives the order the
    # powering oracle finds, and phi(d) of them have order d for each d | w
    field = CycloField(n)
    w = field.torsion_order()
    roots = sorted({s * field.zeta(k) for s in (1, -1) for k in range(n)}, key=lambda x: x.num)
    assert len(roots) == w
    orders = [is_root_of_unity(x) for x in roots]
    assert orders == [powering_is_root_of_unity(x) for x in roots]
    assert sorted(orders) == sorted(d for d in range(1, w + 1) if w % d == 0
                                    for _ in range(euler_phi(d)))
    # not torsion, or torsion only for small n (1 + zeta_3 = -zeta_3^2):
    # den != 1, modulus one with den != 1, integral units and non-units
    z = field.zeta()
    rng = random.Random(n)
    others = [roots[0] / 2, (1 + z) / 3, (1 + 2 * z).conj() / (1 + 2 * z), 2 * z, 1 + 2 * z]
    others += [1 + field.zeta(k) for k in range(1, n)]
    others += [field.elt([rng.randint(-2, 2) for _ in range(field.degree)]) for _ in range(5)]
    for x in others:
        if not x.is_zero():
            assert is_root_of_unity(x) == powering_is_root_of_unity(x), x
    with pytest.raises(ZeroDivisionError):
        is_root_of_unity(field.elt([]))


def test_cm_identity_on_unit_circle_elements(k5):
    # |sigma(x)| = 1 everywhere iff x x^c = 1; verified on constructed xi
    x = 1 + 2 * k5.zeta()
    xi = x.conj() / x
    assert xi * xi.conj() == k5.one()
    for a in k5.places:
        assert modulus_squared(embed(xi, a, 128)).contains(1)


def _embedding_sum(x):
    # the sum of all conjugate embeddings, by mpmath's complex interval sum
    total = None
    for a in x.field.units:
        e = to_mpci(embed(x, a, 128))
        total = e if total is None else libmpi.mpci_add(total, e, 144)
    return from_mpi(total[0], 144).midpoint


def test_trace_and_ramanujan(k5):
    assert ramanujan_sum(5, 0) == 4
    assert ramanujan_sum(5, 1) == -1
    assert ramanujan_sum(8, 4) == -4
    # the trace, sum_i c_i c_n(i), is the sum of all conjugate embeddings
    for x in (k5.one(), k5.zeta(), 3 + 2 * k5.zeta(2)):
        trace = sum(c * ramanujan_sum(5, i) for i, c in enumerate(x.num))
        assert abs(_embedding_sum(x) - trace) < Fraction(1, 10 ** 20)


def _assert_canonical(x):
    assert len(x.num) == x.field.degree and all(type(c) is int for c in x.num)
    assert type(x.den) is int and x.den > 0
    assert gcd(x.den, *x.num) == 1


def test_integer_arithmetic_matches_fraction_oracle():
    # denominators: integral, powers of a prime p not dividing n (as in
    # x_P^c / x_P), and products of other primes
    rng = random.Random(29)
    for n in GRID_CONDUCTORS:
        field = CycloField(n)
        deg = field.degree
        p = next(q for q in (3, 7, 11) if n % q)
        dens = {"integral": (1,), "p-power": (1, p, p ** 2, p ** 5),
                "non-p": (1, 2, 10, 2 * 5 * 13, 2 ** 3 * 17)}

        def sample(kind):
            while True:
                x = field.elt([Fraction(rng.randint(-40, 40), rng.choice(dens[kind]))
                               for _ in range(deg)])
                if not x.is_zero():
                    return x

        kinds = list(dens)
        for trial in range(6):
            x, y = sample(kinds[trial % 3]), sample(kinds[(trial + 1) % 3])
            for z in (x, y):
                _assert_canonical(z)
                assert all(isinstance(c, Fraction) for c in z.coeffs)
                assert field.elt(z.coeffs) == z and hash(field.elt(z.coeffs)) == hash(z)
            a, b = x.coeffs, y.coeffs
            cases = [
                (x + y, fraction_add(field, a, b)),
                (x - y, fraction_sub(field, a, b)),
                (x * y, fraction_mul(field, a, b)),
                (x.inverse(), fraction_inverse(field, a)),
                (y / x, fraction_mul(field, b, fraction_inverse(field, a))),
                (x ** -2, fraction_pow(field, a, -2)),
            ]
            aut = rng.choice(field.units)
            cases.append((x.apply(aut), fraction_apply(field, a, aut)))
            for got, want in cases:
                _assert_canonical(got)
                assert got.coeffs == want
                # equality and hashing depend only on the element: zeta^n = 1
                same = field.elt(list(want) + [0] * (n - deg) + [Fraction(1, 3)])
                same = same - Fraction(1, 3)
                assert same == got and hash(same) == hash(got)
            assert x * x.inverse() == field.one()
            assert x != x + 1 and x == x + 0


def test_sparse_reduction_matches_the_dense_remainder():
    # every conductor up to 60, numerators of every product length
    # phi .. 2 phi - 1, of length n (``apply``), 2n and beyond 2n (folded)
    rng = random.Random(60)
    for n in range(3, 61):
        if n % 4 == 2:
            continue
        field, phi_n = CycloField(n), cyclotomic_polynomial(n)
        deg = field.degree
        for length in list(range(deg, 2 * deg)) + [n, 2 * n, 2 * n + 7]:
            num = [rng.randint(-50, 50) for _ in range(length)]
            assert CycloElt._make(field, num, 1).num == tuple(_zm_rem_monic(num, phi_n)[1])
        x = field.elt([rng.randint(-9, 9) for _ in range(deg)])
        for a in rng.sample(field.units, min(4, deg)):
            scattered = [0] * n
            for i, c in enumerate(x.num):
                scattered[a * i % n] += c
            assert x.apply(a).num == tuple(_zm_rem_monic(scattered, phi_n)[1]), (n, a)


def test_from_rational_and_trace_use_the_denominator(k5):
    q = k5.from_rational(Fraction(-6, 4))
    assert (q.num, q.den) == ((-3, 0, 0, 0), 2)
    assert q.as_rational() == Fraction(-3, 2)
    x = k5.elt([Fraction(1, 2), Fraction(1, 3), 0, 0])
    assert abs(_embedding_sum(x) - (Fraction(2) - Fraction(1, 3))) < Fraction(1, 10 ** 20)
    assert k5.elt([]).num == (0,) * 4 and k5.elt([]).den == 1
