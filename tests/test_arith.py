import random
from fractions import Fraction

import mpmath
import pytest
import sympy

from pweil.arith import (
    BallComplex,
    BallReal,
    BranchCutHit,
    GaloisRing,
    NotAUnit,
    PrecisionTooLow,
    arg_principal,
    ball_det,
    padic_log,
    rational_reconstruct,
)
from pweil.cyclo import CycloField, cyclotomic_polynomial
from pweil.splitting import split_prime
from oracles import frobenius, frobenius_norm, hensel_lift_factor


# ---------------------------------------------------------------------------
# BallReal enclosure soundness

def _random_fraction(rng):
    return Fraction(rng.randint(-50, 50), rng.randint(1, 30))


@pytest.mark.parametrize("prec", [64, 128, 256])
def test_enclosure_soundness_random_expressions(prec):
    rng = random.Random(prec)
    for _ in range(40):
        qa, qb, qc = (_random_fraction(rng) for _ in range(3))
        if qc == 0:
            continue
        a = BallReal.from_fraction(qa, prec)
        b = BallReal.from_fraction(qb, prec)
        c = BallReal.from_fraction(qc, prec)
        got = (a + b) * (a - b) - (a * b) / c
        exact = (qa + qb) * (qa - qb) - (qa * qb) / qc
        assert got.contains(exact)
        assert got.radius < Fraction(1, 2 ** (prec // 2))


def test_ball_pow_and_sqrt_enclose():
    x = BallReal.from_fraction(Fraction(7, 3), 128)
    assert (x ** 3).contains(Fraction(343, 27))
    s = BallReal.from_int(2, 128).sqrt()
    assert (s * s).contains(2)


# ---------------------------------------------------------------------------
# ball_det

def test_det_1x1_identity_case():
    x = BallReal.from_fraction(Fraction(5, 7), 64)
    d = ball_det([[x]])
    assert d.lower == x.lower and d.upper == x.upper


def test_det_2x2_exact_identity():
    one = BallReal.from_int(1, 64)
    zero = BallReal.from_int(0, 64)
    d = ball_det([[one, zero], [zero, one]])
    assert d.radius == 0 and d.midpoint == 1


def _exact_det(rows):
    # independent oracle: fraction Gaussian elimination
    a = [[Fraction(x) for x in r] for r in rows]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        inv = 1 / a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] * inv
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


def test_det_encloses_exact_on_random_rational_matrices():
    rng = random.Random(11)
    for trial in range(15):
        n = rng.randint(2, 5)
        exact_rows = [[_random_fraction(rng) for _ in range(n)] for _ in range(n)]
        rows = [[BallReal.from_fraction(x, 128) for x in r] for r in exact_rows]
        assert ball_det(rows).contains(_exact_det(exact_rows))


def test_det_nonsquare_rejected():
    one = BallReal.from_int(1, 64)
    with pytest.raises(ValueError):
        ball_det([[one, one]])


# ---------------------------------------------------------------------------
# arg_principal

def _pi_fraction(dps: int = 50) -> Fraction:
    with mpmath.workdps(dps + 10):
        return Fraction(mpmath.nstr(mpmath.mp.pi, dps))


def test_arg_quadrants():
    prec = 128
    cases = [
        ((1, 1), Fraction(1, 4)),    # pi/4
        ((-1, 1), Fraction(3, 4)),
        ((-1, -1), Fraction(-3, 4)),
        ((1, -1), Fraction(-1, 4)),
        ((0, 1), Fraction(1, 2)),
        ((0, -1), Fraction(-1, 2)),
    ]
    pi = _pi_fraction()
    for (re, im), mult in cases:
        z = BallComplex.from_fractions(re, im, prec)
        val = arg_principal(z)
        assert abs(val.midpoint - pi * mult) < Fraction(1, 10 ** 30)


def test_arg_negative_real_axis_exact_is_pi():
    z = BallComplex.from_fractions(-2, 0, 128)
    val = arg_principal(z)
    assert abs(val.midpoint - _pi_fraction()) < Fraction(1, 10 ** 30)
    assert val.radius < Fraction(1, 10 ** 30)


def test_arg_branch_cut_straddle_raises():
    re = BallReal.from_int(-1, 64)
    im = BallReal.from_endpoints(Fraction(-1, 1000), Fraction(1, 1000), 64)
    with pytest.raises(BranchCutHit):
        arg_principal(BallComplex(re, im))


def test_arg_enclosing_zero_raises():
    z = BallComplex(
        BallReal.from_endpoints(-1, 1, 64),
        BallReal.from_endpoints(-1, 1, 64),
    )
    with pytest.raises(PrecisionTooLow):
        arg_principal(z)


# ---------------------------------------------------------------------------
# rational reconstruction

def test_reconstruct_half():
    x = BallReal.from_fraction(Fraction(1, 2), 256)
    assert rational_reconstruct(x, 10) == Fraction(1, 2)


def test_reconstruct_seven_thirds():
    x = BallReal.from_fraction(Fraction(7, 3), 256)
    assert rational_reconstruct(x, 5) == Fraction(7, 3)


def test_reconstruct_pi_has_no_small_rational():
    # oracle: the best rational approximation of pi with denominator <= 1000
    # is 355/113, off by about 2.7e-7, far outside the 256-bit ball
    pi_ball = BallReal.pi(256)
    best = pi_ball.midpoint.limit_denominator(1000)
    assert best == Fraction(355, 113)
    assert abs(best - pi_ball.midpoint) > Fraction(1, 10 ** 8)
    assert rational_reconstruct(pi_ball, 1000) is None


def test_reconstruct_roundtrip_random():
    rng = random.Random(5)
    bound = 99
    for _ in range(50):
        q = Fraction(rng.randint(-500, 500), rng.randint(1, bound))
        x = BallReal.from_fraction(q, 256)
        assert rational_reconstruct(x, bound) == q


def test_reconstruct_precondition():
    wide = BallReal.from_endpoints(Fraction(0), Fraction(1, 10), 64)
    with pytest.raises(PrecisionTooLow):
        rational_reconstruct(wide, 10)


# ---------------------------------------------------------------------------
# Galois rings and the p-adic logarithm

def test_padic_log_of_one_is_exactly_zero():
    R = GaloisRing(7, 30, 1, (0, 1))
    val = padic_log(R.one())
    assert val.is_zero() and val.precision == 30


def test_padic_log_kills_teichmueller():
    # the Teichmueller lift of a residue is the limit of u^(p^(f j))
    R = GaloisRing(5, 20, 2, (2, 0, 1))
    t = R.elt([0, 1])
    for _ in range(40):
        t = R.power(t, 25)
    assert R.power(t, 24) == R.one()
    assert padic_log(t).is_zero()


def test_padic_log_series_value_p11():
    # oracle: direct summation of sum (-1)^(m+1) 11^m / m over Q, reduced
    # 11-adically; frozen independently computed value 12599164094 mod 11^10
    p, K = 11, 10
    total = Fraction(0)
    for m in range(1, 30):
        total += Fraction((-1) ** (m + 1) * p ** m, m)
    assert total.denominator % p != 0
    oracle = total.numerator * pow(total.denominator, -1, p ** K) % (p ** K)
    assert oracle == 12599164094

    R = GaloisRing(p, K, 1, (0, 1))
    got = padic_log(R.from_int(1 + p))
    assert got.coeffs[0] == oracle % (p ** got.precision)


@pytest.mark.parametrize("p,f,K", [(3, 1, 30), (3, 2, 20), (11, 1, 12), (2, 3, 25), (7, 2, 40)])
def test_padic_log_homomorphism(p, f, K):
    # moduli irreducible mod p: t, t^2+1 (3), t, t^3+t+1 (2), t^2+4 (7)
    moduli = {
        (3, 1): (0, 1), (3, 2): (1, 0, 1),
        (11, 1): (0, 1), (2, 3): (1, 1, 0, 1), (7, 2): (4, 0, 1),
    }
    R = GaloisRing(p, K, f, moduli[(p, f)])
    rng = random.Random(p * 100 + f)
    for _ in range(20):
        u = R.elt([rng.randrange(R.pK) for _ in range(f)])
        v = R.elt([rng.randrange(R.pK) for _ in range(f)])
        if not (u.is_unit() and v.is_unit()):
            continue
        lu, lv, luv = padic_log(u), padic_log(v), padic_log(u * v)
        prec = min(lu.precision, lv.precision, luv.precision)
        resid = (lu.at_precision(prec) + lv.at_precision(prec)) - luv.at_precision(prec)
        assert resid.is_zero()


def test_padic_log_rejects_non_units():
    R = GaloisRing(5, 10, 1, (0, 1))
    with pytest.raises(NotAUnit):
        padic_log(R.from_int(10))


def test_galois_ring_inverse_and_norm():
    R = GaloisRing(5, 20, 2, (2, 0, 1))
    rng = random.Random(2)
    for _ in range(10):
        u = R.elt([rng.randrange(R.pK) for _ in range(2)])
        if not u.is_unit():
            continue
        assert u * u.inverse() == R.one()
        v = R.elt([rng.randrange(R.pK), rng.randrange(R.pK)])
        if not v.is_unit():
            continue
        assert R.norm(u * v) == (R.norm(u) * R.norm(v)) % R.pK
    # Frobenius has order f and fixes the base ring
    u = R.elt([3, 7])
    assert frobenius(R, frobenius(R, u)) == u
    assert frobenius(R, R.from_int(13)) == R.from_int(13)


def _norm_rings(case):
    if case == "t^2+2 mod 5^20":
        return [GaloisRing(5, 20, 2, (2, 0, 1))]
    if case == "t^3+t+1 mod 2^25":
        return [GaloisRing(2, 25, 3, (1, 1, 0, 1))]
    n, p, K = case
    split = split_prime(CycloField(n), p, K)
    phi = cyclotomic_polynomial(n)
    return [GaloisRing(p, K, split.f, hensel_lift_factor(phi, pr.h_bar, p, K))
            for pr in (split.primes[0], split.primes[-1])] + [split.ring_at(K)[0]]


@pytest.mark.parametrize("case", ["t^2+2 mod 5^20", "t^3+t+1 mod 2^25", (13, 79, 50),
                                  (8, 5, 40), (7, 2, 60), (13, 3, 30), (11, 3, 30),
                                  (17, 2, 40), (19, 2, 25)], ids=str)
def test_galois_ring_norm_is_the_resultant_and_the_frobenius_product(case):
    # the determinant norm against Res(h, a) mod p^K (sympy) and against the
    # product of the f Frobenius conjugates, on units, on non-units (p | x,
    # including 0) and on x = t, whose first pivot is zero, for two moduli
    # that are not cyclotomic, for factors of Phi_n (f = 1, 2, 3, 5, 8, 18)
    # and for the factor mod p that ``split_prime`` keeps as its modulus
    X = sympy.Symbol("X")
    for R in _norm_rings(case):
        rng = random.Random(R.pK % 1000003)
        elts = [R.zero(), R.one(), R.elt([0, 1]), R.elt([0, R.p]), R.from_int(R.p ** 3)]
        for _ in range(4):
            u = R.elt([rng.randrange(R.pK) for _ in range(R.f)])
            elts += [u, u * R.from_int(R.p), R.elt([0] + list(u.coeffs[1:]))]
        h = sympy.Poly(list(reversed(R.modulus)), X)
        for x in elts:
            res = sympy.resultant(h, sympy.Poly(list(reversed(x.coeffs)), X))
            assert R.norm(x) == int(res) % R.pK
            assert R.norm(x) == frobenius_norm(R, x)
        assert any(x.is_unit() for x in elts) and any(not x.is_unit() for x in elts)


def test_galois_ring_norm_accepts_a_reducible_modulus():
    # t^2 + 3t + 2 = (t + 1)(t + 2): the determinant needs no field
    X = sympy.Symbol("X")
    R = GaloisRing(7, 10, 2, (2, 3, 1))
    h = sympy.Poly([1, 3, 2], X)
    for c in ([0, 1], [1, 1], [2, 1], [5, 3], [7, 0], [0, 0]):
        res = sympy.resultant(h, sympy.Poly(list(reversed(c)), X))
        assert R.norm(R.elt(c)) == int(res) % R.pK
