import random
from fractions import Fraction

import mpmath
import pytest
import sympy
from mpmath.libmp import from_rational, libmpi, mpf_cos_sin
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_add, gf_div, gf_from_int_poly, gf_gcd, gf_mul

from pweil import arith
from pweil.arith import (
    BallReal,
    BranchCutHit,
    GaloisRing,
    NotAUnit,
    PrecisionTooLow,
    _zm_rem_monic,
    arg_principal,
    ball_det,
    binary_power,
    padic_log,
    prime_factors,
    rational_reconstruct,
)
from pweil.cyclo import CycloField, _cos_sin_table, cyclotomic_polynomial, euler_phi, moebius
from pweil.splitting import _gcd_monic, is_prime, split_prime
from pweil.weilgroup import _primitive_root
from oracles import (bareiss_det, fraction_contains_zero, fraction_excludes_zero,
                     fraction_is_negative, fraction_is_positive, fraction_overlaps, frobenius,
                     frobenius_norm, from_mpi, galois_ring_inverse, hensel_lift_factor,
                     mpi_cos_sin, resultant_mod, ring_padic_log, schoolbook_mul, to_mpi,
                     two_settle_log_ends)


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
    assert (x * x * x).contains(Fraction(343, 27))
    s = BallReal.from_int(2, 128).sqrt()
    assert (s * s).contains(2)


def _predicate_balls(rng):
    """Random balls, exact zeros, balls touching at an endpoint and rounded
    results of arithmetic at a low precision."""
    balls = [BallReal.zero(64), BallReal.from_int(0, 53), BallReal.from_endpoints(0, 0, 64),
             BallReal.from_endpoints(-1, 0, 64), BallReal.from_endpoints(0, 1, 64)]
    for _ in range(60):
        lo, hi = sorted((_random_fraction(rng), _random_fraction(rng)))
        prec = rng.choice([16, 53, 128])
        x = BallReal.from_endpoints(lo, hi, prec)
        balls += [x, BallReal.from_endpoints(hi, hi + 1, prec), BallReal.from_fraction(lo, prec),
                  (x * BallReal.from_fraction(Fraction(1, 3), 8)) - Fraction(1, 7)]
    return balls


def test_ball_predicates_match_the_fraction_endpoints():
    # the mpf comparisons against the Fraction ones on every ball and pair
    balls = _predicate_balls(random.Random(5))
    for x in balls:
        assert x.contains_zero() == fraction_contains_zero(x)
        assert x.excludes_zero() == fraction_excludes_zero(x)
        assert x.is_positive() == fraction_is_positive(x)
        assert x.is_negative() == fraction_is_negative(x)
    touching = 0
    for x in balls[:80]:
        for y in balls[:80]:
            assert x.overlaps(y) == fraction_overlaps(x, y)
            touching += x.upper == y.lower
    assert touching > 0


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


@pytest.mark.parametrize("case", ["every entry holds 0", "one step, then no pivot"])
def test_det_without_a_pivot_falls_back_to_the_hadamard_bound(case, monkeypatch):
    # when no pivot excludes 0, ball_det returns the Hadamard interval of the
    # rows: at once for a matrix whose entries all contain 0, or after one
    # elimination step that leaves a 2x2 remainder with no usable pivot; it
    # must hold the exact determinant of random point matrices in the balls
    rng = random.Random(len(case))
    if case == "every entry holds 0":
        ends = [[(-rng.randint(0, 40), rng.randint(0, 40)) for _ in range(3)] for _ in range(3)]
    else:
        ends = [[(32, 32), (16, 48), (-40, 8)],
                [(-1, 1), (-8, 8), (20, 30)],
                [(-2, 1), (-4, 12), (-30, -10)]]
    den = 16  # the ends are ints over den; point matrices are ints over den too
    rows = [[BallReal.from_endpoints(Fraction(lo, den), Fraction(hi, den), 64) for lo, hi in r]
            for r in ends]
    calls = []

    def spy(rows, prec):
        calls.append(prec)
        return hadamard(rows, prec)

    hadamard = arith._hadamard_interval
    monkeypatch.setattr(arith, "_hadamard_interval", spy)
    got = ball_det(rows)
    assert calls == [64] and -got.lower == got.upper > 0
    for _ in range(200):
        points = [[rng.randint(lo, hi) for lo, hi in r] for r in ends]
        assert got.contains(Fraction(bareiss_det(points), den ** 3))


def test_det_nonsquare_rejected():
    one = BallReal.from_int(1, 64)
    with pytest.raises(ValueError):
        ball_det([[one, one]])


# ---------------------------------------------------------------------------
# plain-int balls against mpmath's interval kernels (libmpi) as the oracle

def _random_ball(rng, prec):
    """A ball at prec bits whose ends have up to prec + 20 bits, scaled by
    2^-60 to 2^60 or, one time in five, 2^-3000 to 2^3000: an exact point, an
    exact int, 0, a ball around 0 or a random ball."""
    bits = rng.randint(1, prec + 20)
    m = rng.getrandbits(bits) * rng.choice((1, -1))
    e = bits - (rng.randint(-60, 60) if rng.randrange(5) else rng.randint(-3000, 3000))
    kind = rng.randrange(5)
    if kind == 0:
        return BallReal.from_scaled_ints(m, m, e, prec)
    if kind == 1:
        return BallReal.from_int(rng.randint(-5, 5), prec)
    rad = abs(m) + rng.getrandbits(3) if kind == 2 else rng.getrandbits(rng.randint(0, bits))
    return BallReal.from_scaled_ints(m - rad, m + rad, e, prec)


def test_arithmetic_ends_equal_mpi_exactly():
    # a divisor that contains 0, an exact-zero one included, raises
    # PrecisionTooLow, whatever the dividend; every other quotient keeps the
    # ends of mpi_div
    rng = random.Random(1100)
    balls = [_random_ball(rng, rng.randint(64, 1100)) for _ in range(400)]
    # the last two pairs with a neighbour are 0 / [0, 1] and 0 / 0
    balls += [BallReal.from_endpoints(0, 1, 64), BallReal.zero(64), BallReal.zero(64)]
    for i, x in enumerate(balls):
        ys = [balls[i - 1], balls[(i * 7) % len(balls)], _random_ball(rng, x.prec)]
        for y in ys:
            prec = max(x.prec, y.prec)
            mx, my = to_mpi(x), to_mpi(y)
            assert to_mpi(x + y) == libmpi.mpi_add(mx, my, prec)
            assert to_mpi(x - y) == libmpi.mpi_sub(mx, my, prec)
            assert to_mpi(x * y) == libmpi.mpi_mul(mx, my, prec)
            if y.contains_zero():
                with pytest.raises(PrecisionTooLow):
                    x / y
            else:
                assert to_mpi(x / y) == libmpi.mpi_div(mx, my, prec)
        mx = to_mpi(x)
        assert to_mpi(-x) == libmpi.mpi_neg(mx, x.prec)
        assert to_mpi(abs(x)) == libmpi.mpi_abs(mx, x.prec)
        if x.lower >= 0:
            assert to_mpi(x.sqrt()) == libmpi.mpi_sqrt(mx, x.prec)
    for _ in range(200):
        prec = rng.randint(64, 1100)
        q = Fraction(rng.getrandbits(rng.randint(1, 1200)) * rng.choice((1, -1)),
                     rng.getrandbits(rng.randint(1, 1200)) + 1)
        assert to_mpi(BallReal.from_fraction(q, prec)) == tuple(
            from_rational(q.numerator, q.denominator, prec, rnd) for rnd in "fc")


def test_to_str_equals_mpi_to_str():
    rng = random.Random(25)
    balls = [_random_ball(rng, rng.randint(64, 1100)) for _ in range(400)]
    balls += [BallReal.from_scaled_ints(10 ** 30 - 1, 10 ** 30, 0, 64),
              BallReal.from_fraction(Fraction(-1, 3), 64),
              BallReal.from_scaled_ints(-3, 5, -20000, 64),
              BallReal.from_scaled_ints(-5, 3, 20000, 64)]
    for x in balls:
        for dps in (20, 25):
            assert x.to_str(dps) == libmpi.mpi_to_str(to_mpi(x), dps)


def _ulp(x: Fraction, prec: int) -> Fraction:
    return Fraction(2) ** (x.numerator.bit_length() - x.denominator.bit_length() - prec)


def _assert_encloses_tightly(got, exact, same_prec, prec, ulps=4):
    """got contains mpmath's enclosure at 64 more bits, and is at most ulps
    ulps wider than mpmath's at the same precision."""
    assert got.lower <= exact.lower and exact.upper <= got.upper
    size = max(abs(same_prec.lower), abs(same_prec.upper))
    slack = ulps * _ulp(size, prec) if size else 0
    assert (got.upper - got.lower) - (same_prec.upper - same_prec.lower) <= slack


def test_pi_and_log_enclosures_against_mpi():
    rng = random.Random(64)
    for prec in list(range(64, 1101, 37)) + [1100]:
        exact = from_mpi(libmpi.mpi_pi(prec + 64), prec + 64)
        _assert_encloses_tightly(BallReal.pi(prec), exact, from_mpi(libmpi.mpi_pi(prec), prec),
                                 prec)
        lo = rng.choice((rng.randint(2, 1000), rng.getrandbits(rng.randint(2, 1200)) + 1))
        ball = BallReal.from_scaled_ints(lo, lo + rng.randint(0, 2), rng.randint(-80, 80), prec)
        v = to_mpi(ball)
        _assert_encloses_tightly(ball.log(), from_mpi(libmpi.mpi_log(v, prec + 64), prec + 64),
                                 from_mpi(libmpi.mpi_log(v, prec), prec), prec)
    assert BallReal.from_int(1, 64).log().is_exact_zero()


def test_log_of_an_exact_ball_is_one_evaluation(monkeypatch):
    # log p for every prime p < 1000 at four precisions: one _log_fixed
    # evaluation gives both ends, and they are the ends that two settles,
    # one per end with log 2 summed in each evaluation, give
    kernel, widths = arith._log_fixed, []
    monkeypatch.setattr(arith, "_log_fixed", lambda m, e, w: widths.append(w) or kernel(m, e, w))
    for prec in (64, 256, 1056, 2048):
        for p in filter(is_prime, range(2, 1000)):
            ball = BallReal.from_int(p, prec)
            widths.clear()
            got = ball.log()
            assert widths == [prec + 32], (p, prec, widths)
            assert got.man_exp() == two_settle_log_ends(ball), (p, prec)


def test_cos_sin_enclosures_against_mpi():
    # the table of cos and sin of 2 pi k / n, n <= 60, every k < n, at four
    # working precisions: each entry encloses the value mpmath gives at 3 wp
    # bits, or is the exact 0 or +-1 at a quarter turn (4k / n an integer);
    # H - L <= 2; and it overlaps the entry that mpmath's interval cos/sin of
    # the ball 2 pi k / n at wp + 8 bits gives, floored and ceiled to 2^-wp
    for wp in (64, 176, 560, 1072):
        two_pi = BallReal.pi(wp + 8) * 2
        with mpmath.workprec(3 * wp):
            for n in range(1, 61):
                for k, (ends, swapped) in enumerate(_cos_sin_table(n, wp)):
                    cl, ch, sl, sh = ends
                    assert swapped == (ch, cl, sh, sl)
                    assert ch - cl <= 2 and sh - sl <= 2
                    if 4 * k % n == 0:
                        c, s = ((1, 0), (0, 1), (-1, 0), (0, -1))[4 * k // n]
                        assert ends == (c << wp, c << wp, s << wp, s << wp)
                    else:
                        x = (2 * mpmath.pi * k / n)._mpf_
                        c, s = (mpmath.ldexp(mpmath.mpf(v), wp) for v in mpf_cos_sin(x, 3 * wp))
                        assert cl <= c <= ch and sl <= s <= sh
                    (ol, oh), (tl, th) = (b.int_bounds(wp) for b in
                                          mpi_cos_sin(two_pi * Fraction(k, n)))
                    assert ol <= ch and cl <= oh and tl <= sh and sl <= th


# ---------------------------------------------------------------------------
# atan: one evaluation at the midpoint against mpi_atan at both ends

def _random_atan_ball(rng, kind: str):
    """(lo, hi, e, prec): the exact ball [lo 2^-e, hi 2^-e] at prec bits."""
    prec = rng.randint(64, 1100)
    scale = {"tiny": -40, "huge": 40}.get(kind, rng.randint(-8, 8))
    e = prec - scale  # |mid| near 2^scale
    mid = rng.randint(1 << (prec - 1), 1 << prec) * rng.choice((-1, 1))
    if kind == "negative":
        mid = -abs(mid)
    if kind == "point":
        return mid, mid, e, prec
    if kind == "zero":
        return 0, 0, e, prec
    # radii from about the precision the caller needs down to an ulp
    rad = rng.randint(0, 1 << rng.randint(0, prec // 2))
    if kind == "straddle":  # contains 0, off centre, |x| <= 2^-(2 prec/3) as an
        # argument quotient near 0 is; atan x = x - x^3/3 + ..., and the cubic
        # term is below an ulp only for such x
        e, rad = prec, rng.randint(1, 1 << prec // 3)
        mid = rng.randint(-rad, rad)
    return mid - rad, mid + rad, e, prec


@pytest.mark.parametrize("kind", ["point", "zero", "straddle", "negative", "tiny", "huge",
                                  "random"])
def test_atan_one_evaluation_matches_mpi_atan(kind):
    # the new ball contains the exact image [atan lo, atan hi] (mpi_atan 64 bits
    # finer) and is at most a few ulps wider than mpi_atan at the same
    # precision: one ulp each side for the evaluation, one for the outward
    # rounding of each end, and the second-order term of the mean value bound,
    # below an ulp each side for radii below 2^-(prec/2) |x|
    rng = random.Random("atan-" + kind)
    for _ in range(60):
        lo, hi, e, prec = _random_atan_ball(rng, kind)
        ball = BallReal.from_scaled_ints(lo, hi, e, prec)
        got = ball.atan()
        exact = from_mpi(libmpi.mpi_atan(to_mpi(ball), prec + 64), prec + 64)
        old = from_mpi(libmpi.mpi_atan(to_mpi(ball), prec), prec)
        assert got.lower <= exact.lower and exact.upper <= got.upper
        size = max(abs(old.lower), abs(old.upper))
        if size == 0:
            assert got.lower == got.upper == 0
            continue
        ulp = Fraction(2) ** (size.numerator.bit_length() - size.denominator.bit_length() - prec)
        assert (got.upper - got.lower) - (old.upper - old.lower) <= 6 * ulp


def test_atan_at_exact_points_against_mpi():
    # +-1 (atan = +-pi/4), powers of 2 and ints on both sides of the
    # reduction through 1/x, at the precisions of the callers
    for prec in (64, 176, 560, 1100):
        for lo, e in ((1, 0), (-1, 0), (1, 40), (1, -40), (3, 0), (-5, 1), (7, -3)):
            ball = BallReal.from_scaled_ints(lo, lo, -e, prec)
            exact = from_mpi(libmpi.mpi_atan(to_mpi(ball), prec + 64), prec + 64)
            same = from_mpi(libmpi.mpi_atan(to_mpi(ball), prec), prec)
            _assert_encloses_tightly(ball.atan(), exact, same, prec)


def test_atan_of_exact_zero_stays_exact():
    # the argument of 1 is [0, 0]
    assert BallReal.zero(128).atan().lower == BallReal.zero(128).atan().upper == 0
    val = arg_principal(BallReal.from_int(1, 128), BallReal.zero(128))
    assert val.lower == val.upper == 0


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
        val = arg_principal(BallReal.from_fraction(re, prec), BallReal.from_fraction(im, prec))
        assert abs(val.midpoint - pi * mult) < Fraction(1, 10 ** 30)


def test_arg_negative_real_axis_exact_is_pi():
    val = arg_principal(BallReal.from_fraction(-2, 128), BallReal.zero(128))
    assert abs(val.midpoint - _pi_fraction()) < Fraction(1, 10 ** 30)
    assert val.radius < Fraction(1, 10 ** 30)


def test_arg_branch_cut_straddle_raises():
    re = BallReal.from_int(-1, 64)
    im = BallReal.from_endpoints(Fraction(-1, 1000), Fraction(1, 1000), 64)
    with pytest.raises(BranchCutHit):
        arg_principal(re, im)


def test_arg_enclosing_zero_raises():
    with pytest.raises(PrecisionTooLow):
        arg_principal(BallReal.from_endpoints(-1, 1, 64), BallReal.from_endpoints(-1, 1, 64))


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
# The p-adic logarithm on Z/p^K, and Galois rings

def test_padic_log_of_one_is_exactly_zero():
    assert padic_log(1, 7, 30) == (0, 30)


def test_padic_log_kills_teichmueller():
    # the Teichmueller lift of a residue is the limit of a^(p^j); its
    # logarithm is exactly 0, at full precision
    pK = 5 ** 20
    t = 2
    for _ in range(40):
        t = pow(t, 5, pK)
    assert pow(t, 4, pK) == 1
    assert padic_log(t, 5, 20) == (0, 20)


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

    got, prec = padic_log(1 + p, p, K)
    assert got == oracle % (p ** prec)


# (p, K) on Z/p^K, residue degree 1 in the ids
HOMOMORPHISM_CASES = [(3, 30), (11, 12), (2, 25), (7, 40), (79, 50)]


@pytest.mark.parametrize("p,K", HOMOMORPHISM_CASES,
                         ids=["%d-1-%d" % case for case in HOMOMORPHISM_CASES])
def test_padic_log_homomorphism(p, K):
    pK = p ** K
    rng = random.Random(p * 100 + 1)
    for _ in range(20):
        u, v = rng.randrange(pK), rng.randrange(pK)
        if u % p == 0 or v % p == 0:
            continue
        (lu, ku), (lv, kv), (luv, kuv) = (padic_log(w, p, K) for w in (u, v, u * v))
        assert (lu + lv - luv) % p ** min(ku, kv, kuv) == 0


def test_padic_log_rejects_non_units():
    with pytest.raises(NotAUnit):
        padic_log(10, 5, 10)


def _log_cases(p, K, rng):
    """Seven random units, -1, 1 + p, a Teichmueller lift and a non-unit of Z/p^K."""
    pK = p ** K
    units = []
    while len(units) < 7:
        u = rng.randrange(pK)
        if u % p:
            units.append(u)
    teich = pow(rng.randrange(1, p), p ** (K - 1), pK)
    return units + [-1, 1 + p, teich, p * rng.randrange(1, pK)]


def test_padic_log_matches_the_ring_oracle():
    # the int logarithm against the degree-1 Galois-ring one, value,
    # precision and exception alike, on 8 primes x 15 precisions x 11 cases
    rng = random.Random(1320)
    cases = 0
    for p in (2, 3, 5, 7, 11, 13, 79, 97):
        for K in list(range(1, 12)) + [20, 40, 50, 64]:
            ring = GaloisRing(p, K, 1, (0, 1))
            for u in _log_cases(p, K, rng):
                cases += 1
                try:
                    want = ring_padic_log(ring.from_int(u))
                    want = (want.coeffs[0], want.ring.prec)
                except (NotAUnit, PrecisionTooLow) as exc:
                    with pytest.raises(type(exc)):
                        padic_log(u, p, K)
                    continue
                assert padic_log(u, p, K) == want, (p, K, u)
    assert cases == 1320


def test_galois_ring_inverse_and_norm():
    # the Newton inverse the Frobenius oracle lifts its root with inverts
    R = GaloisRing(5, 20, 2, (2, 0, 1))
    rng = random.Random(2)
    for _ in range(10):
        u = R.elt([rng.randrange(R.pK) for _ in range(2)])
        if not any(c % 5 for c in u.coeffs):
            continue
        assert u * galois_ring_inverse(R, u) == R.one()
    # Frobenius has order f and fixes the base ring
    u = R.elt([3, 7])
    assert frobenius(R, frobenius(R, u)) == u
    assert frobenius(R, R.from_int(13)) == R.from_int(13)


@pytest.mark.parametrize("p", [2, 3, 97, 997])
@pytest.mark.parametrize("K", [1, 50])
def test_packed_product_matches_the_schoolbook_oracle(p, K):
    # random monic moduli and the extreme one (every coefficient p^K - 1, so
    # every packed row entry can be the largest), on random operands and on
    # the all-(p^K - 1) operand, whose slots come closest to carrying
    rng = random.Random(1000 * p + K)
    pK = p ** K
    for f in range(1, 17):
        moduli = [[rng.randrange(pK) for _ in range(f)] + [1] for _ in range(3)]
        for modulus in moduli + [[pK - 1] * f + [1]]:
            ring = GaloisRing(p, K, f, modulus)
            top = (pK - 1,) * f
            pairs = [(top, top), (top, (1,) + (0,) * (f - 1)), ((0,) * f, top)]
            pairs += [(tuple(rng.randrange(pK) for _ in range(f)),
                       tuple(rng.randrange(pK) for _ in range(f))) for _ in range(4)]
            for a, b in pairs:
                assert ring._mul(a, b) == schoolbook_mul(ring, a, b), (p, K, f, modulus, a, b)


def _be(a, m):
    """A little-endian list as sympy's big-endian dense polynomial mod m."""
    return gf_from_int_poly(list(reversed(a)), m)


def _random_poly(rng, p, lo, hi, monic=False):
    return [rng.randrange(p) for _ in range(rng.randint(lo, hi))] + ([1] if monic else [])


@pytest.mark.parametrize("p", [2, 3, 97, 997])
def test_monic_division_matches_sympy_gf_div(p):
    # quotient and remainder against sympy, a = q h + r, r padded to deg h
    rng = random.Random(p)
    for _ in range(300):
        h = _random_poly(rng, p, 1, 12, monic=True)
        a = _random_poly(rng, p, 0, 3 * (len(h) - 1))
        q, r = _zm_rem_monic(a, h, p)
        assert len(r) == len(h) - 1 and all(0 <= c < p for c in q + r)
        assert (_be(q, p), _be(r, p)) == gf_div(_be(a, p), _be(h, p), p, ZZ), (p, a, h)
        assert gf_add(gf_mul(_be(q, p), _be(h, p), p, ZZ), _be(r, p), p, ZZ) == _be(a, p)


def test_monic_division_over_z_factors_x_n_minus_1():
    # x^n - 1 = Phi_n prod_{d | n, d < n} Phi_d, exactly, for every n <= 60
    for n in range(1, 61):
        rest = [-1] + [0] * (n - 1) + [1]
        for d in [d for d in range(1, n + 1) if n % d == 0][::-1]:
            rest, rem = _zm_rem_monic(rest, cyclotomic_polynomial(d))
            assert not any(rem) and len(rem) == euler_phi(d), (n, d)
        assert rest == [1], n


@pytest.mark.parametrize("p", [2, 3, 97, 997])
def test_monic_gcd_matches_sympy_gf_gcd(p):
    # a = 0, a = h, a random, a sharing a factor with h and a multiple of h
    rng = random.Random(p + 1)
    for _ in range(200):
        common = _be(_random_poly(rng, p, 0, 4, monic=True), p)
        h = gf_mul(_be(_random_poly(rng, p, 1, 10, monic=True), p), common, p, ZZ)
        b = _be(_random_poly(rng, p, 1, 15), p)
        for a in ([], h, b, gf_mul(b, common, p, ZZ), gf_mul(b, h, p, ZZ)):
            got = _gcd_monic(a[::-1], h[::-1], p)
            assert _be(got, p) == gf_gcd(a, h, p, ZZ), (p, a, h)


def test_binary_power_matches_repeated_products():
    # from the lowest set bit on, on a CycloElt with a denominator and a PadicElt
    field = CycloField(7)
    ring = GaloisRing(5, 20, 3, (2, 0, 1, 1))
    for x, one in ((field.elt([Fraction(1, 2), -1, 0, 1]), field.one()),
                   (ring.elt([3, 7, 5 ** 19 + 11]), ring.one())):
        want = one
        for e in range(71):
            assert binary_power(x, e, one) == want and x ** e == want, e
            want = want * x


def _norm_rings(case):
    if case == "t^2+2 mod 5^20":
        return [GaloisRing(5, 20, 2, (2, 0, 1))]
    if case == "t^3+t+1 mod 2^25":
        return [GaloisRing(2, 25, 3, (1, 1, 0, 1))]
    n, p, K = case
    split = split_prime(CycloField(n), p)
    phi = cyclotomic_polynomial(n)
    return [GaloisRing(p, K, split.f, hensel_lift_factor(phi, pr.h_bar, p, K))
            for pr in (split.primes[0], split.primes[-1])] + [split.ring_at(K)[0]]


@pytest.mark.parametrize("case", ["t^2+2 mod 5^20", "t^3+t+1 mod 2^25", (13, 79, 50),
                                  (8, 5, 40), (7, 2, 60), (13, 3, 30), (11, 3, 30),
                                  (17, 2, 40), (19, 2, 25)], ids=str)
def test_galois_ring_norm_is_the_resultant_and_the_frobenius_product(case):
    # the norm to Z/p^K, Res(h, a) mod p^K (sympy), is the product of the f
    # conjugates under the oracle's Frobenius (t sent to the lifted root of h
    # congruent to t^p), on units, on non-units (p | x, including 0) and on
    # x = t, for two moduli that are not cyclotomic, for factors of Phi_n
    # (f = 1, 2, 3, 5, 8, 18) and for the factor mod p that ``split_prime``
    # keeps as its modulus; in that ring, the oracle's Frobenius sends the
    # image of y at every prime to the image of sigma_p(y), the fact that
    # lets ``gross_row`` take the local norm as a product of images
    for R in _norm_rings(case):
        rng = random.Random(R.pK % 1000003)
        elts = [R.from_int(0), R.one(), R.elt([0, 1]), R.elt([0, R.p]), R.from_int(R.p ** 3)]
        for _ in range(4):
            u = R.elt([rng.randrange(R.pK) for _ in range(R.f)])
            elts += [u, u * R.from_int(R.p), R.elt([0] + list(u.coeffs[1:]))]
        for x in elts:
            assert frobenius_norm(R, x) == resultant_mod(R.modulus, x.coeffs, R.pK)
        units = [any(c % R.p for c in x.coeffs) for x in elts]
        assert any(units) and not all(units)
    if isinstance(case, tuple):
        n, p, K = case
        split = split_prime(CycloField(n), p)
        ring = split.ring_at(K)[0]
        rng = random.Random(n * p)
        for _ in range(3):
            y = split.field.elt([rng.randint(-9, 9) for _ in range(split.field.degree)])
            for pr in split.primes:
                assert frobenius(ring, pr.image(y.num, K)) == pr.image(y.apply(p).num, K)


# ---------------------------------------------------------------------------
# Trial-division factorization and its callers

def test_prime_factors_and_its_callers_match_sympy():
    for n in range(1, 3000):
        assert prime_factors(n) == sympy.factorint(n), n
        assert euler_phi(n) == sympy.totient(n), n
        assert moebius(n) == sympy.mobius(n), n
        assert is_prime(n) == sympy.isprime(n), n
    assert not is_prime(0) and not is_prime(-7)
    for p in sympy.primerange(3, 3000):
        assert _primitive_root(p) == sympy.primitive_root(p), p


# psi_12 (strong pseudoprime to the 12 prime bases up to 37), psi_9 = psi_11
# and Carmichael numbers, the composites Miller-Rabin is most easily fooled by
HARD_COMPOSITES = (318665857834031151167461, 3825123056546413051, 561, 1105, 1729,
                   2465, 2821, 6601, 8911, 41041, 825265, 321197185, 9746347772161)


def test_is_prime_miller_rabin_matches_sympy():
    rng = random.Random(17)
    cases = [rng.randrange(2 ** rng.randint(2, 80)) for _ in range(3000)]
    cases += [sympy.nextprime(rng.randrange(2 ** 79)) for _ in range(50)]
    cases += [sympy.nextprime(rng.randrange(2 ** 39)) * sympy.nextprime(rng.randrange(2 ** 39))
              for _ in range(50)]
    cases += HARD_COMPOSITES
    for n in cases:
        assert is_prime(n) == sympy.isprime(n), n
    assert not any(is_prime(n) for n in HARD_COMPOSITES)


def test_is_prime_trial_division_branch_matches_sympy(monkeypatch):
    # at or above MR_BOUND the answer comes from trial division
    monkeypatch.setattr(arith, "MR_BOUND", 2)
    rng = random.Random(18)
    cases = list(range(-3, 3000)) + [rng.randrange(10 ** 9) for _ in range(200)]
    cases += [c for c in HARD_COMPOSITES if c < 10 ** 13] + [999999937, 10 ** 9 + 7]
    for n in cases:
        assert is_prime(n) == sympy.isprime(n), n
