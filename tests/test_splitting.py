import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from pweil.cyclo import CycloField, cyclotomic_polynomial, norm
from pweil.splitting import (
    NotPrime,
    RamifiedPrime,
    act_on_prime,
    conj_prime,
    hensel_lift_factor,
    is_prime,
    ord_at,
    split_prime,
)
from oracles import fq_coset


def _phi(n):
    return sum(1 for a in range(1, n) if gcd(a, n) == 1)


def test_split_5_11_matches_bruteforce_roots(split_5_11):
    sp = split_5_11
    assert sp.f == 1 and sp.g == 4
    # oracle: roots of Phi_5 = 1 + t + t^2 + t^3 + t^4 mod 11 by brute force
    roots = [r for r in range(11) if sum(pow(r, i, 11) for i in range(5)) % 11 == 0]
    assert sorted(roots) == [3, 4, 5, 9]
    assert [pr.root_mod_p() for pr in sp.primes] == [3, 4, 5, 9]
    assert len(sp.T) == 4 and len(sp.S) == 2


def test_split_5_2_single_inert_prime(k5):
    # order of 2 mod 5 is 4 (2, 4, 8=3, 16=1)
    sp = split_prime(k5, 2)
    assert sp.f == 4 and sp.g == 1
    assert sp.T == () and sp.S == ()
    assert sp.primes[0].is_conj_stable()


def test_split_5_19_conjugation_fixes_both(k5):
    # <19 mod 5> = <4> = {1, 4} contains -1, so P^c = P for both primes
    sp = split_prime(k5, 19)
    assert sp.f == 2 and sp.g == 2
    assert sp.T == ()


def test_split_validation(k5):
    with pytest.raises(RamifiedPrime):
        split_prime(k5, 5)
    with pytest.raises(NotPrime):
        split_prime(k5, 15)


def test_ord_example_1_plus_2zeta(k5, split_5_11):
    # evaluate 1 + 2r mod 11 at each root: vanishes only at r = 5
    x = 1 + 2 * k5.zeta()
    for pr in split_5_11.primes:
        expected = 1 if pr.root_mod_p() == 5 else 0
        assert ord_at(pr, x) == expected
        assert ord_at(pr, k5.one()) == 0


def test_ord_of_denominators(k5, split_5_11):
    x = 1 + 2 * k5.zeta()
    xi = x.conj() / x
    profile = [ord_at(pr, xi) for pr in split_5_11.primes]
    # conj moves the valuation from the root-5 prime to the root-9 prime
    assert sorted(profile) == [-1, 0, 0, 1]
    r5 = next(i for i, pr in enumerate(split_5_11.primes) if pr.root_mod_p() == 5)
    assert profile[r5] == -1


def test_sum_f_ord_equals_vp_of_norm(k5, split_5_11):
    rng = random.Random(17)
    for _ in range(10):
        x = k5.elt([rng.randint(-9, 9) for _ in range(4)])
        if x.is_zero():
            continue
        nm = norm(x)
        vp = 0
        while nm.numerator % 11 == 0:
            nm /= 11
            vp += 1
        assert sum(split_5_11.f * ord_at(pr, x) for pr in split_5_11.primes) == vp


def test_ord_is_a_valuation(k5, split_5_11):
    rng = random.Random(23)
    pr = split_5_11.primes[0]
    for _ in range(10):
        x = k5.elt([rng.randint(-9, 9) for _ in range(4)])
        y = k5.elt([rng.randint(-9, 9) for _ in range(4)])
        if x.is_zero() or y.is_zero():
            continue
        assert ord_at(pr, x * y) == ord_at(pr, x) + ord_at(pr, y)
        if not (x + y).is_zero():
            assert ord_at(pr, x + y) >= min(ord_at(pr, x), ord_at(pr, y))


def test_galois_equivariance(k5, split_5_11):
    rng = random.Random(29)
    for _ in range(4):
        x = k5.elt([rng.randint(-6, 6) for _ in range(4)])
        if x.is_zero():
            continue
        for a in k5.units:
            aut = k5.aut(a)
            for pr in split_5_11.primes:
                assert ord_at(act_on_prime(aut, pr), x.apply(aut)) == ord_at(pr, x)


def test_action_examples(k5, split_5_11):
    sp = split_5_11
    pr5 = next(pr for pr in sp.primes if pr.root_mod_p() == 5)
    # conjugation: roots r and r' with r r' = 1 mod 11 pair up (5 * 9 = 45 = 1)
    assert conj_prime(pr5).root_mod_p() == 9
    # identity acts trivially
    assert act_on_prime(k5.aut(1), pr5) is pr5
    # the full unit group acts transitively
    orbit = {act_on_prime(k5.aut(a), pr5).index for a in k5.units}
    assert orbit == set(range(sp.g))
    # coset consistency: sigma_a multiplies the coset by a
    for a in k5.units:
        img = act_on_prime(k5.aut(a), pr5)
        assert img.coset == frozenset((a * b) % 5 for b in pr5.coset)


def test_fg_equals_phi_on_grid():
    for n in (5, 7, 8, 11, 12, 13, 15, 16, 20):
        field = CycloField(n)
        for p in range(2, 100):
            if not is_prime(p) or n % p == 0:
                continue
            sp = split_prime(field, p, K=20)
            assert sp.f * sp.g == field.degree
            assert len(sp.T) in (0, sp.g)
            assert 2 * len(sp.S) == len(sp.T)


def test_membership_characterization(k5, split_5_11):
    # x in E_p iff x x^c = 1 and the numerator ideal's norm is +- a power
    # of p; cross-checked against the definitional membership test
    from pweil.weilgroup import is_weil_unit

    z = k5.zeta()
    x = 1 + 2 * z
    samples = {
        k5.one(): True,
        z: True,
        -(z ** 3): True,
        x: False,                  # archimedean absolute values differ from 1
        x.conj() / x: True,
        (x.conj() / x) ** 3 * z: True,
        k5.elt([1, 1, 0, 0]): False,
        k5.from_rational(Fraction(1, 11)): False,  # x x^c = 1/121 != 1
    }
    for elt, expected in samples.items():
        assert is_weil_unit(elt, 11) is expected
        if expected:
            # both characterizations agree: norm of numerator is a p-power
            den = elt.den
            num = elt * den
            nm = abs(norm(num))
            q = Fraction(nm)
            while q.numerator % 11 == 0:
                q /= 11
            assert q == 1 or nm == 1


def test_split_json(split_5_11):
    blob = split_5_11.to_jsonable()
    assert blob["T"] == ["P0", "P1", "P2", "P3"]
    assert blob["S"] == ["P0", "P2"]
    assert [pr["h_mod_p"] for pr in blob["primes"]] == [[8, 1], [7, 1], [6, 1], [2, 1]]


def test_deeper_precision_is_consistent(k5):
    sp20 = split_prime(k5, 11, K=20)
    sp80 = split_prime(k5, 11, K=80)
    x = (1 + 2 * k5.zeta()) ** 7
    for a, b in zip(sp20.primes, sp80.primes):
        assert a.root_mod_p() == b.root_mod_p()
        assert ord_at(a, x) == ord_at(b, x)


@pytest.mark.parametrize("n, p", [(13, 79), (8, 3), (13, 3)])
def test_ring_at_matches_a_fresh_lift_in_any_order(n, p):
    # each ring is extended from the nearest lower lift kept (from h mod p
    # below K); whatever the order of requests, its modulus is the factor a
    # lift from scratch gives, and a repeated request returns the same ring
    K = 10
    field = CycloField(n)
    phi = cyclotomic_polynomial(n)
    precs = (K // 2, K, K + 1, K + 7, 2 * K)
    fresh = {}
    for order in itertools.permutations(precs):
        split = split_prime(field, p, K)
        for pr in (split.primes[0], split.primes[-1]):
            for prec in order:
                ring = pr.ring_at(prec)
                if (pr.index, prec) not in fresh:
                    fresh[pr.index, prec] = hensel_lift_factor(phi, pr.h_bar, p, prec)
                assert (ring.p, ring.prec, ring.f) == (p, prec, pr.f)
                assert ring.modulus == fresh[pr.index, prec]
                assert pr.ring_at(prec) is ring


FULL_RANGE_N = (3, 4, 5, 7, 8, 9, 11, 12, 13, 15, 16, 17, 19, 20)


@pytest.mark.parametrize("n", FULL_RANGE_N)
def test_transported_factors_are_the_hensel_lifts(n):
    # only h0 is Hensel-lifted; every other factor is a product of (X - t^b)
    # over a Frobenius orbit in GR(p^K, f) on h0.  By uniqueness of Hensel
    # lifts it is the lift of its own h_bar, and its coset is the one the
    # root test over F_{p^f} gives; a ring above K extends it like a fresh lift
    field = CycloField(n)
    phi = cyclotomic_polynomial(n)
    for p in range(2, 200):
        if not is_prime(p) or n % p == 0:
            continue
        for K in (1, 2, 7, 50):
            split = split_prime(field, p, K)
            for pr in split.primes:
                assert pr.ring_at(K).modulus == hensel_lift_factor(phi, pr.h_bar, p, K)
                if K == 7:
                    assert pr.coset == fq_coset(pr)
                    assert pr.ring_at(K + 5).modulus == hensel_lift_factor(phi, pr.h_bar, p, K + 5)
