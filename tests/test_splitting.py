import inspect
import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from pweil import splitting, weilgroup
from pweil.arith import ConfigError, GaloisRing
from pweil.cyclo import CycloField, cyclotomic_polynomial, norm
from pweil.splitting import (
    conj_prime,
    is_prime,
    ord_at,
    split_prime,
)
from oracles import equal_degree_factor, fq_coset, hensel_lift_factor, resultant_mod


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


def test_split_carries_no_padic_precision(k5):
    # the split is exact: only the regulator's logarithms take a precision K
    assert list(inspect.signature(split_prime).parameters) == ["field", "p"]
    sp = split_prime(k5, 11)
    assert not hasattr(sp, "K") and "K" not in sp.to_jsonable()


def test_split_validation(k5):
    with pytest.raises(ConfigError, match="ramified"):
        split_prime(k5, 5)
    with pytest.raises(ConfigError, match="not prime"):
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
            for pr in split_5_11.primes:
                moved = split_5_11.primes[split_5_11.act_index(a, pr.index)]
                assert ord_at(moved, x.apply(a)) == ord_at(pr, x)


def test_action_examples(k5, split_5_11):
    sp = split_5_11
    pr5 = next(pr for pr in sp.primes if pr.root_mod_p() == 5)
    # conjugation: roots r and r' with r r' = 1 mod 11 pair up (5 * 9 = 45 = 1)
    assert conj_prime(pr5).root_mod_p() == 9
    # identity acts trivially
    assert sp.act_index(1, pr5.index) == pr5.index
    # the full unit group acts transitively
    orbit = {sp.act_index(a, pr5.index) for a in k5.units}
    assert orbit == set(range(sp.g))
    # coset consistency: sigma_a multiplies the coset by a
    for a in k5.units:
        img = sp.primes[sp.act_index(a, pr5.index)]
        assert img.coset == frozenset((a * b) % 5 for b in pr5.coset)


def test_transporters_are_coset_minima(grid):
    # P0 (label 0, and S[0] when S is nonempty) has 1 in its coset, so the
    # least a with sigma_a(P0) = P is the least element of the coset of P,
    # the transporter that the split keeps; act_index is coset arithmetic
    for field, sp, _ in grid[0].values():
        n = field.n
        for a in field.units:
            for pr in sp.primes:
                target = frozenset(a * b % n for b in pr.coset)
                assert sp.primes[sp.act_index(a, pr.index)].coset == target
        assert sp.transporter[0] == 1 and 1 in sp.primes[0].coset
        assert not sp.S or sp.S[0] == 0
        for idx in range(sp.g):
            searched = next(a for a in field.units if sp.act_index(a, 0) == idx)
            assert sp.transporter[idx] == min(sp.primes[idx].coset) == searched


def test_fg_equals_phi_on_grid():
    for n in (5, 7, 8, 11, 12, 13, 15, 16, 20):
        field = CycloField(n)
        for p in range(2, 100):
            if not is_prime(p) or n % p == 0:
                continue
            sp = split_prime(field, p)
            assert sp.f * sp.g == field.degree
            assert len(sp.T) in (0, sp.g)
            assert 2 * len(sp.S) == len(sp.T)


@pytest.mark.parametrize("n, p, f", [(5, 11, 1), (13, 3, 3)])
def test_split_check_rejects_a_wrong_orbit_factor(n, p, f, monkeypatch):
    # one factor from a Frobenius orbit with its constant term moved by 1 mod p
    # no longer divides out of Phi_n mod p
    field, calls = CycloField(n), []
    sp = split_prime(field, p)
    assert (sp.f, sp.g) == (f, 4)
    poly_from_roots = splitting._poly_from_roots

    def shifted(ring, roots):
        h = poly_from_roots(ring, roots)
        calls.append(h)
        return ((h[0] + 1) % p,) + h[1:] if len(calls) == 1 else h

    monkeypatch.setattr(splitting, "_poly_from_roots", shifted)
    with pytest.raises(ArithmeticError, match="orbit factor"):
        split_prime(field, p)


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


def test_deeper_precision_is_consistent(k5, monkeypatch):
    # ord_at started at 20 and at 80 digits, each on its own split
    sp20, sp80 = split_prime(k5, 11), split_prime(k5, 11)
    x = (1 + 2 * k5.zeta()) ** 7
    for a, b in zip(sp20.primes, sp80.primes):
        assert a.root_mod_p() == b.root_mod_p()
        monkeypatch.setattr(splitting, "ORD_START_PRECISION", 20)
        ord20 = ord_at(a, x)
        monkeypatch.setattr(splitting, "ORD_START_PRECISION", 80)
        assert ord20 == ord_at(b, x)


@pytest.mark.parametrize("n, p", [(5, 11), (13, 3)])
def test_ord_at_escalates_past_the_start_precision_up_to_the_cap(n, p, monkeypatch):
    # started at 3 digits, the image of h_P(zeta)^7, of valuation >= 7 = 2 * 3 + 1
    # at P, vanishes mod p^3 and mod p^6, so ord_at doubles the precision at
    # least twice; it agrees with a start at 50 digits on another split at
    # every prime, succeeds with the cap at the precision it needs and
    # raises with the cap one below
    field = CycloField(n)
    low, high = split_prime(field, p), split_prime(field, p)
    monkeypatch.setattr(splitting, "ORD_START_PRECISION", 3)
    for pr in low.primes:
        x = field.elt(list(pr.h_bar)) ** 7
        assert pr.image(x.num, 6).valuation() is None
        with monkeypatch.context() as mp:
            mp.setattr(splitting, "ORD_START_PRECISION", 50)
            want = [ord_at(q, x) for q in high.primes]
        assert [ord_at(q, x) for q in low.primes] == want
        needed = 3
        while needed <= want[pr.index]:
            needed *= 2
        assert needed >= 12
        with monkeypatch.context() as mp:
            mp.setattr(splitting, "ORD_PRECISION_CAP", needed)
            assert ord_at(pr, x) == want[pr.index]
            mp.setattr(splitting, "ORD_PRECISION_CAP", needed - 1)
            with pytest.raises(ArithmeticError):
                ord_at(pr, x)


def test_ord_at_from_8_digits_equals_ord_at_from_K_on_the_grid(grid, monkeypatch):
    # ord_at starts at 8 digits: on every x_P, every xi_P and every element
    # that verify_weil_basis values (its samples among them), at every prime
    # of the 128 grid cells with T nonempty, it gives the valuation that a
    # start at 50 digits gives
    points, _ = grid
    seen = []

    def recording(prime, x):
        seen.append(x)
        return ord_at(prime, x)

    monkeypatch.setattr(weilgroup, "ord_at", recording)
    cells = 0
    for _, split, basis in points.values():
        if basis is None:
            continue
        cells += 1
        start = len(seen)
        assert weilgroup.verify_weil_basis(basis)["ok"]
        elts = seen[start:] + list(basis.x.values()) + list(basis.xi.values())
        from_8 = [[ord_at(pr, x) for pr in split.primes] for x in elts]
        with monkeypatch.context() as mp:
            mp.setattr(splitting, "ORD_START_PRECISION", 50)
            assert [[ord_at(pr, x) for pr in split.primes] for x in elts] == from_8
    assert cells == 128


@pytest.mark.parametrize("n, p", [(5, 11), (13, 3), (8, 5)])
def test_ord_at_escalates_past_8_digits(n, p, monkeypatch):
    # h_P(zeta)^9 has valuation >= 9 at P: its image vanishes mod p^8, so
    # ord_at lifts w to p^16 and gives the valuation of a start at 50 digits
    field = CycloField(n)
    for index in range(split_prime(field, p).g):
        split = split_prime(field, p)  # no ring kept yet
        prime = split.primes[index]
        x = field.elt(list(prime.h_bar)) ** 9
        assert prime.image(x.num, 8).valuation() is None
        v = ord_at(prime, x)
        assert 9 <= v < 16 and sorted(split._rings) == [8, 16]
        with monkeypatch.context() as mp:
            mp.setattr(splitting, "ORD_START_PRECISION", 50)
            assert ord_at(prime, x) == v


@pytest.mark.parametrize("n, p", [(13, 79), (8, 3), (13, 3)])
def test_ring_at_matches_a_fresh_lift_in_any_order(n, p):
    # each precision's root w of Phi_n is Newton-lifted from the nearest
    # lower one kept (else from t); whatever the order of requests, the
    # ring is GR(p^prec, f) on h_bar of P0, w is a root of Phi_n mod p^prec
    # congruent to t, equal to a lift from scratch, the powers are those of
    # w, and a repeated request returns the same object
    K = 10
    field = CycloField(n)
    phi = cyclotomic_polynomial(n)
    precs = (K // 2, K, K + 1, K + 7, 2 * K)
    fresh = {prec: split_prime(field, p).ring_at(prec)[1][1] for prec in precs}
    for order in itertools.permutations(precs):
        split = split_prime(field, p)
        h0 = split.primes[0].h_bar
        t = GaloisRing(p, 1, split.f, h0).elt([0, 1])
        for prec in order:
            lift = split.ring_at(prec)
            ring, w_pow = lift
            w = w_pow[1]
            assert (ring.p, ring.prec, ring.f, ring.modulus) == (p, prec, split.f, h0)
            assert tuple(c % p for c in w.coeffs) == t.coeffs
            phi_w = sum((ring.from_int(c) * w ** i for i, c in enumerate(phi)), ring.from_int(0))
            assert not any(phi_w.coeffs)
            assert w == fresh[prec]
            assert all(w_pow[k] == w ** k for k in range(n))
            assert split.ring_at(prec) is lift


FULL_RANGE_N = (3, 4, 5, 7, 8, 9, 11, 12, 13, 15, 16, 17, 19, 20)


@pytest.mark.parametrize("n", FULL_RANGE_N)
def test_transported_factors_are_the_hensel_lifts(n, monkeypatch):
    # one factor of Phi_n mod p is found and the others come from Frobenius
    # orbits in F_p[t]/(h): they are the complete factorization, in the same
    # labelling, and each coset is the one the root test over F_{p^f} gives.
    # A prime is the embedding zeta -> w^e into GR on h_bar of P0; with
    # ord_at started at 2 digits, it equals the valuation in GR(p^7, f) on
    # the prime's own factor Hensel-lifted to p^7, and the product of the f
    # Frobenius images, those of sigma_{p^i}(x), is the resultant of that
    # factor and x.num mod p^7, at every prime, for y and for the
    # h_Q(zeta)^4 y, whose valuation >= 4 at Q makes ord_at double the
    # precision through 4 and 8
    field = CycloField(n)
    phi = cyclotomic_polynomial(n)
    K = 7
    monkeypatch.setattr(splitting, "ORD_START_PRECISION", 2)
    for p in range(2, 200):
        if not is_prime(p) or n % p == 0:
            continue
        split = split_prime(field, p)
        rng = random.Random(1000003 * n + p)
        full = equal_degree_factor([c % p for c in phi], split.f, p, rng)
        full.sort(key=(lambda h: (-h[0]) % p) if split.f == 1 else None)
        assert [list(pr.h_bar) for pr in split.primes] == full
        rng = random.Random(n * p)
        y = field.elt([rng.randint(-3, 3) for _ in range(field.degree - 1)] + [1])
        # h_Q(zeta) is 0 when Phi_n mod p is Phi_n itself
        elts = [y] + [x for x in (field.elt(list(q.h_bar)) ** 4 * y for q in split.primes)
                      if not x.is_zero()]
        norm_ring = split.ring_at(K)[0]
        for pr in split.primes:
            assert pr.coset == fq_coset(pr)
            h = hensel_lift_factor(phi, pr.h_bar, p, K)
            oracle = GaloisRing(p, K, pr.f, h)
            for x in elts:
                v = oracle.elt(x.num).valuation()
                assert ord_at(pr, x) == v if v is not None else ord_at(pr, x) >= K
                product = norm_ring.one()
                for i in range(split.f):
                    product *= pr.image(x.apply(p ** i % n).num, K)
                assert product == norm_ring.from_int(resultant_mod(h, x.num, p ** K))
