import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pweil.arith import ConfigError, split_p
from pweil.cyclo import CycloElt, CycloField, embed, is_root_of_unity, norm
from pweil import lattice, weilgroup
from pweil.splitting import is_prime, ord_at, split_prime
from pweil.weilgroup import (
    DivisorVec,
    MinusPartViolation,
    NotAWeilUnit,
    alpha_p_map,
    build_weil_basis,
    find_generator,
    ideal_basis,
    is_weil_unit,
    jacobi_weil_number,
    minus_basis,
    pi_m_map,
    trace_gram,
    verify_weil_basis,
    _generator_key,
    _iroot_ceil,
)
from pweil.lattice import row_hnf, short_vectors
from oracles import (bareiss_det, fraction_elt, fraction_mul, fraction_pow, inverse_pi_m_map,
                     iterated_ideal_basis, modulus_squared, per_prime_generator,
                     powering_is_root_of_unity)
from test_cyclo import norm_by_conjugates


# ---------------------------------------------------------------------------
# membership

def test_is_weil_unit_examples(k5):
    z = k5.zeta()
    assert is_weil_unit(z, 11) is True
    x = 1 + 2 * z
    assert is_weil_unit(x.conj() / x, 11) is True
    # 1 + 2 zeta has |sigma(x)| != 1: embedding oracle gives |x| ~ 2.497
    assert is_weil_unit(x, 11) is False
    m = modulus_squared(embed(x, 1, 128))
    assert not m.contains(1)
    # |1 + 2 e^(2 pi i/5)|^2 = 5 + 4 cos(2 pi/5) ~ 6.236067977499789696
    assert abs(m.midpoint - Fraction("6.23606797749978969640917366873")) < Fraction(1, 10 ** 28)


def test_is_weil_unit_rejects_zero(k5):
    with pytest.raises(ZeroDivisionError):
        is_weil_unit(k5.elt([]), 11)


def _is_weil_unit_checking_inverse(x, p):
    """The membership test with its former redundant check of 1/x."""
    if x * x.conj() != x.field.one():
        return False
    if split_p(x.den, p)[1] != 1:
        return False
    return split_p(x.inverse().den, p)[1] == 1


@pytest.mark.parametrize("which", ["5_11", "8_5"])
def test_is_weil_unit_matches_the_inverse_check(which, request):
    # units of E_p, quotients y^c / y (x x^c = 1, with denominators away from
    # p as a rule), the same with y divisible by a generator x_P, and plain
    # products (x x^c != 1)
    basis = request.getfixturevalue("basis_" + which)
    field, p = basis.split.field, basis.split.p
    rng = random.Random(83)
    xis = list(basis.xi.values())
    gens = list(basis.x.values())

    def small():
        y = field.elt([])
        while y.is_zero():
            y = field.elt([rng.randint(-3, 3) for _ in range(field.degree)])
        return y

    verdicts = {True: 0, False: 0}
    for trial in range(60):
        x = field.zeta() ** rng.randrange(field.n)
        for xi in rng.choices(xis, k=rng.randint(0, 3)):
            x = x * (xi if rng.random() < 0.5 else xi.conj())  # xi^c = 1/xi
        kind = trial % 4
        if kind == 1:
            y = small()
            x = x * y.conj() / y
        elif kind == 2:
            y = rng.choice(gens) * small()
            x = x * y.conj() / y
        elif kind == 3:
            x = x * small()
        verdict = is_weil_unit(x, p)
        assert verdict == _is_weil_unit_checking_inverse(x, p)
        verdicts[verdict] += 1
    assert verdicts[True] >= 15 and verdicts[False] >= 15


# ---------------------------------------------------------------------------
# ideal lattices and generators

def test_ideal_basis_has_index_norm(k5, split_5_11):
    # [Z[zeta] : P^power] = N(P)^power: at (5, 11) with f = 1, and at the
    # f = 3 prime of (13, 3), N(P) = 27
    pr = split_5_11.primes[0]
    for power in (1, 2, 3):
        assert abs(bareiss_det(ideal_basis(pr, power))) == 11 ** power
    pr = split_prime(CycloField(13), 3).primes[0]
    assert pr.f == 3
    for power in range(5):
        assert abs(bareiss_det(ideal_basis(pr, power))) == 27 ** power


def test_ideal_basis_matches_the_iterated_oracle():
    # the triangular basis from the lifted root spans the lattice that k - 1
    # rounds of products give: one (unique) HNF for the first three primes of
    # twelve cells, k = 0..4, up to the completely split (23, 47) of degree 22
    cells = [(5, 11), (5, 19), (7, 29), (8, 5), (8, 17), (12, 13), (13, 79), (11, 67),
             (15, 31), (16, 17), (20, 41), (23, 47)]
    pairs = 0
    for n, p in cells:
        for pr in split_prime(CycloField(n), p).primes[:3]:
            for k in range(5):
                assert row_hnf(ideal_basis(pr, k))[0] == iterated_ideal_basis(pr, k), \
                    (n, p, pr.label, k)
                pairs += 1
    assert pairs == 170


def test_ideal_basis_builds_no_power_product_or_hnf(monkeypatch):
    # the basis is read off the lifted root: no element of Q(zeta_n) is
    # raised to a power or multiplied, and no HNF runs
    def refuse(*args):
        raise AssertionError("ideal_basis built a power, a product or an HNF")

    splits = [split_prime(CycloField(n), p) for n, p in ((13, 79), (13, 3), (16, 17))]
    monkeypatch.setattr(CycloElt, "__pow__", refuse)
    monkeypatch.setattr(CycloElt, "__mul__", refuse)
    monkeypatch.setattr(lattice, "_hnf_with_transform", refuse)
    for split in splits:
        for pr in split.primes:
            for k in range(4):
                assert len(ideal_basis(pr, k)) == split.field.degree


def test_find_generator_power_zero(k5, split_5_11):
    assert find_generator(split_5_11.primes[0], 0) == k5.one()


def test_find_generator_recovers_canonical_element(k5, split_5_11):
    # the prime with root 5 is (1 + 2 zeta): 1 + 2*5 = 11 = 0 mod 11
    pr5 = next(pr for pr in split_5_11.primes if pr.root_mod_p() == 5)
    g = find_generator(pr5, 1)
    assert g == 1 + 2 * k5.zeta()
    assert norm(g) == 11
    assert ord_at(pr5, g) == 1
    for pr in split_5_11.primes:
        if pr is not pr5:
            assert ord_at(pr, g) == 0


def test_generator_ambiguity_is_a_unit(k5, split_5_11):
    # any two generators of the same ideal differ by an element with zero
    # valuation everywhere: norm +-1 and trivial ord profile
    pr5 = next(pr for pr in split_5_11.primes if pr.root_mod_p() == 5)
    g = find_generator(pr5, 1)
    alt = g * (-(k5.zeta() ** 2))  # an associate
    ratio = alt / g
    assert abs(norm(ratio)) == 1
    for pr in split_5_11.primes:
        assert ord_at(pr, ratio) == 0
    assert ratio.den == 1


def _generator_by_valuations(prime, power, max_doublings=6):
    """Oracle: the generator search filtered by the exact product-of-conjugates
    norm and the full ord_at valuation profile.  On every enumerated vector
    it also checks that the norm test alone gives the same verdict."""
    field = prime.field
    n_target = prime.p ** (prime.f * power)
    basis = ideal_basis(prime, power)
    gram = trace_gram(field)
    floor = field.degree * _iroot_ceil(n_target * n_target, field.degree)
    bound = floor + (floor + 1) // 2
    for _ in range(max_doublings + 1):
        candidates = []
        for vec, _ in short_vectors(basis, bound, gram=gram):
            elt = field.elt(vec)
            nm = norm_by_conjugates(elt)
            assert norm(elt) == nm
            ok = abs(nm) == n_target and ord_at(prime, elt) == power and not any(
                ord_at(pr, elt) for pr in prime.split.primes if pr is not prime)
            assert ok == (abs(nm) == n_target)
            if ok:
                candidates.append(elt)
        if candidates:
            return min(candidates, key=lambda x: _generator_key(x.num))
        bound *= 2
    return None


@pytest.mark.parametrize("n, p, power", [
    (13, 79, 1), (20, 41, 1), (11, 67, 1), (15, 31, 1), (16, 17, 1), (12, 13, 1), (5, 11, 2),
])
def test_find_generator_matches_valuation_profile_search(n, p, power):
    split = split_prime(CycloField(n), p)
    prime = split.primes[split.S[0]]
    g = find_generator(prime, power)
    assert g is not None
    assert g == _generator_by_valuations(prime, power)


def test_basis_is_the_galois_orbit_of_one_generator(split_5_11):
    # all 128 acceptance-grid cells with T nonempty, and (5, 11) at power 2:
    # x_{P0} is what a search at P0 picks, and for P in S with a = min coset
    # of P, x_P = sigma_a(x_{P0}), x_{P^c} = x_P^c and
    # xi_P = sigma_a(xi_{P0}) = x_{P^c} / x_P exactly
    cells = 0
    for n in (5, 7, 8, 11, 12, 13, 15, 16, 20):
        field = CycloField(n)
        for p in range(2, 100):
            if not is_prime(p) or n % p == 0:
                continue
            split = split_prime(field, p)
            if not split.T:
                continue
            basis = build_weil_basis(split)
            _check_orbit(basis)
            assert basis.M == split.f * basis.h
            cells += 1
    assert cells == 128
    p0 = split_5_11.primes[split_5_11.S[0]]
    x0 = find_generator(p0, 2)
    assert x0 == per_prime_generator(p0, 2)
    for idx in split_5_11.S:
        a = min(split_5_11.primes[idx].coset)
        assert split_5_11.primes[idx].index == split_5_11.act_index(a, p0.index)
        xp = x0.apply(a)
        assert [ord_at(pr, xp) for pr in split_5_11.primes] == [
            2 if pr.index == idx else 0 for pr in split_5_11.primes]


def _check_orbit(basis):
    split, field = basis.split, basis.split.field
    p0 = split.S[0]
    assert basis.x[p0] == per_prime_generator(split.primes[p0], basis.h)
    for idx in split.S:
        a = min(split.primes[idx].coset)
        assert split.act_index(a, p0) == idx
        cidx = split.conj_index(idx)
        assert basis.x[idx] == basis.x[p0].apply(a)
        assert basis.x[cidx] == basis.x[idx].conj()
        assert basis.xi[idx] == basis.xi[p0].apply(a)
        assert basis.xi[idx] == basis.x[cidx] / basis.x[idx]
    assert sorted(basis.x) == sorted(split.T)


def test_iroot_ceil_is_the_least_root():
    # exact past the float range too: a float root overflows above 2^1024, as
    # at the search floor of analyze --n 23 --p 1000000000000091 (p^22, k = 22)
    cases = [(n, k) for k in range(1, 8) for n in range(2, 3000)]
    cases += [(10 ** 320, 10), (1000000000000091 ** 22, 22)]
    for n, k in cases:
        r = _iroot_ceil(n, k)
        assert r ** k >= n > (r - 1) ** k, (n, k)
    assert [_iroot_ceil(n, 3) for n in (0, 1)] == [0, 1]


def test_trace_gram_positive_definite(k5):
    g = trace_gram(k5)
    # leading principal minors positive
    for k in range(1, 5):
        assert bareiss_det([row[:k] for row in g[:k]]) > 0


# ---------------------------------------------------------------------------
# basis construction

def test_build_basis_5_11(basis_5_11):
    assert basis_5_11.M == 1
    assert basis_5_11.h == 1
    assert basis_5_11.rank == 2
    split = basis_5_11.split
    # x at the root-5 prime is exactly sigma_2(x_{P0}) = sigma_2(2 + zeta^2) =
    # 2 + zeta^4, the canonical generator 1 + 2 zeta there up to zeta
    r5 = next(i for i, pr in enumerate(split.primes) if pr.root_mod_p() == 5)
    assert basis_5_11.x[split.S[0]] == 2 + split.field.zeta(2)
    assert basis_5_11.x[r5] == 2 + split.field.zeta(4)
    assert basis_5_11.x[r5] * split.field.zeta() == 1 + 2 * split.field.zeta()
    # x at conjugate primes is the exact conjugate
    for idx in split.S:
        cidx = split.conj_index(idx)
        assert basis_5_11.x[cidx] == basis_5_11.x[idx].conj()


def test_build_basis_empty_T(k5):
    sp = split_prime(k5, 19)
    basis = build_weil_basis(sp)
    assert basis.rank == 0 and basis.x == {} and basis.xi == {}


def test_build_basis_8_5(basis_8_5):
    # f = order of 5 mod 8 = 2; cosets {1,5} and {3,7}; conjugation swaps them
    split = basis_8_5.split
    assert split.f == 2
    assert [sorted(pr.coset) for pr in split.primes] == [[1, 5], [3, 7]]
    assert len(split.T) == 2 and len(split.S) == 1
    assert basis_8_5.rank == 1
    assert basis_8_5.M == 2  # f * h with h = 1


@pytest.mark.parametrize("n, p", [(5, 11), (8, 5), (13, 3)])
def test_a_generator_of_the_conjugate_prime_breaks_the_valuation_profile(n, p, monkeypatch):
    # each generator is checked by its norm and one ord_at at its own prime
    # (integral, |N(x)| = p^M and ord_P(x) = M/f leave ord_Q(x) = 0 at every
    # other Q); x_{P0}^c has the same norm but generates P0^c, and must fail
    calls = []

    def counting(prime, x):
        calls.append(prime.index)
        return ord_at(prime, x)

    monkeypatch.setattr(weilgroup, "ord_at", counting)
    split = split_prime(CycloField(n), p)
    build_weil_basis(split)
    assert sorted(calls) == sorted(split.T)
    real = weilgroup.find_generator
    monkeypatch.setattr(weilgroup, "find_generator",
                        lambda prime, power: real(prime, power).conj())
    with pytest.raises(ArithmeticError, match="generator valuation profile broken"):
        build_weil_basis(split)


def test_an_exhausted_search_moves_on_to_the_next_h(monkeypatch):
    # a node budget used up at h = 1 does not end the search: h = 2 gives
    # the basis, with M = 2 on (5,11); only when every h fails is it raised
    real = weilgroup.find_generator
    tried = []

    def exhausted_at_1(prime, power):
        tried.append(power)
        if power == 1:
            raise weilgroup.EnumerationBudgetExceeded("enumeration exceeded 0 nodes")
        return real(prime, power)

    monkeypatch.setattr(weilgroup, "find_generator", exhausted_at_1)
    basis = build_weil_basis(split_prime(CycloField(5), 11))
    assert tried == [1, 2]
    assert (basis.h, basis.M, basis.rank) == (2, 2, 2)
    assert verify_weil_basis(basis)["ok"]
    monkeypatch.setattr(weilgroup, "H_CAP", 1)
    with pytest.raises(weilgroup.EnumerationBudgetExceeded, match="exceeded 0 nodes"):
        build_weil_basis(split_prime(CycloField(5), 11))


def test_trace_gram_is_built_once_per_conductor():
    assert trace_gram(CycloField(7)) is trace_gram(CycloField(7))
    assert trace_gram(CycloField(7)) != trace_gram(CycloField(9))


def test_xi_properties(basis_5_11):
    split = basis_5_11.split
    one = split.field.one()
    for idx in split.S:
        xi = basis_5_11.xi[idx]
        assert xi * xi.conj() == one
        assert is_weil_unit(xi, split.p)
        assert is_root_of_unity(xi) is None


# ---------------------------------------------------------------------------
# alpha and pi

def test_alpha_examples(k5, split_5_11, basis_5_11):
    z = k5.zeta()
    assert not any(alpha_p_map(z, split_5_11).coeffs)
    r5 = next(i for i, pr in enumerate(split_5_11.primes) if pr.root_mod_p() == 5)
    vec = alpha_p_map(basis_5_11.xi[r5], split_5_11)
    expected = [0, 0, 0, 0]
    expected[r5] = basis_5_11.M
    expected[split_5_11.conj_index(r5)] = -basis_5_11.M
    assert list(vec.coeffs) == expected
    assert vec.is_minus_part()


def test_alpha_rejects_non_members(k5, split_5_11):
    with pytest.raises(NotAWeilUnit):
        alpha_p_map(1 + 2 * k5.zeta(), split_5_11)


def test_alpha_minus_part_on_random_products(split_5_11, basis_5_11):
    rng = random.Random(61)
    field = split_5_11.field
    for _ in range(20):
        x = field.zeta(rng.randrange(5))
        for idx in split_5_11.S:
            x = x * basis_5_11.xi[idx] ** rng.randint(-3, 3)
        vec = alpha_p_map(x, split_5_11)
        assert vec.is_minus_part()


def test_pi_examples(split_5_11, basis_5_11):
    field = split_5_11.field
    zero = DivisorVec(split_5_11, (0,) * split_5_11.g)
    assert pi_m_map(zero, basis_5_11) == field.one()
    # P^c - P maps to x_{P^c} x_P^{-1} = xi_P
    for idx, vec in zip(split_5_11.S, minus_basis(split_5_11)):
        assert pi_m_map(vec, basis_5_11) == basis_5_11.xi[idx]


def test_pi_rejects_non_minus_part(split_5_11, basis_5_11):
    bad = DivisorVec(split_5_11, (1, 0, 0, 0))
    with pytest.raises(MinusPartViolation):
        pi_m_map(bad, basis_5_11)


def test_alpha_pi_is_minus_M(split_5_11, basis_5_11):
    for vec in minus_basis(split_5_11):
        img = alpha_p_map(pi_m_map(vec, basis_5_11), split_5_11)
        assert img.coeffs == tuple(-basis_5_11.M * c for c in vec.coeffs)


def test_pi_alpha_is_power_up_to_torsion(k5, split_5_11, basis_5_11):
    # x^M pi(alpha(x)) is exactly a root of unity; with x = zeta xi the
    # torsion factors through
    r5 = next(i for i, pr in enumerate(split_5_11.primes) if pr.root_mod_p() == 5)
    x = k5.zeta() * basis_5_11.xi[r5]
    y = (x ** basis_5_11.M) * pi_m_map(alpha_p_map(x, split_5_11), basis_5_11)
    assert is_root_of_unity(y) is not None


def test_kernel_is_torsion(k5, split_5_11):
    # alpha(x) = 0 together with membership forces x to be a root of unity
    z = k5.zeta()
    for x in (z, -z ** 2, k5.one(), -k5.one()):
        assert is_weil_unit(x, 11)
        assert not any(alpha_p_map(x, split_5_11).coeffs)
        assert is_root_of_unity(x) is not None


def test_verify_reports_pass(basis_5_11, basis_8_5):
    assert verify_weil_basis(basis_5_11)["ok"]
    assert verify_weil_basis(basis_8_5)["ok"]


def test_pi_m_map_matches_the_inverse_oracle_over_the_grid(grid):
    # the product of the xi_P^(nu_{P^c}) over S is the product of the
    # x_P^(nu_P) over T, on random minus-part divisors of every grid cell
    points, _ = grid
    rng = random.Random(12)
    cells = 0
    for (n, p), (field, sp, basis) in sorted(points.items()):
        if basis is None:
            continue
        cells += 1
        for _ in range(2):
            coeffs = [0] * sp.g
            for vec in minus_basis(sp):
                e = rng.randint(-3, 3)
                coeffs = [c + e * v for c, v in zip(coeffs, vec.coeffs)]
            nu = DivisorVec(sp, tuple(coeffs))
            assert pi_m_map(nu, basis) == inverse_pi_m_map(nu, basis), (n, p, nu.coeffs)
    assert cells == 128


@pytest.mark.parametrize("n, p", [(5, 11), (13, 79), (11, 67), (15, 31), (20, 41)])
def test_root_of_unity_lookup_on_products_of_xi(n, p):
    # xi_P and xi_P xi_Q are not torsion; xi_P / sigma_a(xi_P0) (the
    # gross_matrix check) and zeta^k xi_P xi_P^c are
    basis = _cell_basis(n, p)
    split, field = basis.split, basis.split.field
    xi0 = basis.xi[split.S[0]]
    elements = []
    for idx in split.S:
        a = min(split.primes[idx].coset)
        elements += [basis.xi[idx], basis.xi[idx] * basis.xi[split.S[-1]],
                     basis.xi[idx] * xi0.apply(a).conj(),
                     -field.zeta(idx) * basis.xi[idx] * basis.xi[idx].conj()]
    orders = [is_root_of_unity(x) for x in elements]
    assert orders == [powering_is_root_of_unity(x) for x in elements]
    assert orders[0::4] == [None] * len(split.S)
    assert None not in orders[2::4] + orders[3::4]


def test_verify_checks_the_generators(basis_5_11):
    # pi_M reads only the xi_P, so check (i) fails with x_P when
    # xi_P x_P != x_P^c, and every other check still passes
    split = basis_5_11.split
    good = verify_weil_basis(basis_5_11)
    for idx, check in zip(split.S, good["checks"]):
        x = dict(basis_5_11.x)
        x[idx] = -x[idx]
        rep = verify_weil_basis(basis_5_11._replace(x=x))
        assert not rep["ok"]
        assert [c["name"] for c in rep["checks"] if not c["ok"]] == [check["name"]]


def test_verify_vacuous_for_empty_T(k5):
    basis = build_weil_basis(split_prime(k5, 19))
    rep = verify_weil_basis(basis)
    assert rep["ok"]
    assert any(c["name"] == "rank = |T|/2" for c in rep["checks"])


# ---------------------------------------------------------------------------
# Jacobi sums

def test_jacobi_weight_one_for_all_characters():
    field = CycloField(5)
    eleven = field.from_rational(11)
    for a in range(1, 5):
        for b in range(1, 5):
            if (a + b) % 5 == 0:
                continue
            lam = jacobi_weil_number(11, 5, a, b)
            assert lam * lam.conj() == eleven


def test_jacobi_embedding_modulus():
    lam = jacobi_weil_number(11, 5, 1, 1)
    for place in lam.field.places:
        assert modulus_squared(embed(lam, place, 128)).contains(11)


def test_jacobi_norm():
    lam = jacobi_weil_number(11, 5, 1, 1)
    assert norm(lam) == 121  # p^(phi(n)/2)


def test_jacobi_validation():
    with pytest.raises(ConfigError):
        jacobi_weil_number(11, 5, 2, 3)  # a + b = 0 mod 5
    with pytest.raises(ConfigError):
        jacobi_weil_number(11, 5, 0, 1)
    with pytest.raises(ConfigError):
        jacobi_weil_number(7, 5, 1, 1)  # 7 != 1 mod 5


def test_grid_sample_invariants():
    # a light sample of the larger grid: basis identities hold exactly
    for n, p in ((7, 2), (8, 3), (12, 13), (16, 3)):
        field = CycloField(n)
        sp = split_prime(field, p)
        basis = build_weil_basis(sp)
        if not sp.S:
            continue
        for idx in sp.S:
            xi = basis.xi[idx]
            assert xi * xi.conj() == field.one()
            assert is_weil_unit(xi, p)
            vec = alpha_p_map(xi, sp)
            nonzero = [c for c in vec.coeffs if c]
            assert sorted(nonzero) == [-basis.M, basis.M]


# ---------------------------------------------------------------------------
# property test: alpha o pi and pi o alpha on random products of the xi_P

@functools.lru_cache(maxsize=None)
def _cell_basis(n, p):
    return build_weil_basis(split_prime(CycloField(n), p))


@pytest.mark.parametrize("n, p", [(5, 11), (13, 79), (20, 41)])
@settings(max_examples=10, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_alpha_pi_identities_on_random_weil_units(n, p, data):
    basis = _cell_basis(n, p)
    split, field, M = basis.split, basis.split.field, basis.M
    k = data.draw(st.integers(0, n - 1), label="k")
    sign = data.draw(st.sampled_from((1, -1)), label="sign")
    exps = data.draw(st.lists(st.integers(-3, 3), min_size=len(split.S),
                              max_size=len(split.S)), label="exponents")

    x = field.zeta(k) * sign
    want = fraction_elt(field, x.coeffs)
    coeffs = [0] * split.g
    for idx, vec, e in zip(split.S, minus_basis(split), exps):
        x = x * basis.xi[idx] ** e
        want = fraction_mul(field, want, fraction_pow(field, basis.xi[idx].coeffs, e))
        coeffs = [c + e * v for c, v in zip(coeffs, vec.coeffs)]
    nu = DivisorVec(split, tuple(coeffs))
    # the integer path and the Fraction oracle agree
    assert x.coeffs == want

    # alpha(pi(nu)) = -M nu, and pi(nu) is this product without the torsion
    img = alpha_p_map(pi_m_map(nu, basis), split)
    assert img.coeffs == tuple(-M * c for c in nu.coeffs)
    assert alpha_p_map(x, split).coeffs == img.coeffs

    # x^M pi(alpha(x)) is torsion
    y = (x ** M) * pi_m_map(alpha_p_map(x, split), basis)
    assert is_root_of_unity(y) is not None
