import random
from fractions import Fraction

import mpmath
import pytest

from pweil.arith import BallReal, _cos_sin_turn
from pweil.cyclo import CycloField, embed
from pweil.lattice import find_simultaneous_relation, row_hnf
from pweil.splitting import ord_at, split_prime
from pweil.weilgroup import build_weil_basis, jacobi_weil_number
from oracles import (fraction_certified_arg, gross_row_full_norm, hnf_orbit_mismatch,
                     mpi_cos_sin, orbit_group_determinant, per_row_gross_matrix,
                     powering_circulant_group_delta)
from pweil import regulators, weilgroup
from pweil.regulators import (
    BasisMismatch,
    arg_vector,
    argument_independence_certificate,
    certified_arg,
    circulant_group_delta,
    closure_dimension,
    epsilon_vector,
    find_abelian_generator,
    gross_matrix,
    gross_row,
    group_determinant,
    weil_angle_identity,
)


# ---------------------------------------------------------------------------
# argument vectors

def test_arg_vector_trivial_one(k5):
    av = arg_vector(k5.one(), 64)
    assert all(v.midpoint == 0 and v.radius == 0 for v in av.values)


def test_arg_vector_minus_one(k5):
    # the contract is a radius below 2^-(precision/2 + 1): at 64 bits that is
    # 2^-33, so pi is in the ball and no closer; 200 bits imply 1e-30
    with mpmath.workdps(60):
        pi = Fraction(mpmath.nstr(mpmath.mp.pi, 55))
    eps = Fraction(1, 10 ** 54)
    for v in arg_vector(-k5.one(), 64).values:
        assert v.lower <= pi - eps and pi + eps <= v.upper
        assert v.radius < Fraction(1, 1 << 33)
    for v in arg_vector(-k5.one(), 200).values:
        assert abs(v.midpoint - pi) < Fraction(1, 10 ** 30)


def test_arg_vector_rejects_non_unit_modulus(k5):
    with pytest.raises(ValueError):
        arg_vector(1 + 2 * k5.zeta(), 64)


def test_arg_vector_known_value(basis_5_11):
    # at the root-5 prime x = 2 + zeta^4 = zeta^-1 (1 + 2 zeta), so xi = x^c / x
    # has argument -2 arg(1 + 2 e^(2 pi i/5)) + 4 pi / 5; oracle evaluated
    # independently at 60 dps: 0.781425010688102255117485826637489838999817336
    split = basis_5_11.split
    r5 = next(i for i, pr in enumerate(split.primes) if pr.root_mod_p() == 5)
    av = arg_vector(basis_5_11.xi[r5], 256)
    oracle = Fraction("0.781425010688102255117485826637489838999817336")
    assert av.places[0] == 1
    assert abs(av.values[0].midpoint - oracle) < Fraction(1, 10 ** 35)
    with mpmath.workdps(60):
        z = 2 + mpmath.exp(8j * mpmath.mp.pi / 5)
        indep = Fraction(mpmath.nstr(-2 * mpmath.arg(z), 45))
    assert abs(av.values[0].midpoint - indep) < Fraction(1, 10 ** 35)


def test_arg_branch_consistency(basis_5_11):
    # exp(i arg) must reproduce sigma_v(xi) within enclosure at every place
    split = basis_5_11.split
    for idx in split.S:
        xi = basis_5_11.xi[idx]
        av = arg_vector(xi, 160)
        for place, val in zip(av.places, av.values):
            re, im = embed(xi, place, 160)
            cos, sin = mpi_cos_sin(val)
            assert cos.overlaps(re) and sin.overlaps(im)


# ---------------------------------------------------------------------------
# independence certificates

def test_independence_certificate_5_11(basis_5_11):
    rep = argument_independence_certificate(basis_5_11, bound=100, precision=256)
    assert rep.certificate.status == "none-up-to-bound"
    assert rep.consistent
    assert rep.rank_one_exact is None  # |S| = 2


def test_independence_rank_one_exact(basis_8_5):
    rep = argument_independence_certificate(basis_8_5, bound=100, precision=192)
    assert rep.certificate.status == "none-up-to-bound"
    assert rep.rank_one_exact is True


def test_independence_offset_stability(basis_5_11):
    rng = random.Random(7)
    places = basis_5_11.split.field.places
    for _ in range(3):
        offsets = [[rng.randint(-4, 4) for _ in places] for _ in basis_5_11.split.S]
        rep = argument_independence_certificate(
            basis_5_11, bound=100, precision=256, offsets=offsets)
        assert rep.certificate.status == "none-up-to-bound"


def test_independence_offsets_need_one_row_per_basis_element(basis_5_11):
    # |S| = 2: three rows used to raise IndexError, one row was accepted
    places = basis_5_11.split.field.places
    for rows in (3, 1):
        with pytest.raises(ValueError, match="offset row count"):
            argument_independence_certificate(
                basis_5_11, bound=100, precision=256, offsets=[[0] * len(places)] * rows)


def test_planted_duplicate_vector_is_detected(basis_5_11):
    # harness sanity: a duplicated argument vector must produce a relation
    split = basis_5_11.split
    av = arg_vector(basis_5_11.xi[split.S[0]], 192)
    two_pi = BallReal.pi(224) * 2
    cert = find_simultaneous_relation([av.values, av.values], two_pi, 100, 192)
    assert cert.status == "found"
    assert cert.relation[:2] in ((1, -1), (-1, 1))


# ---------------------------------------------------------------------------
# group determinants

def test_group_determinant_rank_one(basis_8_5):
    rep = group_determinant(basis_8_5, 1, 256)
    assert rep.size == 1
    assert rep.nonzero
    assert rep.delta.overlaps(rep.delta_factored)
    # delta = |arg(xi)| here; compare against the direct argument
    av = arg_vector(basis_8_5.xi[basis_8_5.split.S[0]], 256)
    assert rep.delta.overlaps(abs(av.values[0]))


def test_group_determinant_rejects_sigma2_on_zeta5(basis_5_11):
    # sigma_2^2 = sigma_{-1} = conjugation, so the orbit does not close:
    # xi^(sigma_2^2) = xi^(-1) != xi
    with pytest.raises(BasisMismatch):
        group_determinant(basis_5_11, 2, 128)


def test_group_determinant_rejects_a_non_unit():
    basis = build_weil_basis(split_prime(CycloField(8), 17))
    for a in (0, 2, 4, 6, 10):
        with pytest.raises(ValueError, match="not coprime to 8"):
            group_determinant(basis, a, 128)


def test_group_determinant_2x2_split_case():
    field = CycloField(8)
    sp = split_prime(field, 17)
    basis = build_weil_basis(sp)
    a = find_abelian_generator(basis)
    assert a == 3 and type(a) is int
    rep = group_determinant(basis, a, 256)
    assert rep.size == 2
    assert rep.nonzero
    assert rep.delta.overlaps(rep.delta_factored)


def test_group_determinant_scaling_property(basis_8_5):
    # with branch values scaled by N the determinant scales by N^m
    rep = group_determinant(basis_8_5, 1, 192)
    n_scale = 7
    scaled = [t * n_scale for t in rep.thetas]
    delta_scaled, fact_scaled = circulant_group_delta(scaled)
    target = rep.delta * (n_scale ** rep.size)
    assert delta_scaled.overlaps(target)
    assert fact_scaled.overlaps(target)


def _per_pair_character_product(thetas):
    # the character product with cos and sin of 2 pi (i j mod m) / m rebuilt
    # for each of the m^2 pairs from the kernel, as the table floors and ceils it
    m, prec = len(thetas), max(t.prec for t in thetas)
    fact = BallReal.from_int(1, prec)
    for j in range(m):
        re = im = BallReal.zero(prec)
        for i, t in enumerate(thetas):
            ys, err, w = _cos_sin_turn((i * j) % m, m, prec + 8)
            cos, sin = (BallReal.from_scaled_ints((y - err) >> (w - prec),
                                                  -(-(y + err) >> (w - prec)), prec, prec)
                        for y in ys)
            re, im = re + t * cos, im + t * sin
        fact = fact * (abs(re) * abs(re) + abs(im) * abs(im)).sqrt()
    return fact


def test_circulant_group_delta_matches_the_m2_angle_oracle(basis_8_5):
    # one cos/sin table gives the enclosures of m^2 angles rebuilt from the
    # kernel bit for bit, and they overlap the oracle's from mpmath's interval
    # cos/sin: random balls of every size m <= 8 at three precisions, and the
    # thetas of a real orbit
    rng = random.Random(8)
    cases = [list(group_determinant(basis_8_5, 1, 192).thetas)]
    for prec in (64, 256, 544):
        for m in range(1, 9):
            cases.append([BallReal.from_endpoints(Fraction(c, 10 ** 6), Fraction(c + r, 10 ** 6),
                                                  prec)
                          for c, r in ((rng.randint(-10 ** 7, 10 ** 7), rng.randint(0, 9))
                                       for _ in range(m))])
    for thetas in cases:
        (delta, fact), (want_delta, want_fact) = (circulant_group_delta(thetas),
                                                  powering_circulant_group_delta(thetas))
        rebuilt = _per_pair_character_product(thetas)
        assert (fact.man_exp(), fact.prec) == (rebuilt.man_exp(), rebuilt.prec)
        assert (delta.man_exp(), delta.prec) == (want_delta.man_exp(), want_delta.prec)
        assert fact.overlaps(want_fact)


def test_circulant_group_delta_encloses_a_factor_that_straddles_0():
    # thetas [t, t], t = [3/4, 5/4]: the factor of omega = -1 is |t - t|,
    # whose real part straddles 0; each part is squared through abs, so the
    # factor encloses 0 instead of raising and still overlaps |det|
    t = BallReal.from_endpoints(Fraction(3, 4), Fraction(5, 4), 64)
    delta, fact = circulant_group_delta([t, t])
    assert fact.contains_zero() and delta.overlaps(fact)


@pytest.mark.parametrize("n, p", [(13, 79), (11, 67), (15, 31)])
def test_certified_arg_of_the_numerator_overlaps_the_fraction_oracle(n, p):
    # arg sigma_v(xi) = arg sigma_v(xi.num): both enclosures hold the same
    # number, and the numerator's meets the radius target
    basis = build_weil_basis(split_prime(CycloField(n), p))
    precision = 512
    target = Fraction(1, 1 << (precision // 2 + 1))
    for idx in basis.split.S:
        xi = basis.xi[idx]
        assert xi.den > 1
        for v in xi.field.places:
            got = certified_arg(xi, v, precision)
            assert got.radius < target
            assert got.overlaps(fraction_certified_arg(xi, v, precision))


def test_certified_arg_meets_the_radius_the_relation_search_needs(basis_5_11, monkeypatch):
    # a first attempt of radius 0.75 2^-(precision/2) is below 2^-(precision/2)
    # but the search at scale 2^(precision/2) rejects it (2^scale r >= 1/2):
    # certified_arg retries at doubled working precision, and the search
    # accepts the arguments it returns
    precision = 256
    wp = precision // 2 + regulators.ARG_GUARD  # the first working precision
    first = wp + 16  # the precision of the first embedding
    principal = regulators.arg_principal
    calls = []

    def widened(re, im):
        calls.append(re.prec)
        val = principal(re, im)
        if re.prec != first:
            return val
        r = Fraction(3, 4) / (1 << (precision // 2))
        return BallReal.from_endpoints(val.midpoint - r, val.midpoint + r, re.prec)

    monkeypatch.setattr(regulators, "arg_principal", widened)
    split = basis_5_11.split
    vectors = []
    for idx in split.S:
        vectors.append([])
        for v in split.field.places:
            calls.clear()
            val = certified_arg(basis_5_11.xi[idx], v, precision)
            assert calls == [first, 2 * wp + 16]
            assert val.radius < Fraction(1, 1 << (precision // 2 + 1))
            vectors[-1].append(val)
    cert = find_simultaneous_relation(vectors, BallReal.pi(precision + 32) * 2, 10 ** 4, precision)
    assert cert.status == "none-up-to-bound"


HARD_AND_CERTIFY_CELLS = ((13, 79), (11, 67), (15, 31), (7, 29), (7, 43), (7, 71), (15, 61),
                          (16, 17), (16, 97), (20, 41), (20, 61))


def _mp_arg_fraction(x, place: int) -> Fraction:
    """arg sigma_v(x.num) at 2,000 bits, as a Fraction (error below 2^-1990)."""
    n = x.field.n
    with mpmath.workprec(2000):
        z = mpmath.fsum(c * mpmath.expjpi(mpmath.mpf(2 * (place * i % n)) / n)
                        for i, c in enumerate(x.num) if c)
        return Fraction(*mpmath.libmp.to_rational(mpmath.arg(z)._mpf_))


def test_certified_arg_needs_one_embedding_on_the_grid(grid, monkeypatch):
    # every argument the reports take (xi_P at every place; x_P and a Jacobi
    # sum at the base place, as the angle identity does) meets the radius
    # 2^-(precision/2 + 1) at the first working precision, precision // 2 +
    # ARG_GUARD, and contains the 2,000-bit value: every grid basis at 256
    # bits, the analyze-hard and certify cells at 1,024
    embeddings = []
    real_embed = regulators.embed

    def counting_embed(x, place, precision):
        embeddings.append(precision)
        return real_embed(x, place, precision)

    monkeypatch.setattr(regulators, "embed", counting_embed)
    points, _ = grid
    runs = [(256, [c for c, (_, _, b) in sorted(points.items()) if b is not None]),
            (1024, HARD_AND_CERTIFY_CELLS)]
    eps = Fraction(1, 1 << 1990)
    checked = 0
    for precision, cells in runs:
        wp = precision // 2 + regulators.ARG_GUARD
        for n, p in cells:
            basis = points[(n, p)][2]
            field = basis.split.field
            args = [(basis.xi[i], v) for i in basis.split.S for v in field.places]
            args += [(basis.x[i], field.places[0]) for i in basis.split.S]
            if (p - 1) % n == 0:
                args.append((jacobi_weil_number(p, n, 1, 1), field.places[0]))
            for x, v in args:
                embeddings.clear()
                val = certified_arg(x, v, precision)
                assert embeddings == [wp], (n, p, v)
                assert val.radius_below(precision // 2 + 1)
                want = _mp_arg_fraction(x, v)
                assert val.lower <= want - eps and want + eps <= val.upper, (n, p, v)
                checked += 1
    assert checked > 1200


def test_orbit_arguments_match_the_direct_arguments(grid):
    # the certificate's arguments, read off the orbit of xi_{P0}: every ball
    # meets the direct certified_arg ball of xi_P at its place, with no
    # multiple of 2 pi between them, and has radius below
    # 2^-(precision/2 + 1); every grid basis at 256 bits, the analyze-hard
    # and certify cells at 1,024
    points, _ = grid
    runs = [(256, [c for c, (_, _, b) in sorted(points.items()) if b is not None]),
            (1024, HARD_AND_CERTIFY_CELLS)]
    balls = 0
    for precision, cells in runs:
        for n, p in cells:
            basis = points[(n, p)][2]
            split, field = basis.split, basis.split.field
            vectors = regulators._orbit_arguments(basis, precision)
            assert len(vectors) == len(split.S)
            for idx, vec in zip(split.S, vectors):
                assert len(vec) == len(field.places)
                for v, ball in zip(field.places, vec):
                    assert ball.radius_below(precision // 2 + 1), (n, p, idx, v)
                    assert ball.overlaps(certified_arg(basis.xi[idx], v, precision)), \
                        (n, p, idx, v)
                    balls += 1
    assert balls > 700


def test_certificate_takes_one_orbit_of_certified_arguments(grid, monkeypatch):
    # |places| certified_arg calls per certificate, not |S| |places|; on the
    # 128 grid cells at 256 bits and B = 10^4 every certificate is
    # none-up-to-bound at 2^32, as the search on the direct arguments is
    calls = []
    real_certified_arg = regulators.certified_arg

    def counting_certified_arg(x, place, precision):
        calls.append(place)
        return real_certified_arg(x, place, precision)

    monkeypatch.setattr(regulators, "certified_arg", counting_certified_arg)
    points, _ = grid
    two_pi = BallReal.pi(256 + 32) * 2
    cells = 0
    for (n, p), (field, split, basis) in sorted(points.items()):
        if basis is None:
            continue
        calls.clear()
        cert = argument_independence_certificate(basis, 10 ** 4, 256).certificate
        assert calls == list(field.places), (n, p)
        assert (cert.status, cert.scale_log2) == ("none-up-to-bound", 32), (n, p)
        direct = [arg_vector(basis.xi[idx], 256).values for idx in split.S]
        want = find_simultaneous_relation(direct, two_pi, 10 ** 4, 256)
        assert (want.status, want.scale_log2) == (cert.status, cert.scale_log2), (n, p)
        cells += 1
    assert cells == 128


def test_a_basis_twisted_by_a_root_of_unity_is_rejected(grid):
    # xi_P replaced by zeta xi_P or -xi_P: still in E_p(k) with the same
    # divisor, but no longer sigma_a(xi_{P0}), so the orbit arguments, the
    # certificate and the regulator matrix refuse it instead of reading it
    # as the orbit
    points, _ = grid
    for n, p in ((5, 11), (13, 79), (16, 17), (20, 41)):
        basis = points[(n, p)][2]
        split, field = basis.split, basis.split.field
        for twist in (field.zeta(), -field.one()):
            xi = dict(basis.xi)
            xi[split.S[-1]] = twist * xi[split.S[-1]]
            twisted = basis._replace(xi=xi)
            with pytest.raises(BasisMismatch, match="is not sigma_"):
                regulators._orbit_arguments(twisted, 256)
            with pytest.raises(BasisMismatch, match="is not sigma_"):
                argument_independence_certificate(twisted, 10 ** 4, 256)
            with pytest.raises(BasisMismatch, match="is not sigma_"):
                gross_matrix(twisted, split, 50)
        assert regulators._orbit_transporters(basis) == [
            min(split.primes[idx].coset) for idx in split.S]


def test_find_abelian_generator_none_for_zeta5_11(basis_5_11):
    # (Z/5)* is cyclic of order 4: conjugation has no complement, and no
    # cyclic orbit of length 2 closes on the basis
    assert find_abelian_generator(basis_5_11) is None


def test_orbit_test_on_primes_matches_the_hnf_oracle(grid):
    # every unit a of every grid cell with S nonempty: the same verdict and
    # message as the orbit's alpha_p rows and HNF rank, and the same
    # generator as a search with that oracle
    pairs = 0
    for _field, sp, basis in grid[0].values():
        if basis is None:
            continue
        want = [hnf_orbit_mismatch(basis, a) for a in sp.field.units]
        assert [regulators._orbit_mismatch(basis, a) for a in sp.field.units] == want, sp
        first = next((a for a, reason in zip(sp.field.units, want) if reason is None), None)
        assert find_abelian_generator(basis) == first, sp
        pairs += len(want)
    assert pairs == 888


def test_group_determinant_matches_the_built_orbit(grid):
    # theta_k read at the place a^k against the argument of the built orbit
    # element sigma_a^k(xi) at the fixed embedding: overlapping balls and the
    # same report, on every grid cell with a closing orbit
    cells = 0
    for _field, sp, basis in grid[0].values():
        a = find_abelian_generator(basis) if basis is not None else None
        if a is None:
            continue
        for precision in (256, 1024):
            got = group_determinant(basis, a, precision)
            want = orbit_group_determinant(basis, a, precision)
            assert all(g.overlaps(w) for g, w in zip(got.thetas, want.thetas)), sp
            assert got.to_jsonable() == want.to_jsonable(), (sp, precision)
        cells += 1
    assert cells == 106


def test_orbit_test_computes_no_valuation(monkeypatch):
    # the orbit is decided on the primes: no ord_at, directly or through
    # alpha_p_map, in the generator search or the group determinant
    bases = [build_weil_basis(split_prime(CycloField(n), p)) for n, p in [(8, 17), (5, 11)]]
    calls = []

    def counting(prime, x):
        calls.append(prime)
        return ord_at(prime, x)

    monkeypatch.setattr(regulators, "ord_at", counting)
    monkeypatch.setattr(weilgroup, "ord_at", counting)
    dets = 0
    for basis in bases:
        find_abelian_generator(basis)
        for a in basis.split.field.units:
            try:
                group_determinant(basis, a, 128)
                dets += 1
            except BasisMismatch:
                pass
    assert dets > 0 and calls == []


def test_argument_matrix_determinant_nonzero(basis_5_11):
    # even without a group structure, the raw 2x2 matrix of basis argument
    # values at the two places has a certified nonzero determinant at 256 bits
    from pweil.arith import ball_det

    split = basis_5_11.split
    rows = [arg_vector(basis_5_11.xi[idx], 256).values for idx in split.S]
    det = ball_det([list(r) for r in rows])
    assert det.excludes_zero()


# ---------------------------------------------------------------------------
# the p-adic regulator matrix

def test_gross_matrix_5_11(basis_5_11):
    gm = gross_matrix(basis_5_11, basis_5_11.split, 50)
    assert gm.heuristic_rank == 2
    assert gm.row_sum_min_valuation >= 45  # product formula: rows sum to 0
    assert len(gm.entries) == 2 and len(gm.entries[0]) == 4


def test_gross_torsion_row_is_zero(k5, split_5_11):
    # Teichmueller logarithms are exactly 0, at full precision
    assert gross_row(k5.zeta(), split_5_11, 50) == ([0] * 4, 50)
    assert gross_row(-k5.one(), split_5_11, 50) == ([0] * 4, 50)


def test_gross_row_invariant_under_torsion(k5, split_5_11, basis_5_11):
    idx = split_5_11.S[0]
    xi = basis_5_11.xi[idx]
    a = gross_row(xi, split_5_11, 40)
    b = gross_row(k5.zeta() * xi, split_5_11, 40)
    assert a == b and any(a[0])


@pytest.mark.parametrize("n, p", [(13, 79), (11, 67), (15, 31), (8, 5), (13, 3), (16, 3),
                                  (11, 3), (19, 5)])
def test_gross_row_matches_full_norm_oracle(n, p):
    # the product of the f Frobenius images of x.num at precision K + ord,
    # their units multiplied at K, against the resultant at K + f ord on a
    # fresh lift, for f = 1 (the first three), 2, 3, 4, 5 and 9: basis
    # elements (p in the denominator), generators (p-divisible numerators),
    # their products and quotients by 6 (a denominator prime to p, divided
    # out as den^f), at the command line's default K = 50 and at a K below
    # and above it
    split = split_prime(CycloField(n), p)
    assert split.T
    basis = build_weil_basis(split)
    rng = random.Random(n * p)
    elts = list(basis.xi.values()) + list(basis.x.values())
    elts += [rng.choice(elts) * rng.choice(elts) ** 2 for _ in range(4)]
    sixth = split.field.from_rational(Fraction(1, 6))
    elts += [x * sixth for x in elts[:3]]
    for K in (50, 20, 64):
        for x in elts:
            assert gross_row(x, split, K) == gross_row_full_norm(x, split, K)


def test_gross_matrix_rows_match_the_per_row_loop(grid, basis_5_11):
    # each S-row is the row of xi_{S[0]} permuted by sigma_a^-1 on the
    # columns; entries, precision, rank and row-sum valuation are those of
    # one gross_row per prime of S, on every grid cell with T nonempty
    cells = [(sp, basis) for _field, sp, basis in grid[0].values() if basis is not None]
    assert len(cells) == 128
    for sp, basis in cells + [(basis_5_11.split, basis_5_11)]:
        assert gross_matrix(basis, sp, 50) == per_row_gross_matrix(basis, sp, 50)


def test_gross_matrix_nontrivial_residue_degree(basis_8_5):
    gm = gross_matrix(basis_8_5, basis_8_5.split, 40)
    assert gm.heuristic_rank == 1
    assert gm.row_sum_min_valuation >= 35
    assert gm.to_csv().startswith("row,P0,P1")


# ---------------------------------------------------------------------------
# closure dimension

def test_closure_completely_split(split_5_11):
    rep = closure_dimension(split_5_11)
    assert rep.dimension == 2 == rep.torus_dimension
    assert rep.dense
    assert rep.c_hat_basis == ()


def test_closure_empty_T(k5):
    rep = closure_dimension(split_prime(k5, 19))
    assert rep.dimension == 0
    assert not rep.dense
    assert len(rep.c_hat_basis) == 2  # the full dual lattice survives


def test_epsilon_relations(split_5_11):
    # eps_{P,P'} = eps_{cP,cP'} = -eps_{P,cP'} = -eps_{cP,P'}
    sp = split_5_11
    for i in sp.T:
        for j in sp.T:
            e = epsilon_vector(sp, i, j)
            ci, cj = sp.conj_index(i), sp.conj_index(j)
            assert e == epsilon_vector(sp, ci, cj)
            assert tuple(-x for x in e) == epsilon_vector(sp, i, cj)
            assert tuple(-x for x in e) == epsilon_vector(sp, ci, j)


def _epsilons(split, s_indices, place_auts):
    """The eps_{P,P'} rows of closure_dimension, for any choice of S
    representatives and of one residue per infinite place."""
    rows = []
    for i in s_indices:
        for j in s_indices:
            imgs = [split.act_index(a, i) for a in place_auts]
            rows.append(tuple(1 if k == j else -1 if k == split.conj_index(j) else 0
                              for k in imgs))
    return rows


def test_closure_independent_of_choices(grid):
    # swapping S representatives for their conjugates, or each place
    # representative a for n - a, keeps the rank of the eps rows; every grid
    # cell with T nonempty
    cells = 0
    for field, sp, basis in grid[0].values():
        if basis is None:
            continue
        base = closure_dimension(sp)
        assert list(base.epsilons.values()) == _epsilons(sp, sp.S, field.places)
        alt_s = [sp.conj_index(i) for i in sp.S]
        alt_places = [field.n - a for a in field.places]
        for s_indices, places in ((alt_s, field.places), (sp.S, alt_places),
                                  (alt_s, alt_places)):
            assert row_hnf(_epsilons(sp, s_indices, places))[1] == base.dimension, sp
        cells += 1
    assert cells == 128


def test_closure_dimension_is_the_rank_of_the_eps_vectors(grid):
    # the dimension read off the kernel equals the HNF rank of the eps rows
    # on every grid cell, T empty included
    for _field, sp, _basis in grid[0].values():
        rep = closure_dimension(sp)
        assert rep.dimension == row_hnf(list(rep.epsilons.values()))[1], sp
    assert len(grid[0]) == 213


def test_closure_partial_case(basis_8_5):
    # n=8, p=5: |S| = 1 but p not completely split: dimension 1 < 2
    rep = closure_dimension(basis_8_5.split)
    assert rep.dimension == 1
    assert not rep.dense
    assert len(rep.c_hat_basis) == 1


# ---------------------------------------------------------------------------
# the angle-valuation identity

def test_angle_identity_trivial_lambdas(k5, split_5_11, basis_5_11):
    rep1 = weil_angle_identity(k5.one(), split_5_11, basis_5_11, precision=192)
    assert rep1.ok and rep1.rational == 0 and rep1.weight == 0
    repm = weil_angle_identity(-k5.one(), split_5_11, basis_5_11, precision=192)
    assert repm.ok and repm.rational == Fraction(1, 2)


def test_angle_identity_jacobi(split_5_11, basis_5_11):
    lam = jacobi_weil_number(11, 5, 1, 1)
    rep = weil_angle_identity(lam, split_5_11, basis_5_11, den_bound=60, precision=320)
    assert rep.weight == 1
    assert rep.forms_overlap
    assert rep.rational is not None
    assert rep.rational.denominator <= 20
    assert rep.ok


def test_angle_identity_rejects_non_weil(k5, split_5_11, basis_5_11):
    with pytest.raises(ValueError):
        weil_angle_identity(1 + k5.zeta(), split_5_11, basis_5_11, precision=128)


def test_angle_identity_reconstruct_failure_reported(split_5_11, basis_5_11):
    lam = jacobi_weil_number(11, 5, 1, 1)
    rep = weil_angle_identity(lam, split_5_11, basis_5_11, den_bound=1, precision=320)
    assert rep.rational is None
    assert not rep.ok
