import importlib.util
import math
import os
import random
import sys
from fractions import Fraction

import pytest
from mpmath.libmp import from_int, libmpi, to_rational

from oracles import (bareiss_det, cholesky_short_vectors, fraction_gs_norms, fraction_lll,
                     fraction_relation, full_scale_relation, round_fraction,
                     transform_kernel_basis_int)
from pweil import lattice, weilgroup
from pweil.arith import BallReal, PrecisionTooLow
from pweil.lattice import (
    DependentRows,
    EnumerationBudgetExceeded,
    find_simultaneous_relation,
    gs_norms,
    kernel_basis_int,
    lll,
    row_hnf,
    short_vectors,
    _canonical_sign,
)
from pweil.regulators import arg_vector, epsilon_vector


# ---------------------------------------------------------------------------
# HNF

def test_hnf_identity_fixed():
    assert row_hnf([(1, 0), (0, 1)]) == ([[1, 0], [0, 1]], 2)


def test_hnf_unimodular_is_identity():
    # {(1,0),(4,1)} spans all of Z^2
    assert row_hnf([(1, 0), (4, 1)]) == ([[1, 0], [0, 1]], 2)


def test_hnf_diag_product_matches_det_oracle():
    rng = random.Random(12)
    for _ in range(10):
        rows = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(5)]
        d = bareiss_det(rows)
        if d == 0:
            continue
        h, rank = row_hnf(rows)
        assert rank == 5
        prod = 1
        for i in range(5):
            prod *= h[i][i]
        assert prod == abs(d)


def test_hnf_dependent_rows_reports_rank():
    h, rank = row_hnf([(1, 2, 3), (2, 4, 6), (0, 0, 1)])
    assert rank == 2
    assert h == [[1, 2, 0], [0, 0, 1]]


def test_kernel_basis():
    # kernel of v . M = 0 for M with dependent rows
    M = [[1, 2], [2, 4], [0, 1]]
    ker = kernel_basis_int(M)
    assert len(ker) == 1
    v = ker[0]
    assert [v[0] * 1 + v[1] * 2 + v[2] * 0, v[0] * 2 + v[1] * 4 + v[2] * 1] == [0, 0]


def test_kernel_basis_matches_the_transform_product_oracle(grid):
    # the rows of U from the rank on against the rows of U with U A = 0, on
    # random matrices (1-7 x 1-7, some with repeated or combined rows) and
    # on the transposed incidence vectors closure_dimension takes the kernel of
    rng = random.Random(3000)
    cases = []
    for _ in range(400):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        if m > 1 and rng.random() < 0.5:
            i, j = rng.sample(range(m), 2)
            c = rng.randint(-3, 3)
            rows[i] = [x + c * y for x, y in zip(rows[j], rows[rng.randrange(m)])]
        cases.append(rows)
    for _field, sp, basis in grid[0].values():
        if basis is not None:
            vectors = [epsilon_vector(sp, i, j) for i in sp.S for j in sp.S]
            cases.append([[vec[v] for vec in vectors] for v in range(len(sp.field.places))])
    assert len(cases) == 400 + 128
    dependent = 0
    for rows in cases:
        ker = kernel_basis_int(rows)
        assert ker == transform_kernel_basis_int(rows), rows
        dependent += bool(ker)
    assert dependent > 100


def test_rank_q():
    # the rank over Q of integer rows is the rank row_hnf returns
    assert row_hnf([[1, 2], [2, 4]])[1] == 1
    assert row_hnf([[1, 0], [0, 1]])[1] == 2
    assert row_hnf([]) == ([], 0)


# ---------------------------------------------------------------------------
# LLL

def _same_lattice(rows_a, rows_b):
    return row_hnf(rows_a)[0] == row_hnf(rows_b)[0]


def test_lll_generates_same_lattice_and_transform_is_unimodular():
    rng = random.Random(31)
    for _ in range(8):
        n = rng.randint(2, 5)
        rows = [[rng.randint(-40, 40) for _ in range(n)] for _ in range(n)]
        if bareiss_det(rows) == 0:
            continue
        red = lll(rows)[0]
        assert _same_lattice(rows, red)
        # recover the transform exactly: T = red * rows^-1 must be integral
        # with determinant +-1
        aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
               for i, row in enumerate(rows)]
        for col in range(n):
            piv = next(i for i in range(col, n) if aug[i][col] != 0)
            aug[col], aug[piv] = aug[piv], aug[col]
            aug[col] = [x / aug[col][col] for x in aug[col]]
            for i in range(n):
                if i != col and aug[i][col] != 0:
                    f = aug[i][col]
                    aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
        inv = [r[n:] for r in aug]
        transform = []
        for row in red:
            t = [sum(Fraction(row[k]) * inv[k][j] for k in range(n)) for j in range(n)]
            assert all(x.denominator == 1 for x in t)
            transform.append([x.numerator for x in t])
        assert abs(bareiss_det(transform)) == 1


def test_lll_lovasz_condition_holds():
    rng = random.Random(37)
    rows = [[rng.randint(-30, 30) for _ in range(4)] for _ in range(4)]
    while bareiss_det(rows) == 0:
        rows = [[rng.randint(-30, 30) for _ in range(4)] for _ in range(4)]
    red = lll(rows)[0]
    B = gs_norms(red)
    # delta = 3/4; Lovasz condition on consecutive Gram-Schmidt norms
    # after size reduction implies B[k] >= (delta - 1/4) B[k-1] >= B[k-1]/2
    for k in range(1, 4):
        assert B[k] >= Fraction(1, 2) * B[k - 1] * Fraction(1, 2)


def test_lll_rejects_dependent():
    with pytest.raises(DependentRows):
        lll([[1, 2], [2, 4]])
    with pytest.raises(DependentRows) as err:  # a single zero row is a dependent set
        lll([[0, 0]])
    assert err.value.rank == 0
    assert lll([]) == ([], [], [1])  # the empty set is independent


def _random_gram(rng, dim):
    # A^T A + I: positive definite with integer entries
    a = [[rng.randint(-5, 5) for _ in range(dim)] for _ in range(dim)]
    return [[sum(a[k][i] * a[k][j] for k in range(dim)) + (i == j) for j in range(dim)]
            for i in range(dim)]


def _random_basis(rng, n, cols, magnitude):
    return [[rng.randint(-magnitude, magnitude) for _ in range(cols)] for _ in range(n)]


def test_lll_matches_fraction_lll_oracle():
    # integral LLL against the rational LLL: the same reduced basis and the
    # same Gram-Schmidt norms, with and without a Gram matrix, at delta = 3/4
    rng = random.Random(61)
    compared = dependent = 0
    for trial in range(160):
        n = rng.randint(2, 7)
        cols = n + rng.randint(0, 2)
        rows = _random_basis(rng, n, cols, 10 ** rng.choice((1, 3, 6, 12)))
        if trial % 10 == 0:
            rows[-1] = [x - 3 * y for x, y in zip(rows[0], rows[1])]
        gram = _random_gram(rng, cols) if trial % 2 else None
        try:
            expected = fraction_lll(rows, gram=gram)
        except DependentRows as err:
            with pytest.raises(DependentRows) as got:
                lll(rows, gram)
            assert got.value.rank == err.rank
            dependent += 1
            continue
        reduced = lll(rows, gram)[0]
        assert reduced == expected
        assert gs_norms(reduced, gram) == fraction_gs_norms(expected, gram)
        compared += 1
    assert dependent >= 10 and compared >= 140


def test_lll_returns_the_gram_schmidt_data_of_its_output(monkeypatch):
    # the lambda and d that LLL keeps through its swaps and size reductions
    # are those a fresh pass computes on the reduced rows, so the enumeration
    # reads them and makes no second pass
    rng = random.Random(71)
    for trial in range(120):
        n = rng.randint(1, 7)
        cols = n + rng.randint(0, 2)
        rows = _random_basis(rng, n, cols, 10 ** rng.choice((1, 3, 6)))
        gram = _random_gram(rng, cols) if trial % 2 else None
        try:
            reduced, lam, d = lll(rows, gram)
        except DependentRows:
            continue
        fresh_lam, fresh_d = lattice._gs_data(reduced, gram)
        assert d == fresh_d
        assert all(lam[k][:k] == fresh_lam[k][:k] for k in range(n))

    def no_second_pass(rows, gram):
        raise AssertionError("short_vectors recomputed Gram-Schmidt data")

    monkeypatch.setattr(lattice, "_gs_data", no_second_pass)
    assert short_vectors([[1, 0], [0, 1]], 1) == [((0, 1), 1), ((1, 0), 1)]


def test_gs_norms_are_ratios_of_gram_minors():
    # ||b_i*||^2 = d_i / d_{i-1}, d_i the leading i x i minor of the Gram matrix
    rng = random.Random(67)
    for trial in range(30):
        n = rng.randint(1, 6)
        cols = n + rng.randint(0, 2)
        rows = _random_basis(rng, n, cols, 10 ** rng.choice((1, 4, 9)))
        if bareiss_det([[sum(x * y for x, y in zip(u, v)) for v in rows] for u in rows]) == 0:
            continue
        gram = _random_gram(rng, cols) if trial % 2 else None
        g = [[lattice._dot(u, v, gram) for v in rows] for u in rows]
        norms = gs_norms(rows, gram)
        minor = Fraction(1)
        for i, norm in enumerate(norms, start=1):
            minor *= norm
            assert minor == bareiss_det([row[:i] for row in g[:i]])


# ---------------------------------------------------------------------------
# short vectors

def test_short_vectors_z2():
    got = [v for v, _ in short_vectors([[1, 0], [0, 1]], 1)]
    assert got == [(0, 1), (1, 0)]


def test_short_vectors_scaled_empty():
    assert short_vectors([[3, 0], [0, 3]], 8) == []


def _coefficient_box(gram, norm_bound):
    # c^T Q c <= r forces |c_i| <= sqrt(r (Q^-1)_ii), for Q positive definite
    n = len(gram)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(gram)]
    for col in range(n):
        piv = next(i for i in range(col, n) if aug[i][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    return [math.isqrt(math.floor(norm_bound * aug[i][n + i])) + 1 for i in range(n)]


def _form(gram, v):
    return sum(v[i] * gram[i][j] * v[j] for i in range(len(v)) for j in range(len(v)))


def _in_row_span(echelon_rows, v):
    # back substitution against an integer echelon (HNF) basis
    v = list(v)
    for row in echelon_rows:
        piv = next(j for j, c in enumerate(row) if c)
        if v[piv] % row[piv]:
            return False
        q = v[piv] // row[piv]
        v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


def _box_oracle(gram, bound):
    """Coefficient vectors x != 0 with x^T G x <= bound, up to sign, by brute force."""
    import itertools

    box = _coefficient_box(gram, bound)
    found = {}
    for c in itertools.product(*(range(-b, b + 1) for b in box)):
        if any(c):
            value = _form(gram, c)
            if value <= bound:
                found[_canonical_sign(c)] = Fraction(value)
    return found


def test_short_vectors_complete_vs_box_oracle():
    # integer bases under the dot product
    rng = random.Random(41)
    done = 0
    while done < 5:
        rows = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
        if bareiss_det(rows) == 0:
            continue
        done += 1
        got = {v for v, _ in short_vectors(rows, 30)}
        coeff_gram = [[sum(a * b for a, b in zip(u, w)) for w in rows] for u in rows]
        brute = {_canonical_sign(tuple(sum(ci * r[k] for ci, r in zip(c, rows))
                                       for k in range(3)))
                 for c in _box_oracle(coeff_gram, 30)}
        assert got == brute

    # ideal lattices under the trace form: ambient brute force filtered by
    # membership in the HNF of the triangular basis; each bound is a norm the
    # lattice attains
    from pweil.cyclo import CycloField
    from pweil.splitting import split_prime
    from pweil.weilgroup import ideal_basis, trace_gram

    for n, p, power in ((5, 11, 1), (5, 11, 2), (8, 5, 1), (12, 13, 1), (12, 37, 1)):
        field = CycloField(n)
        gram = trace_gram(field)
        basis = ideal_basis(split_prime(field, p).primes[0], power)
        echelon = row_hnf(basis)[0]
        lattice_norms = sorted({nsq for _, nsq in short_vectors(basis, 100, gram=gram)})
        assert len(lattice_norms) >= 3
        for bound in lattice_norms[:3]:
            got = short_vectors(basis, bound, gram=gram)
            expected = {v: nsq for v, nsq in _box_oracle(gram, bound).items()
                        if _in_row_span(echelon, v)}
            assert dict(got) == expected
            assert any(nsq == bound for _, nsq in got)

    # diagonally dominant rational Grams, so that the Gram-Schmidt data have
    # nontrivial denominators, on an identity basis with the Gram and the
    # bound scaled by the lcm L of the Gram denominators; a half-integer
    # bound and an attained one
    rng = random.Random(43)
    for dim in (2, 3, 3, 4, 4):
        gram = [[Fraction(0)] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i):
                gram[i][j] = gram[j][i] = Fraction(rng.randint(-3, 3), rng.choice((2, 3, 5, 7)))
        for i in range(dim):
            slack = Fraction(rng.randint(1, 9), rng.choice((2, 3, 4)))
            gram[i][i] = sum(abs(x) for x in gram[i]) + slack
        L = math.lcm(*(x.denominator for row in gram for x in row))
        int_gram = [[int(L * x) for x in row] for row in gram]
        identity = [[int(i == j) for j in range(dim)] for i in range(dim)]
        attained = max(_box_oracle(gram, Fraction(10)).values())
        for bound in (Fraction(2 * rng.randint(6, 16) + 1, 2), attained):
            got = [(v, nsq / L) for v, nsq in short_vectors(identity, L * bound, gram=int_gram)]
            assert dict(got) == _box_oracle(gram, bound)
            assert all(nsq == _form(gram, v) for v, nsq in got)
        assert any(nsq == attained for _, nsq in got)


def test_short_vectors_match_cholesky_oracle(grid, monkeypatch):
    # every search find_generator makes on the acceptance grid, then random
    # lattices with and without a Gram matrix and with fractional bounds:
    # the same list as the rational-Cholesky enumeration, and
    # EnumerationBudgetExceeded exactly when the budget is below its node count
    searches = []

    def recording(basis, bound, gram=None, node_budget=5_000_000):
        searches.append((basis, bound, gram))
        return short_vectors(basis, bound, gram, node_budget)

    monkeypatch.setattr(weilgroup, "short_vectors", recording)
    for field, split, basis in grid[0].values():
        if basis is not None:
            for h in range(1, basis.h + 1):
                weilgroup.find_generator(split.primes[split.S[0]], h)
    monkeypatch.undo()
    assert len(searches) >= 128

    rng = random.Random(71)
    while len(searches) < 128 + 200:
        n = rng.randint(1, 6)
        cols = n + rng.randint(0, 2)
        rows = _random_basis(rng, n, cols, 9)
        gram = _random_gram(rng, cols) if len(searches) % 2 else None
        try:
            shortest = min(gs_norms(rows, gram))
        except DependentRows:
            continue
        bound = rng.randint(1, 8) * shortest / rng.choice((1, 2, 3)) \
            + Fraction(rng.randint(0, 5), rng.choice((1, 2, 7)))
        searches.append((rows, bound, gram))

    for basis, bound, gram in searches:
        expected, nodes = cholesky_short_vectors(basis, bound, gram)
        assert short_vectors(basis, bound, gram, node_budget=nodes) == expected
        with pytest.raises(EnumerationBudgetExceeded):
            short_vectors(basis, bound, gram, node_budget=nodes - 1)


def test_short_vectors_budget():
    with pytest.raises(EnumerationBudgetExceeded):
        short_vectors([[1, 0], [0, 1]], 10 ** 8, node_budget=100)


# ---------------------------------------------------------------------------
# relation detection

# A relation among plain reals is one whose modulus coefficient is 0, so the
# single-coordinate cases search modulo pi and check that k = 0.

def _mod_pi(values, bound, precision=None):
    prec = max(v.prec for v in values)
    return find_simultaneous_relation([[v] for v in values], BallReal.pi(prec), bound, precision)


def test_relation_trivial_integs():
    cert = _mod_pi([BallReal.from_int(1, 256), BallReal.from_int(2, 256)], 10)
    assert cert.status == "found"
    assert cert.relation == (2, -1, 0)


def test_relation_sqrt2_none():
    # oracle: continued fraction of sqrt(2) has no huge convergent jumps, so
    # no relation c1 + c2 sqrt2 = 0 with |c| <= 1e6 exists (nor one modulo
    # pi, which is transcendental); certified search
    vals = [BallReal.from_int(1, 256), BallReal.from_int(2, 256).sqrt()]
    cert = _mod_pi(vals, 10 ** 6)
    assert cert.status == "none-up-to-bound"
    assert Fraction(cert.sv_lower_bound_sq) > Fraction(cert.threshold_sq)


def test_relation_logs():
    prec = 256
    vals = [BallReal.from_int(2, prec).log(), BallReal.from_int(3, prec).log(),
            BallReal.from_int(6, prec).log()]
    cert = _mod_pi(vals, 100)
    assert cert.status == "found"
    assert cert.relation == (1, 1, -1, 0)


def test_relation_precondition():
    wide = BallReal.from_endpoints(Fraction(0), Fraction(1, 7), 64)
    with pytest.raises(PrecisionTooLow):
        _mod_pi([wide, wide], 10, precision=256)


def _outcome(search, vectors, modulus, bound, precision):
    # the certificate, or the message of an inconclusive search
    try:
        return search(vectors, modulus, bound, precision)
    except PrecisionTooLow as exc:
        return "PrecisionTooLow: %s" % exc


def test_relation_precondition_boundary_matches_fraction_oracle():
    # 2^scale r = 1/2 exactly is rejected, one grid step below it is not;
    # the int endpoints and the Fraction oracle agree on both sides
    for precision in (64, 256, 1024):
        scale = precision // 2
        pi = BallReal.pi(precision + 32)
        for e, r in ((scale + 1, 1), (scale + 61, 2 ** 60), (scale + 61, 2 ** 60 - 1)):
            mid = (7 << e) // 5  # about 1.4 on the grid 2^-e
            ball = BallReal.from_scaled_ints(mid - r, mid + r, e, precision)
            got = _outcome(find_simultaneous_relation, [[ball]], pi, 10, precision)
            assert got == _outcome(fraction_relation, [[ball]], pi, 10, precision)
            assert isinstance(got, str) == (r << (scale + 1) >= 1 << e), (precision, e, r)


def _random_ball(rng, precision):
    # exact zeros, exact ints, and balls on grids 2^-e of mixed e (from_man_exp
    # also strips trailing zero bits) with radii below 2^-(precision/2 + 2)
    kind = rng.randrange(4)
    if kind == 0:
        return BallReal.zero(precision)
    if kind == 1:
        return BallReal.from_int(rng.randint(-9, 9), precision)
    e = rng.randint(precision // 2 + 8, precision + 200)
    mid = rng.randint(-10 << e, 10 << e) >> rng.randint(0, 40) << rng.randint(0, 40)
    r = rng.choice((0, rng.randint(0, 1 << (e - precision // 2 - 3))))
    return BallReal.from_scaled_ints(mid - r, mid + r, e, precision)


def test_relation_search_matches_fraction_oracle_on_random_balls():
    rng = random.Random(79)
    statuses = set()
    for trial in range(60):
        precision = (64, 128, 256, 512)[trial % 4]
        m, d = rng.randint(1, 4), rng.randint(1, 3)
        vectors = [[_random_ball(rng, precision) for _ in range(d)] for _ in range(m)]
        modulus = BallReal.pi(precision + 32) * rng.choice((1, 2))
        if trial % 3 == 0:  # a planted twin
            c, k = [rng.randint(-5, 5) for _ in range(m)], [rng.randint(-3, 3) for _ in range(d)]
            vectors.append([modulus * k[v] + sum((vec[v] * ci for ci, vec in zip(c, vectors)),
                                                 BallReal.zero(precision)) for v in range(d)])
        for bound in (10, 10 ** 6):
            got = _outcome(find_simultaneous_relation, vectors, modulus, bound, precision)
            assert got == _outcome(fraction_relation, vectors, modulus, bound, precision), trial
            statuses.add(got if isinstance(got, str) else got.status)
    assert {"found", "none-up-to-bound"} <= statuses


def _exp_ball(k, prec):
    # mpmath's enclosure of e^k, so the planted values stay transcendental
    lo, hi = libmpi.mpi_exp((from_int(k), from_int(k)), prec)
    return BallReal.from_endpoints(Fraction(*to_rational(lo)), Fraction(*to_rational(hi)), prec)


def test_relation_planted_completeness():
    rng = random.Random(53)
    for trial in range(25):
        m = rng.randint(3, 5)
        vals = [
            BallReal.pi(320) * Fraction(rng.randint(1, 40), rng.randint(1, 9))
            + _exp_ball(rng.randint(-3, 3), 320)
            for _ in range(m - 1)
        ]
        coeffs = [rng.randint(-9, 9) for _ in range(m - 1)]
        last = BallReal.zero(320)
        for c, v in zip(coeffs, vals):
            last = last + v * c
        vals.append(last)
        cert = _mod_pi(vals, 1000)
        assert cert.status == "found", "missed planted relation in trial %d" % trial
        *c, k = cert.relation
        pi = BallReal.pi(320)
        mid = sum(ci * vi.midpoint for ci, vi in zip(c, vals)) + k * pi.midpoint
        err = sum(abs(ci) * vi.radius for ci, vi in zip(c, vals)) + abs(k) * pi.radius
        assert abs(mid) <= err


def test_simultaneous_trivial_case():
    pi = BallReal.pi(256)
    cert = find_simultaneous_relation([[pi * Fraction(1, 2), pi * Fraction(1, 3)]], pi, 100)
    assert cert.status == "found"
    # 6 a1 = pi (3, 2): relation (6 | -3, -2)
    assert cert.relation == (6, -3, -2)


def test_simultaneous_sqrt2_none():
    pi = BallReal.pi(256)
    s2 = BallReal.from_int(2, 256).sqrt()
    cert = find_simultaneous_relation([[pi * s2, BallReal.zero(256)]], pi, 10 ** 4)
    assert cert.status == "none-up-to-bound"


def test_simultaneous_duplicate_found():
    pi = BallReal.pi(256)
    s2 = BallReal.from_int(2, 256).sqrt()
    vec = [pi * s2, pi * s2 * Fraction(1, 3)]
    cert = find_simultaneous_relation([vec, vec], pi, 10 ** 4)
    assert cert.status == "found"
    assert cert.relation[:2] in ((1, -1), (-1, 1))
    assert cert.relation[2:] == (0, 0)


def _schedule(precision):
    # the scales s of the search lattices: the probe 2^4, then 2^32, 2^64, ...
    # up to 2^(precision/2)
    scale = precision // 2
    out = [min(4, scale)]
    while out[-1] < scale:
        out.append(min(max(32, 2 * out[-1]), scale))
    return out


def _scaled_rows(vectors, modulus, s):
    # the one-shot search lattice [e_i | round(2^s t_i)]
    m, d = len(vectors), len(vectors[0])
    rows = []
    for i, vec in enumerate(vectors):
        row = [0] * (m + d) + [round_fraction(x.midpoint * 2 ** s) for x in vec]
        row[i] = 1
        rows.append(row)
    for v in range(d):
        row = [0] * (2 * d + m)
        row[m + v] = 1
        row[m + d + v] = round_fraction(modulus.midpoint * 2 ** s)
        rows.append(row)
    return rows


def _threshold_sq(vectors, modulus, bound, s):
    # squared norm bound of a true relation's vector in the lattice at scale 2^s
    m, d = len(vectors), len(vectors[0])
    r_max = max([x.radius for vec in vectors for x in vec] + [modulus.radius])
    t = (m + 1) * bound * (Fraction(1, 2) + 2 ** s * r_max)
    return (m + d) * bound ** 2 + d * t * t


def _reductions(monkeypatch, vectors, modulus, bound, precision):
    # the certificate (None when inconclusive) and every reduced basis, in order
    calls = []

    core = lattice.lll

    def recording_lll(rows, *args, **kwargs):
        out = core(rows, *args, **kwargs)
        calls.append(out[0])
        return out

    monkeypatch.setattr(lattice, "lll", recording_lll)
    try:
        cert = find_simultaneous_relation(vectors, modulus, bound, precision)
    except PrecisionTooLow:
        cert = None
    finally:
        monkeypatch.undo()
    return cert, calls


def test_progressive_reduction_spans_the_lattice_at_the_settling_scale(monkeypatch):
    # the search stops at the first scale 2^s that settles it; its last
    # reduction is a basis of exactly the one-shot lattice at 2^s, the
    # certificate bound is that basis's minimum Gram-Schmidt norm, and no
    # earlier scale could certify
    rng = random.Random(71)
    cases = []
    for precision in (64, 130, 256, 512):
        m, d = rng.randint(1, 4), rng.randint(1, 3)
        vectors = [[BallReal.from_int(rng.randint(2, 10 ** 6), precision).sqrt()
                    * Fraction(rng.randint(-50, 50), rng.randint(1, 50)) for _ in range(d)]
                   for _ in range(m)]
        cases += [(vectors, precision, bound) for bound in (10, 10 ** 9, 10 ** 15, 10 ** 30)]

    from pweil.cyclo import CycloField
    from pweil.splitting import split_prime
    from pweil.weilgroup import build_weil_basis

    basis = build_weil_basis(split_prime(CycloField(13), 79))
    args_13_79 = [arg_vector(basis.xi[idx], 256).values for idx in basis.split.S]
    first_13_79 = len(cases)
    cases += [(args_13_79, 256, bound) for bound in (10, 10 ** 9)]
    cases.append((args_13_79 + [args_13_79[0]], 256, 10))  # a planted twin

    settled = set()
    at_13_79 = []
    for i, (vectors, precision, bound) in enumerate(cases):
        two_pi = BallReal.pi(precision + 32) * 2
        cert, calls = _reductions(monkeypatch, vectors, two_pi, bound, precision)
        schedule = _schedule(precision)
        s = schedule[-1] if cert is None else cert.scale_log2
        assert len(calls) == schedule.index(s) + 1
        assert row_hnf(calls[-1]) == row_hnf(_scaled_rows(vectors, two_pi, s))
        for earlier, s_earlier in zip(calls[:-1], schedule):
            assert min(gs_norms(earlier)) <= _threshold_sq(vectors, two_pi, bound, s_earlier)
        if cert is None:
            continue
        threshold_sq = _threshold_sq(vectors, two_pi, bound, s)
        assert Fraction(cert.threshold_sq) == threshold_sq
        if cert.status == "none-up-to-bound":
            assert Fraction(cert.sv_lower_bound_sq) == min(gs_norms(calls[-1])) > threshold_sq
        else:
            k_dim = len(vectors) + len(vectors[0])
            assert cert.relation in {_canonical_sign(tuple(row[:k_dim])) for row in calls[-1]}
        settled.add((cert.status, schedule.index(s) + 1, s == schedule[-1]))
        if i >= first_13_79:
            at_13_79.append((cert.status, s))
    # settled at each of the first five scales, and at the full one
    assert {pos for _, pos, _ in settled} == {1, 2, 3, 4, 5}
    assert ("none-up-to-bound", 5, True) in settled  # 2^4, ..., 2^256 at 512 bits
    assert ("found", 1, False) in settled
    # (13,79) at 10 and 10^9, and with its planted twin
    assert at_13_79 == [("none-up-to-bound", 32), ("none-up-to-bound", 64), ("found", 4)]


def test_relation_search_reads_the_gram_schmidt_norms_lll_leaves(monkeypatch):
    # no second Gram-Schmidt pass: the search reads the d_i that lll returns,
    # and its bound is min d_{i+1} / d_i
    def unused(*args, **kwargs):
        raise AssertionError("second pass")

    pi = BallReal.pi(256)
    s2 = BallReal.from_int(2, 256).sqrt()
    with monkeypatch.context() as mp:
        mp.setattr(lattice, "gs_norms", unused)
        mp.setattr(lattice, "_gs_data", unused)
        none = find_simultaneous_relation([[pi * s2, pi / 3]], pi, 10 ** 4)
        found = find_simultaneous_relation([[pi * s2], [pi * s2 * 3]], pi, 10 ** 4)
    assert none.status == "none-up-to-bound" and found.status == "found"
    assert Fraction(none.sv_lower_bound_sq) > Fraction(none.threshold_sq)


def _encloses_relation(vectors, modulus, relation):
    # ball arithmetic: every coordinate of sum_i c_i a_i + k modulus contains 0
    m = len(vectors)
    c, k = relation[:m], relation[m:]
    for v, kv in enumerate(k):
        total = modulus * kv
        for ci, vec in zip(c, vectors):
            total = total + vec[v] * ci
        if not total.contains_zero():
            return False
    return True


@pytest.mark.parametrize("bound", [10 ** 4, 10 ** 9])
def test_relation_search_matches_full_scale_oracle_on_the_grid(grid, bound):
    # the 128 acceptance-grid cells with T nonempty at 256 bits, alone and
    # with a planted twin v_0 + 2 pi k: the status of the search that always
    # reduces up to the full scale, every found relation enclosed, and the
    # oracle's certificate whenever the search reaches the full scale
    points, _ = grid
    two_pi = BallReal.pi(256 + 32) * 2
    rng = random.Random(bound)
    cells = full = 0
    for (n, p), (field, split, basis) in sorted(points.items()):
        if basis is None:
            continue
        vectors = [arg_vector(basis.xi[idx], 256).values for idx in split.S]
        twin = [x + two_pi * rng.randint(-3, 3) for x in vectors[0]]
        for vecs in (vectors, vectors + [twin]):
            cert = find_simultaneous_relation(vecs, two_pi, bound, 256)
            oracle = full_scale_relation(vecs, two_pi, bound, 256)
            assert cert.status == oracle.status, (n, p)
            if cert.status == "found":
                assert cert.relation[len(vectors)] != 0
                assert _encloses_relation(vecs, two_pi, cert.relation), (n, p)
            if cert.scale_log2 == 128:
                assert cert == oracle, (n, p)
                full += 1
        cells += 1
    assert cells == 128
    # at 10^9 five cells settle only at 2^128: (11,67), (12,43), (12,61),
    # (15,43) and (16,17), each without its twin
    assert full == (0 if bound == 10 ** 4 else 5)


@pytest.mark.parametrize("precision", [256, 1024])
def test_relation_search_matches_fraction_oracle_on_the_grid(grid, precision):
    # every certificate field on the int endpoints equals the Fraction
    # oracle's: the 128 grid cells with T nonempty, alone and with a planted
    # twin v_0 + 2 pi k
    points, _ = grid
    two_pi = BallReal.pi(precision + 32) * 2
    rng = random.Random(precision)
    cells = found = 0
    for (n, p), (field, split, basis) in sorted(points.items()):
        if basis is None:
            continue
        vectors = [arg_vector(basis.xi[idx], precision).values for idx in split.S]
        twin = [x + two_pi * rng.randint(-3, 3) for x in vectors[0]]
        for vecs in (vectors, vectors + [twin]):
            cert = find_simultaneous_relation(vecs, two_pi, 10 ** 4, precision)
            assert cert == fraction_relation(vecs, two_pi, 10 ** 4, precision), (n, p)
            found += cert.status == "found"
        cells += 1
    assert cells == found == 128


def _certify_inputs():
    # the seeded cells and planted twins of the benchmark's certify workload
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "inputs.py")
    spec = importlib.util.spec_from_file_location("_certify_inputs", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # for the dataclasses it defines
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_certify_planted_twins_are_found_at_the_probe_scale(grid):
    # the planted twins of certify seeds 0-9 at 1,024 bits (a basis argument
    # vector shifted by 2 pi k, or scaled by q/s) give a relation that uses
    # the twin, enclosed by the full-precision balls.  The probe 2^4 finds
    # every shifted twin and 28 of the 30 twins; the other two are twins
    # scaled by 11/2 and 10/11, found at 2^32
    inputs = _certify_inputs()
    points, _ = grid
    precision = 1024
    two_pi = BallReal.pi(precision + 32) * 2
    args = {}
    at_scale = {lattice.PROBE_LOG2: 0, 32: 0}
    for seed in range(10):
        for cell in inputs.certify_cells(seed):
            if (cell.n, cell.p) not in args:
                basis = points[(cell.n, cell.p)][2]
                args[(cell.n, cell.p)] = [arg_vector(basis.xi[idx], precision).values
                                          for idx in basis.split.S]
            values = args[(cell.n, cell.p)]
            twin = cell.planted
            base = values[twin.index]
            if twin.kind == "shift":
                vector = [x + two_pi * k for x, k in zip(base, twin.shifts)]
            else:
                vector = [x * Fraction(twin.q, twin.s) for x in base]
            cert = find_simultaneous_relation(values + [vector], two_pi, 10 ** 4, precision)
            assert cert.status == "found" and cert.relation[len(values)] != 0, (seed, cell)
            assert _encloses_relation(values + [vector], two_pi, cert.relation), (seed, cell)
            assert cert.scale_log2 in at_scale, (seed, cell)
            if twin.kind == "shift":
                assert cert.scale_log2 == lattice.PROBE_LOG2, (seed, cell)
            at_scale[cert.scale_log2] += 1
    assert at_scale == {lattice.PROBE_LOG2: 28, 32: 2}


def test_simultaneous_planted_relations_always_found():
    # (log p_j, log q_j) for distinct primes have no relation modulo 2 pi;
    # the planted twin sum_j c_j a_j + 2 pi k is the only one, so the found
    # relation is the planted one up to sign
    rng = random.Random(73)
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    for trial in range(30):
        precision = (128, 256, 512)[trial % 3]
        m, d = rng.randint(1, 4), rng.randint(1, 3)
        chosen = rng.sample(primes, m * d)
        vectors = [[BallReal.from_int(chosen[i * d + v], precision).log() for v in range(d)]
                   for i in range(m)]
        two_pi = BallReal.pi(precision + 32) * 2
        c = [rng.randint(-9, 9) for _ in range(m)]
        k = [rng.randint(-3, 3) for _ in range(d)]
        twin = [two_pi * k[v] + sum((vec[v] * ci for ci, vec in zip(c, vectors)),
                                    BallReal.zero(precision)) for v in range(d)]
        cert = find_simultaneous_relation(vectors + [twin], two_pi, 1000, precision)
        assert cert.status == "found", "missed planted relation in trial %d" % trial
        assert cert.relation == _canonical_sign(tuple(c) + (-1,) + tuple(k))
