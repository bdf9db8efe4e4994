import random
from fractions import Fraction

import pytest

from pweil.arith import BallReal, PrecisionTooLow
from pweil.lattice import (
    BoundTooLarge,
    DependentRows,
    bareiss_det,
    find_relation,
    find_simultaneous_relation,
    gs_norms,
    hnf,
    kernel_basis_int,
    lll,
    rank_q,
    row_hnf,
    short_vectors,
    short_vectors_gram,
    _canonical_sign,
)


# ---------------------------------------------------------------------------
# HNF

def test_hnf_identity_fixed():
    L = hnf([(1, 0), (0, 1)])
    assert L.rows == ((1, 0), (0, 1))


def test_hnf_unimodular_is_identity():
    # {(1,0),(4,1)} spans all of Z^2
    L = hnf([(1, 0), (4, 1)])
    assert L.rows == ((1, 0), (0, 1))


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
    with pytest.raises(DependentRows) as err:
        hnf([(1, 2, 3), (2, 4, 6), (0, 0, 1)])
    assert err.value.rank == 2


def test_kernel_basis():
    # kernel of v . M = 0 for M with dependent rows
    M = [[1, 2], [2, 4], [0, 1]]
    ker = kernel_basis_int(M)
    assert len(ker) == 1
    v = ker[0]
    assert [v[0] * 1 + v[1] * 2 + v[2] * 0, v[0] * 2 + v[1] * 4 + v[2] * 1] == [0, 0]


def test_rank_q():
    assert rank_q([[1, 2], [2, 4]]) == 1
    assert rank_q([[1, 0], [0, 1]]) == 2
    assert rank_q([]) == 0


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
        red = lll(rows)
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
    red = lll(rows)
    B = gs_norms(red)
    # delta = 3/4 default; Lovasz condition on consecutive Gram-Schmidt norms
    # after size reduction implies B[k] >= (delta - 1/4) B[k-1] >= B[k-1]/2
    for k in range(1, 4):
        assert B[k] >= Fraction(1, 2) * B[k - 1] * Fraction(1, 2)


def test_lll_rejects_dependent():
    with pytest.raises(DependentRows):
        lll([[1, 2], [2, 4]])


# ---------------------------------------------------------------------------
# short vectors

def test_short_vectors_z2():
    got = [v for v, _ in short_vectors([[1, 0], [0, 1]], 1)]
    assert got == [(0, 1), (1, 0)]


def test_short_vectors_scaled_empty():
    assert short_vectors([[3, 0], [0, 3]], 8) == []


def _coefficient_box(gram, norm_bound):
    # c^T Q c <= r forces |c_i| <= sqrt(r (Q^-1)_ii), for Q positive definite
    import math

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
    # membership; each bound is a norm the lattice attains
    from pweil.cyclo import CycloField
    from pweil.splitting import split_prime
    from pweil.weilgroup import ideal_basis, trace_gram

    for n, p, power in ((5, 11, 1), (5, 11, 2), (8, 5, 1), (12, 13, 1), (12, 37, 1)):
        field = CycloField(n)
        gram = trace_gram(field)
        basis = ideal_basis(split_prime(field, p).primes[0], power)
        lattice_norms = sorted({nsq for _, nsq in short_vectors(basis, 100, gram=gram)})
        assert len(lattice_norms) >= 3
        for bound in lattice_norms[:3]:
            got = short_vectors(basis, bound, gram=gram)
            expected = {v: nsq for v, nsq in _box_oracle(gram, bound).items()
                        if _in_row_span(basis, v)}
            assert dict(got) == expected
            assert any(nsq == bound for _, nsq in got)

    # diagonally dominant rational Grams, so that the Cholesky entries have
    # nontrivial denominators; a half-integer bound and an attained one
    rng = random.Random(43)
    for dim in (2, 3, 3, 4, 4):
        gram = [[Fraction(0)] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i):
                gram[i][j] = gram[j][i] = Fraction(rng.randint(-3, 3), rng.choice((2, 3, 5, 7)))
        for i in range(dim):
            slack = Fraction(rng.randint(1, 9), rng.choice((2, 3, 4)))
            gram[i][i] = sum(abs(x) for x in gram[i]) + slack
        attained = max(_box_oracle(gram, Fraction(10)).values())
        for bound in (Fraction(2 * rng.randint(6, 16) + 1, 2), attained):
            got = short_vectors_gram(gram, bound)
            assert dict(got) == _box_oracle(gram, bound)
            assert all(nsq == _form(gram, v) for v, nsq in got)
        assert any(nsq == attained for _, nsq in got)


def test_short_vectors_budget():
    with pytest.raises(BoundTooLarge):
        short_vectors([[1, 0], [0, 1]], 10 ** 8, node_budget=100)


# ---------------------------------------------------------------------------
# relation detection

def test_relation_trivial_integs():
    cert = find_relation([BallReal.from_int(1, 256), BallReal.from_int(2, 256)], 10)
    assert cert.status == "found"
    assert cert.relation == (2, -1)


def test_relation_sqrt2_none():
    # oracle: continued fraction of sqrt(2) has no huge convergent jumps, so
    # no relation c1 + c2 sqrt2 = 0 with |c| <= 1e6 exists; certified search
    vals = [BallReal.from_int(1, 256), BallReal.from_int(2, 256).sqrt()]
    cert = find_relation(vals, 10 ** 6)
    assert cert.status == "none-up-to-bound"
    assert Fraction(cert.sv_lower_bound_sq) > Fraction(cert.threshold_sq)


def test_relation_logs():
    prec = 256
    vals = [BallReal.from_int(2, prec).log(), BallReal.from_int(3, prec).log(),
            BallReal.from_int(6, prec).log()]
    cert = find_relation(vals, 100)
    assert cert.status == "found"
    assert cert.relation == (1, 1, -1)


def test_relation_precondition():
    wide = BallReal.from_endpoints(Fraction(0), Fraction(1, 7), 64)
    with pytest.raises(PrecisionTooLow):
        find_relation([wide, wide], 10, precision=256)


def test_relation_planted_completeness():
    rng = random.Random(53)
    for trial in range(25):
        m = rng.randint(3, 5)
        vals = [
            BallReal.pi(320) * Fraction(rng.randint(1, 40), rng.randint(1, 9))
            + BallReal.from_int(rng.randint(-3, 3), 320).exp()
            for _ in range(m - 1)
        ]
        coeffs = [rng.randint(-9, 9) for _ in range(m - 1)]
        last = BallReal.zero(320)
        for c, v in zip(coeffs, vals):
            last = last + v * c
        vals.append(last)
        cert = find_relation(vals, 1000)
        assert cert.status == "found", "missed planted relation in trial %d" % trial
        mid = sum(ci * vi.midpoint for ci, vi in zip(cert.relation, vals))
        err = sum(abs(ci) * vi.radius for ci, vi in zip(cert.relation, vals))
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
