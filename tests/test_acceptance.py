"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The grid is n in {5, 7, 8, 11, 12, 13, 15, 16, 20}, primes p < 100 with
p not dividing n; points with T nonempty get a full basis build (the
``grid`` fixture in conftest.py, shared with the relation-search tests).
"""

import json
import random
import time
from fractions import Fraction
from math import gcd

from pweil.arith import BallReal
from pweil.cli import main as cli_main
from pweil.cyclo import CycloField, is_root_of_unity, norm
from pweil.lattice import find_simultaneous_relation
from pweil.splitting import ord_at, split_prime
from pweil.weilgroup import (
    alpha_p_map,
    build_weil_basis,
    jacobi_weil_number,
    minus_basis,
    pi_m_map,
)
from pweil.regulators import (
    arg_vector,
    argument_independence_certificate,
    closure_dimension,
    epsilon_vector,
    find_abelian_generator,
    gross_matrix,
    gross_row,
    group_determinant,
    weil_angle_identity,
)


def _announce(num: int, name: str, ok: bool, detail: str = ""):
    line = "ACCEPTANCE %d (%s): %s" % (num, name, "PASS" if ok else "FAIL")
    if detail:
        line += " -- " + detail
    print(line)
    assert ok, line


def test_criterion_1_worked_example(capsys):
    t0 = time.monotonic()
    code = cli_main(["analyze", "--n", "5", "--p", "11", "--format", "json",
                     "--precision", "256", "--bound", "10000"])
    out = capsys.readouterr().out
    elapsed = time.monotonic() - t0
    rep = json.loads(out)
    ok = code == 0
    ok &= rep["split"]["g"] == 4
    ok &= len(rep["split"]["T"]) == 4
    ok &= len(rep["split"]["S"]) == 2
    ok &= rep["weil_basis"]["M"] == 1
    ok &= rep["weil_basis"]["rank"] == 2

    # generator of the prime containing 1 + 2 zeta: associate verified via
    # the valuation profile and norm = 11
    field = CycloField(5)
    sp = split_prime(field, 11)
    basis = build_weil_basis(sp)
    r5 = next(i for i, pr in enumerate(sp.primes) if pr.root_mod_p() == 5)
    x = basis.x[r5]
    expected_gen = 1 + 2 * field.zeta()
    ok &= abs(norm(x)) == 11
    ok &= all(ord_at(pr, x) == ord_at(pr, expected_gen) for pr in sp.primes)
    ratio = x / expected_gen
    ok &= abs(norm(ratio)) == 1 and all(ord_at(pr, ratio) == 0 for pr in sp.primes)
    ok &= elapsed < 5.0
    with capsys.disabled():
        _announce(1, "worked example n=5 p=11", ok,
                  "M=1 rank=2 |T|=4 |S|=2, generator ~ 1+2*zeta, %.2fs" % elapsed)


def test_criterion_2_exact_identity_suite(grid, capsys):
    points, build_elapsed = grid
    t0 = time.monotonic()
    rng = random.Random(20260810)
    failures = []
    n_points = 0
    for (n, p), (field, sp, basis) in sorted(points.items()):
        if basis is None or not sp.T:
            continue
        n_points += 1
        for vec in minus_basis(sp):
            img = alpha_p_map(pi_m_map(vec, basis), sp)
            if img.coeffs != tuple(-basis.M * c for c in vec.coeffs):
                failures.append((n, p, "alpha o pi"))
        for _ in range(5):
            x = field.zeta(rng.randrange(field.n))
            if rng.random() < 0.5:
                x = -x
            for idx in sp.S:
                x = x * basis.xi[idx] ** rng.randint(-2, 2)
            y = (x ** basis.M) * pi_m_map(alpha_p_map(x, sp), basis)
            if is_root_of_unity(y) is None:
                failures.append((n, p, "pi o alpha torsion"))
    check_elapsed = time.monotonic() - t0
    total = build_elapsed + check_elapsed
    ok = not failures and total < 600.0
    with capsys.disabled():
        _announce(2, "exact identity suite", ok,
                  "%d grid points with T != 0, build %.1fs + checks %.1fs"
                  % (n_points, build_elapsed, check_elapsed)
                  + ("" if not failures else " failures: %r" % failures[:5]))


def test_criterion_3_rank_formula(grid, capsys):
    points, _ = grid

    def coset_rank_oracle(n: int, p: int) -> int:
        # independent combinatorics: cosets X of <p> in (Z/n)* with -X != X
        subgroup = set()
        x = 1
        while True:
            subgroup.add(x)
            x = (x * p) % n
            if x == 1:
                break
        units = [a for a in range(1, n) if gcd(a, n) == 1]
        cosets = set()
        for a in units:
            cosets.add(frozenset((a * s) % n for s in subgroup))
        moved = [c for c in cosets if frozenset((-b) % n for b in c) != c]
        assert len(moved) % 2 == 0
        return len(moved) // 2

    bad = []
    for (n, p), (field, sp, basis) in sorted(points.items()):
        expected = coset_rank_oracle(n, p)
        rank = len(sp.S) if basis is None else basis.rank
        if rank != expected or 2 * len(sp.S) != len(sp.T):
            bad.append((n, p, rank, expected))
    ok = not bad
    with capsys.disabled():
        _announce(3, "rank = |T|/2 vs coset oracle", ok,
                  "%d points checked" % len(points) + ("" if ok else " bad: %r" % bad[:5]))


def test_criterion_4_closure_dimension(grid, capsys):
    points, _ = grid
    bad = []
    for (n, p), (field, sp, basis) in sorted(points.items()):
        rep = closure_dimension(sp)
        if p % n == 1 and rep.dimension != field.degree // 2:
            bad.append((n, p, "split not dense", rep.dimension))
        if not sp.T and rep.dimension != 0:
            bad.append((n, p, "empty T dimension", rep.dimension))
        for i in sp.S:
            for j in sp.S:
                e = epsilon_vector(sp, i, j)
                cj = sp.conj_index(j)
                ci = sp.conj_index(i)
                if tuple(-x for x in e) != epsilon_vector(sp, i, cj):
                    bad.append((n, p, "eps relation -conj right"))
                if e != epsilon_vector(sp, ci, cj):
                    bad.append((n, p, "eps relation conj both"))
    ok = not bad
    with capsys.disabled():
        _announce(4, "closure dimension and eps relations", ok,
                  "" if ok else repr(bad[:5]))


def test_criterion_5_rank_one_conjecture_exact(grid, capsys):
    points, _ = grid
    checked = 0
    bad = []
    for (n, p), (field, sp, basis) in sorted(points.items()):
        if basis is None or len(sp.S) != 1:
            continue
        checked += 1
        xi = basis.xi[sp.S[0]]
        if is_root_of_unity(xi) is not None:
            bad.append((n, p))
    ok = checked > 0 and not bad
    with capsys.disabled():
        _announce(5, "|S|=1 resolved exactly (xi never torsion)", ok,
                  "%d rank-one points" % checked + ("" if not bad else " bad: %r" % bad))


def test_criterion_6_group_determinant(grid, capsys):
    points, _ = grid
    checked = 0
    bad = []
    for (n, p), (field, sp, basis) in sorted(points.items()):
        if basis is None or not sp.S:
            continue
        aut = find_abelian_generator(basis)
        if aut is None:
            continue
        checked += 1
        rep = group_determinant(basis, aut, 256)
        if not rep.nonzero:
            rep = group_determinant(basis, aut, 512)
        if not rep.nonzero:
            bad.append((n, p, "zero not excluded at 512 bits"))
        if not rep.delta.overlaps(rep.delta_factored):
            bad.append((n, p, "factorization mismatch"))
    ok = checked > 0 and not bad
    with capsys.disabled():
        _announce(6, "group determinant nonzero with factorization overlap", ok,
                  "%d points with a validated cyclic complement" % checked
                  + ("" if not bad else " bad: %r" % bad[:5]))


def test_criterion_7_angle_identity(capsys):
    field = CycloField(5)
    sp = split_prime(field, 11)
    basis = build_weil_basis(sp)
    bad = []
    rationals = []
    for a, b in ((1, 1), (1, 2), (2, 2)):
        lam = jacobi_weil_number(11, 5, a, b)
        rep = weil_angle_identity(lam, sp, basis, den_bound=60, precision=512)
        rationals.append(str(rep.rational))
        if rep.rational is None or rep.rational.denominator > 60:
            bad.append((a, b, "reconstruction"))
        if not rep.forms_overlap:
            bad.append((a, b, "T/S forms"))
    ok = not bad
    with capsys.disabled():
        _announce(7, "angle-valuation identity for 3 Jacobi sums", ok,
                  "rationals: %s" % ", ".join(rationals))


def test_criterion_8_gross_matrix(capsys):
    field = CycloField(5)
    sp = split_prime(field, 11)
    basis = build_weil_basis(sp)
    K = 50
    gm = gross_matrix(basis, sp, K)
    ok = gm.heuristic_rank == len(sp.S) == 2
    ok &= gm.row_sum_min_valuation >= K - 5
    torsion_rows = [gross_row(field.zeta(), sp, K)[0], gross_row(-field.one(), sp, K)[0]]
    ok &= all(e == 0 for row in torsion_rows for e in row)
    with capsys.disabled():
        _announce(8, "p-adic regulator matrix", ok,
                  "rank %d, row sums vanish to %d of %d digits"
                  % (gm.heuristic_rank, gm.row_sum_min_valuation, gm.precision))


def test_criterion_9_independence_certificate(capsys):
    field = CycloField(5)
    sp = split_prime(field, 11)
    basis = build_weil_basis(sp)
    rep = argument_independence_certificate(basis, bound=10_000, precision=512)
    ok = rep.certificate.status == "none-up-to-bound"
    rng = random.Random(99)
    stable = 0
    for _ in range(10):
        offsets = [[rng.randint(-5, 5) for _ in field.places] for _ in sp.S]
        pert = argument_independence_certificate(
            basis, bound=10_000, precision=512, offsets=offsets)
        if pert.certificate.status == "none-up-to-bound":
            stable += 1
    ok &= stable == 10
    with capsys.disabled():
        _announce(9, "bounded-relation certificate at B=10^4, 512 bits", ok,
                  "stable under %d/10 random 2pi-offset perturbations" % stable)


def test_criterion_10_falsification_harness(capsys):
    field = CycloField(5)
    sp = split_prime(field, 11)
    basis = build_weil_basis(sp)
    av = [arg_vector(basis.xi[idx], 320) for idx in sp.S]
    base_vecs = [a.values for a in av]
    two_pi = BallReal.pi(352) * 2
    rng = random.Random(123)
    found = 0
    total = 100
    for trial in range(total):
        kind = trial % 2
        if kind == 0:
            # duplicate (possibly offset by 2 pi multiples)
            v = list(base_vecs[rng.randrange(len(base_vecs))])
            dup = [x + two_pi * rng.randint(-3, 3) for x in v]
            vectors = [tuple(v), tuple(dup)]
        else:
            # rational scaling q/s with small denominators
            q = rng.randint(1, 12)
            s = rng.randint(1, 12)
            v = base_vecs[rng.randrange(len(base_vecs))]
            scaled = [x * Fraction(q, s) for x in v]
            vectors = [tuple(v), tuple(scaled)]
        cert = find_simultaneous_relation(vectors, two_pi, 10_000, 320)
        if cert.status == "found":
            found += 1
    ok = found == total
    with capsys.disabled():
        _announce(10, "planted dependences detected", ok, "%d/%d" % (found, total))
