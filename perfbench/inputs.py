"""Seeded inputs for the three workloads.

The same seed always gives the same inputs.  Seed 0 reproduces the cells
named in ROADMAP.md.  Other seeds change which cells are drawn but not how
much work a run asks for: a draw is taken only among the sets whose
reference cost is close to that of the seed-0 set, so that run-to-run
spread measures the program and not the luck of the draw.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import gcd

GRID_N = (5, 7, 8, 11, 12, 13, 15, 16, 20)
GRID_P_MAX = 99

# Seconds per cell measured at the commit that added this benchmark
# (2 cores, Python 3.11.7, mpmath 1.3.0 with the python backend).  They only
# decide which draws count as "the same amount of work"; no metric uses them.
ANALYZE_REF_S = {
    (11, 23): 2.41, (11, 67): 3.35, (11, 89): 2.19, (13, 53): 3.20,
    (13, 79): 9.93, (15, 31): 2.85, (15, 61): 2.01, (16, 17): 1.49,
    (16, 97): 0.87, (20, 41): 1.42, (20, 61): 1.73,
}
# split_prime + build_weil_basis, the set-up of a certify cell.
CERTIFY_SETUP_REF_S = {
    (7, 29): 0.12, (7, 43): 0.17, (7, 71): 0.19,
    (15, 31): 2.69, (15, 61): 1.30, (16, 17): 0.68,
    (16, 97): 0.44, (20, 41): 1.03, (20, 61): 0.89,
}
ANALYZE_SEED0 = ((13, 79), (11, 67), (15, 31))
ANALYZE_BAND = 0.04
# One |T| = 6 cell and two |T| = 8 cells: the timed calls cost about the same
# for every cell of one |T|, so this keeps the timed work of every draw equal.
CERTIFY_SEED0 = ((7, 43), (15, 61), (16, 17))
CERTIFY_BAND = 0.15
CERTIFY_T6 = ((7, 29), (7, 43), (7, 71))
CERTIFY_T8 = ((15, 31), (15, 61), (16, 17), (16, 97), (20, 41), (20, 61))

RERUN_REMOVE_FRAC = 0.10
PLANTED_K_MAX = 3
PLANTED_QS_MAX = 12


def is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, int(p ** 0.5) + 1))


def grid_cells() -> list[tuple[int, int]]:
    """The acceptance grid: n in GRID_N, primes p <= GRID_P_MAX not dividing n."""
    return [(n, p) for n in GRID_N for p in range(2, GRID_P_MAX + 1)
            if is_prime(p) and n % p]


def scan_argv() -> list[str]:
    return ["scan", "--n-range", ",".join(map(str, GRID_N)),
            "--p-max", str(GRID_P_MAX), "--format", "json", "--workers", "2"]


def rerun_removals(seed: int) -> list[tuple[int, int]]:
    """Cells whose cache file is removed before the incremental rerun."""
    cells = grid_cells()
    k = round(RERUN_REMOVE_FRAC * len(cells))
    return sorted(random.Random(seed).sample(cells, k))


def _banded_draw(seed: int, sets: list, seed0: tuple, cost, band: float) -> tuple:
    ref = cost(seed0)
    near = [s for s in sets if abs(cost(s) - ref) <= band * ref]
    rng = random.Random(seed)
    chosen = list(rng.choice(sorted(near)))
    rng.shuffle(chosen)
    return tuple(chosen)


def analyze_cells(seed: int) -> tuple:
    """Three cells with |T| >= 8, each analysed in a fresh process."""
    if seed == 0:
        return ANALYZE_SEED0
    sets = list(itertools.combinations(sorted(ANALYZE_REF_S), 3))
    return _banded_draw(seed, sets, ANALYZE_SEED0,
                        lambda s: sum(ANALYZE_REF_S[c] for c in s), ANALYZE_BAND)


@dataclass(frozen=True)
class Planted:
    """A dependent vector: basis vector ``index`` shifted by 2 pi * shifts
    (kind "shift") or rescaled by q/s (kind "scale")."""

    kind: str
    index: int
    shifts: tuple[int, ...] = ()
    q: int = 1
    s: int = 1


@dataclass(frozen=True)
class CertifyCell:
    n: int
    p: int
    planted: Planted


def _planted(rng: random.Random, n: int) -> Planted:
    # p = 1 mod n in every certify cell, so p splits completely and both the
    # rank and the number of infinite places are phi(n) / 2.
    half_phi = sum(1 for a in range(1, n) if gcd(a, n) == 1) // 2
    index = rng.randrange(half_phi)
    if rng.random() < 0.5:
        shifts = tuple(rng.randint(-PLANTED_K_MAX, PLANTED_K_MAX) for _ in range(half_phi))
        return Planted("shift", index, shifts=shifts)
    return Planted("scale", index, q=rng.randint(1, PLANTED_QS_MAX),
                   s=rng.randint(1, PLANTED_QS_MAX))


def certify_cells(seed: int) -> tuple[CertifyCell, ...]:
    """One |T| = 6 and two |T| = 8 cells, each with a seeded planted twin."""
    if seed == 0:
        cells = CERTIFY_SEED0
    else:
        sets = [(a,) + pair for a in CERTIFY_T6
                for pair in itertools.combinations(CERTIFY_T8, 2)]
        cells = _banded_draw(seed, sets, CERTIFY_SEED0,
                             lambda s: sum(CERTIFY_SETUP_REF_S[c] for c in s), CERTIFY_BAND)
    rng = random.Random("planted-%d" % seed)
    return tuple(CertifyCell(n, p, _planted(rng, n)) for n, p in cells)
