import time

import pytest

from pweil.cyclo import CycloField
from pweil.splitting import is_prime, split_prime
from pweil.weilgroup import build_weil_basis

GRID_N = (5, 7, 8, 11, 12, 13, 15, 16, 20)
GRID_P_MAX = 100


@pytest.fixture(scope="session")
def k5():
    return CycloField(5)


@pytest.fixture(scope="session")
def split_5_11(k5):
    return split_prime(k5, 11)


@pytest.fixture(scope="session")
def basis_5_11(split_5_11):
    return build_weil_basis(split_5_11)


@pytest.fixture(scope="session")
def k8():
    return CycloField(8)


@pytest.fixture(scope="session")
def split_8_5(k8):
    return split_prime(k8, 5)


@pytest.fixture(scope="session")
def basis_8_5(split_8_5):
    return build_weil_basis(split_8_5)


@pytest.fixture(scope="session")
def grid():
    """(field, split, basis) for every acceptance-grid point (n in GRID_N,
    primes p < GRID_P_MAX not dividing n); the basis is None when T is empty."""
    t0 = time.monotonic()
    points = {}
    for n in GRID_N:
        field = CycloField(n)
        for p in range(2, GRID_P_MAX):
            if not is_prime(p) or n % p == 0:
                continue
            sp = split_prime(field, p)
            if not sp.T:
                points[(n, p)] = (field, sp, None)
                continue
            basis = build_weil_basis(sp)
            points[(n, p)] = (field, sp, basis)
    elapsed = time.monotonic() - t0
    return points, elapsed
