"""Reference implementations the tests compare the library against.

``fraction_lll`` and ``fraction_gs_norms`` are the rational-arithmetic LLL
and Gram-Schmidt routines that ``pweil.lattice`` used before it moved to
integral (fraction-free) LLL; they stay here as the differential oracle.
"""

import math
from fractions import Fraction

from pweil.lattice import DependentRows, _dot


def bareiss_det(rows):
    """Fraction-free exact determinant of an integer matrix."""
    a = [list(map(int, r)) for r in rows]
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("matrix must be square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


def fraction_lll(rows, delta=Fraction(3, 4), gram=None):
    """delta-LLL with exact rational Gram-Schmidt data (Cohen, Alg. 2.6.3)."""
    b = [list(map(int, r)) for r in rows]
    n = len(b)
    if n <= 1:
        return b
    mu = [[Fraction(0)] * n for _ in range(n)]
    B = [Fraction(0)] * n

    def gs_row(i):
        for j in range(i):
            s = Fraction(_dot(b[i], b[j], gram)) - sum(mu[j][l] * mu[i][l] * B[l]
                                                       for l in range(j))
            mu[i][j] = s / B[j]
        B[i] = Fraction(_dot(b[i], b[i], gram)) - sum(mu[i][j] ** 2 * B[j] for j in range(i))
        if B[i] <= 0:
            raise DependentRows(i)

    def red(k, l):
        if abs(mu[k][l]) > Fraction(1, 2):
            q = math.floor(mu[k][l] + Fraction(1, 2))
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            mu[k][l] -= q
            for i in range(l):
                mu[k][i] -= q * mu[l][i]

    gs_row(0)
    kmax = 0
    k = 1
    while k < n:
        if k > kmax:
            kmax = k
            gs_row(k)
        red(k, k - 1)
        if B[k] < (delta - mu[k][k - 1] ** 2) * B[k - 1]:
            mu_kk1 = mu[k][k - 1]
            B_new = B[k] + mu_kk1 ** 2 * B[k - 1]
            mu[k][k - 1] = mu_kk1 * B[k - 1] / B_new
            B[k] = B[k - 1] * B[k] / B_new
            B[k - 1] = B_new
            b[k], b[k - 1] = b[k - 1], b[k]
            for j in range(k - 1):
                mu[k][j], mu[k - 1][j] = mu[k - 1][j], mu[k][j]
            for i in range(k + 1, kmax + 1):
                t = mu[i][k]
                mu[i][k] = mu[i][k - 1] - mu_kk1 * t
                mu[i][k - 1] = t + mu[k][k - 1] * mu[i][k]
            k = max(k - 1, 1)
        else:
            for l in range(k - 2, -1, -1):
                red(k, l)
            k += 1
    return b


def fraction_gs_norms(rows, gram=None):
    """Squared Gram-Schmidt norms ||b_i*||^2 by rational Gram-Schmidt."""
    b = [list(map(int, r)) for r in rows]
    n = len(b)
    mu = [[Fraction(0)] * n for _ in range(n)]
    B = [Fraction(0)] * n
    for i in range(n):
        for j in range(i):
            s = Fraction(_dot(b[i], b[j], gram)) - sum(mu[j][l] * mu[i][l] * B[l]
                                                       for l in range(j))
            mu[i][j] = s / B[j]
        B[i] = Fraction(_dot(b[i], b[i], gram)) - sum(mu[i][j] ** 2 * B[j] for j in range(i))
    return B
