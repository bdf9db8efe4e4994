"""Reference implementations the tests compare the library against.

``fraction_lll`` and ``fraction_gs_norms`` are the rational-arithmetic LLL
and Gram-Schmidt routines that ``pweil.lattice`` used before it moved to
integral (fraction-free) LLL, and ``cholesky_short_vectors`` is the
Fincke-Pohst enumeration on a rational Cholesky decomposition, before it
read the integral Gram-Schmidt data of LLL; the ``fraction_*`` element functions are the
rational arithmetic of Q(zeta_n) that ``pweil.cyclo`` used before it moved
to integer numerators.  ``per_prime_generator``, ``gross_row_full_norm``
and ``embed_uncached`` are the generator search that ``build_weil_basis``
ran at every prime of S, the regulator row that lifted Phi_n afresh to
K + f ord for each entry, and the embedding that evaluated cos and sin for
every coefficient, before per-prime work was done once.  ``embed_uncached``
is also the high-precision reference for the int dot product of ``embed``.
``fq_coset`` is the root test over F_{p^f} that ``split_prime`` used to
find each factor's coset, before the factors above p were transported from
one Hensel lift; ``equal_degree_factor`` and ``hensel_lift_factor`` are the
complete factorization of Phi_n mod p and the Hensel lift of a factor to
p^K that ``split_prime`` used before a prime above p became an exponent of
one lifted root of Phi_n; ``per_row_gross_matrix`` is the regulator matrix with one
``gross_row`` per prime of S, before the rows were permutations of one;
``frobenius`` and ``frobenius_norm`` are the Galois-ring Frobenius, t sent
to the Newton-lifted root of h congruent to t^p, and the norm as the product
of its f conjugates; ``gross_row`` takes that product with the images of
sigma_{p^i}(x) instead.
``full_scale_relation`` is the relation search that always fed the lattice
through every scale up to 2^(precision/2) and settled only there, before
the search returned at the first scale that settles it, and
``fraction_relation`` is the search on ``Fraction`` midpoints and radii
(``round_fraction`` the tail rounding), before they were ints over one
common power of 2.  Both follow the current schedule (``relation_schedule``:
a probe at 2^4, then 2^32, 2^64, ...).
``powering_is_root_of_unity`` is the torsion test that raised x to the
torsion order w and then to each divisor of w, before torsion was a table
lookup; ``inverse_pi_m_map`` is pi_M as the product of the x_P^(nu_P) over
T, before it was a product of powers of the xi_P with no inverse;
``powering_circulant_group_delta`` is the character product that evaluated
cos and sin of all m^2 angles, before it read them from one table; and
``fraction_certified_arg`` is the argument of sigma_v(x) itself through the
``Fraction`` embedding ``embed_uncached``, before the integral numerator was
embedded.  ``ring_padic_log`` and ``galois_ring_inverse`` are the logarithm
of a unit of GR(p^K, f) and the Newton inverse (from the extended gcd
``fp_xgcd``) that the regulator used in the degree-1 ring, before Z/p^K was
plain ints; ``gross_row_full_norm`` runs on them, and takes its norm as
sympy's resultant (``resultant_mod``), so it shares no norm with
``gross_row``.  The ``fraction_*``
predicates are the ``BallReal`` sign and order tests on ``Fraction``
endpoints, before they compared the mpf endpoints, and
``transform_kernel_basis_int`` is the integer kernel read off a second
product U A, before it was the rows of U from the rank on.
``hnf_orbit_mismatch`` is the cyclic-orbit test that built the orbit of
xi_{P0} and took the HNF rank of its alpha_p rows, before the span was
decided on the conjugate pairs of primes.  ``orbit_group_determinant`` is
the group determinant on the arguments of the built orbit sigma_a^k(xi_{P0})
at the fixed embedding, before they were the arguments of xi_{P0} at the
places a^k, and ``iterated_ideal_basis`` is the basis of P^k from k - 1
rounds of products with p and h(zeta) and an HNF, before it was one HNF of
the zeta^i p^k and zeta^i h(zeta)^k, and then the triangular rows of p^k and
mu_k read off the lifted root.  ``schoolbook_mul`` is the
Galois-ring product as a schoolbook convolution and one remainder modulo h,
before it was one Kronecker-packed int product with packed rows t^e mod h.
``two_settle_log_ends`` is the log of an exact ball with each end from its
own ``_settle`` and log 2 summed as 2 atanh(1/3) in every evaluation, before
both ends came from one evaluation with log 2 kept.
They stay here as the differential oracles.

Their polynomial arithmetic over F_p (``fp_mul``, ``fp_divmod``,
``fp_gcd`` and ``fp_xgcd``) wraps sympy's ``galoistools``, so the old
Cantor-Zassenhaus and Hensel oracles share no polynomial division with
``_zm_rem_monic``, which ``split_prime`` runs on.  Likewise the oracles
that need cos and sin (``embed_uncached``, ``powering_circulant_group_delta``)
take them from mpmath's interval cos/sin of the ball 2 pi k / n
(``mpi_cos_sin``), so they share no kernel with ``cyclo._cos_sin_table``,
and ``powering_circulant_group_delta`` takes the modulus of each character
factor from mpmath's ``mpci_abs``.
"""

import math
from fractions import Fraction

import sympy
from mpmath.libmp import from_man_exp, libmpi
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_div, gf_from_int_poly, gf_gcd, gf_gcdex, gf_mul

from pweil.arith import (BallReal, BranchCutHit, GaloisRing, NotAUnit, PadicElt,
                         PrecisionTooLow, _atan_series, _ilog, _settle, _zm_rem_monic,
                         arg_principal, ball_det, padic_log, split_p)
from pweil.cyclo import cyclotomic_polynomial, norm
from pweil.regulators import (BasisMismatch, GroupDetReport, GrossMatrix, _orbit_mismatch,
                              _padic_rank, certified_arg, circulant_group_delta, gross_row)
from pweil.lattice import (DependentRows, RelationCertificate, _canonical_sign,
                           _dot, _hnf_with_transform, gs_norms, lll, row_hnf, short_vectors)
from pweil.splitting import ord_at
from pweil.weilgroup import (EnumerationBudgetExceeded, MinusPartViolation, _generator_key,
                             _iroot_ceil, alpha_p_map, ideal_basis, trace_gram)


def to_mpi(ball):
    """The mpi interval with the ends of a ball."""
    return from_man_exp(*ball._lo), from_man_exp(*ball._hi)


def from_mpi(v, prec):
    """The ball with the ends of a finite mpi interval."""
    return BallReal(*((-int(man) if sign else int(man), exp) for sign, man, exp, _ in v), prec)


def to_mpci(z):
    """The mpci box (the kernel form of mpmath's ``iv.mpc``) of a complex
    enclosure (re, im)."""
    return to_mpi(z[0]), to_mpi(z[1])


def modulus_squared(z):
    """|z|^2 of a complex enclosure (re, im) from mpmath's interval square and
    sum, at the larger precision of the parts."""
    prec = max(z[0].prec, z[1].prec)
    re, im = (libmpi.mpi_square(v, prec) for v in to_mpci(z))
    return from_mpi(libmpi.mpi_add(re, im, prec), prec)


def mpi_cos_sin(ball):
    """Enclosures of cos and sin over a ball, from mpmath's ``mpi_cos_sin``
    at the ball's precision."""
    return tuple(from_mpi(v, ball.prec) for v in libmpi.mpi_cos_sin(to_mpi(ball), ball.prec))


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


def cholesky_short_vectors(basis, bound, gram=None, node_budget=5_000_000):
    """``short_vectors`` on a rational Cholesky decomposition of the Gram
    matrix of the LLL-reduced basis, rescaled to ints by the lcm D of the
    off-diagonal denominators, E of the diagonal ones and b of the bound;
    returns (vectors, node count).  Floats size the range of each x_i with a
    margin of 2 on each side, and the exact test prunes it.  Every x_i in
    range is visited, but a node counts only when its highest nonzero
    coordinate so far is positive (or none is nonzero), as ``short_vectors``
    enumerates one of each pair +-x."""
    reduced = lll(list(basis), gram)[0]
    n = len(reduced)
    g = [[Fraction(_dot(u, v, gram)) for v in reduced] for u in reduced]
    bound = Fraction(bound)
    q = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        q[i][i] = g[i][i] - sum(q[k][k] * q[k][i] ** 2 for k in range(i))
        if q[i][i] <= 0:
            raise ValueError("gram matrix is not positive definite")
        for j in range(i + 1, n):
            q[i][j] = (g[i][j] - sum(q[k][k] * q[k][i] * q[k][j] for k in range(i))) / q[i][i]
    D = math.lcm(1, *(q[i][j].denominator for i in range(n) for j in range(i + 1, n)))
    E = math.lcm(*(q[i][i].denominator for i in range(n)))
    b = bound.denominator
    scale = D * D * E * b
    qD = [[int(q[i][j] * D) if j > i else 0 for j in range(n)] for i in range(n)]
    d_s = [int(q[i][i] * E) * b for i in range(n)]  # d_i S / D^2
    d_full = [di * D * D for di in d_s]  # d_i S
    full = bound.numerator * D * D * E  # bound S

    found = {}
    x = [0] * n
    nodes = 0

    def recurse(i, remaining):
        nonlocal nodes
        U = sum(qD[i][j] * x[j] for j in range(i + 1, n))  # D u
        approx = math.sqrt(remaining / d_full[i]) if remaining > 0 else 0.0
        center = -U / D
        higher = next((c for c in reversed(x[i + 1:]) if c), 0)  # highest nonzero x_j, j > i
        for xi in range(math.floor(center - approx) - 2, math.ceil(center + approx) + 3):
            t = D * xi + U
            term = d_s[i] * t * t
            if term > remaining:
                continue
            if (higher or xi) >= 0:
                nodes += 1
            if nodes > node_budget:
                raise EnumerationBudgetExceeded("enumeration exceeded %d nodes" % node_budget)
            x[i] = xi
            if i == 0:
                if any(x):
                    found[_canonical_sign(tuple(x))] = full - remaining + term
            else:
                recurse(i - 1, remaining - term)
        x[i] = 0

    recurse(n - 1, full)
    out = set()
    for coeffs, norm_scaled in found.items():
        amb = [sum(c * row[j] for c, row in zip(coeffs, reduced)) for j in range(len(reduced[0]))]
        out.add((_canonical_sign(tuple(amb)), Fraction(norm_scaled, scale)))
    return sorted(out, key=lambda item: (item[1], item[0])), nodes


# ---------------------------------------------------------------------------
# The Fraction arithmetic of Q(zeta_n) that ``pweil.cyclo.CycloElt`` used
# before it stored one integer numerator over one denominator.  Elements are
# tuples of phi(n) Fractions on the power basis; ``fraction_mul`` and
# ``fraction_inverse`` (extended Euclid in Q[x]) are the former method bodies.

def fraction_elt(field, coeffs):
    c = [Fraction(x) for x in coeffs]
    if len(c) > field.degree:
        c = _q_poly_rem(c, cyclotomic_polynomial(field.n))
    c += [Fraction(0)] * (field.degree - len(c))
    return tuple(c)


def fraction_add(field, a, b):
    return tuple(x + y for x, y in zip(a, b))


def fraction_sub(field, a, b):
    return tuple(x - y for x, y in zip(a, b))


def fraction_mul(field, a, b):
    n = field.degree
    out = [Fraction(0)] * (2 * n - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return fraction_elt(field, out)


def fraction_inverse(field, a):
    """Inverse modulo Phi_n via the extended Euclidean algorithm in Q[x]."""
    if all(c == 0 for c in a):
        raise ZeroDivisionError("inverse of zero")
    r0 = [Fraction(c) for c in cyclotomic_polynomial(field.n)]
    r1 = list(a)
    _q_trim(r1)
    s0 = []
    s1 = [Fraction(1)]
    while True:
        q, r = _q_poly_divmod(r0, r1)
        if not r:
            break
        r0, r1 = r1, r
        s0, s1 = s1, _q_poly_sub(s0, _q_poly_mul(q, s1))
    # r1 is a nonzero constant times gcd = constant (Phi_n irreducible)
    if len(r1) != 1:
        raise ZeroDivisionError("element not invertible modulo Phi_n")
    scale = r1[0]
    inv = [c / scale for c in s1]
    return fraction_elt(field, inv)


def fraction_apply(field, a, aut_a):
    n = field.n
    out = [Fraction(0)] * n
    for i, c in enumerate(a):
        if c:
            out[(aut_a * i) % n] += c
    return fraction_elt(field, out)


def fraction_pow(field, a, e):
    if e < 0:
        return fraction_pow(field, fraction_inverse(field, a), -e)
    result = fraction_elt(field, [1])
    base = a
    while e:
        if e & 1:
            result = fraction_mul(field, result, base)
        base = fraction_mul(field, base, base)
        e >>= 1
    return result


def _q_poly_rem(a, mod):
    deg = len(mod) - 1
    r = a[:]
    while len(r) > deg:
        lead = r.pop()
        if lead:
            shift = len(r) - deg
            for i in range(deg):
                r[shift + i] -= lead * mod[i]
    return r


def _q_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _q_poly_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _q_trim(out)


def _q_poly_sub(a, b):
    out = list(a) + [Fraction(0)] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return _q_trim(out)


def _q_poly_divmod(a, b):
    if not b:
        raise ZeroDivisionError
    r = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(r) >= len(b) and r:
        coef = r[-1] / b[-1]
        deg = len(r) - len(b)
        q[deg] = coef
        for i, cb in enumerate(b):
            r[deg + i] -= coef * cb
        _q_trim(r)
    return _q_trim(q), r


def per_prime_generator(prime, power, node_budget=5_000_000, max_doublings=6):
    """Generator of P^power from a search at P itself (``find_generator``
    as it stood when ``build_weil_basis`` called it for every prime of S)."""
    field = prime.field
    if power == 0:
        return field.one()
    n_target = prime.p ** (prime.f * power)
    deg = field.degree
    basis = ideal_basis(prime, power)
    gram = trace_gram(field)
    floor = deg * _iroot_ceil(n_target * n_target, deg)
    bound = floor + (floor + 1) // 2
    for _ in range(max_doublings + 1):
        vectors = short_vectors(basis, bound, gram=gram, node_budget=node_budget)
        candidates = []
        for vec, _norm_sq in vectors:
            elt = field.elt(vec)
            if abs(norm(elt)) == n_target:
                candidates.append(elt)
        if candidates:
            return min(candidates, key=lambda x: _generator_key(x.num))
        bound *= 2
    return None


def resultant_mod(h, a, m):
    """Res(h, a) mod m for a monic h and int coefficient lists, lowest degree
    first (sympy, over Z): the product of a over the roots of h.  a is first
    reduced mod h (the same values at the roots): sympy's resultant can take
    the wrong sign when its first argument has the lower degree (sympy 1.14
    gives Res(X + 2, X^3) = 8, where the Sylvester determinant is -8)."""
    X = sympy.Symbol("X")
    h, a = (sympy.Poly(list(c)[::-1], X) for c in (h, a))
    return int(sympy.resultant(h, a.rem(h))) % m


def gross_row_full_norm(x, split, K):
    """The regulator row with the full norm taken at K_big = K + f ord_num,
    as Res(h, x.num) mod p^K_big for each prime's factor h of Phi_n
    Hensel-lifted from scratch to K_big, divided by den^f with the Newton
    inverse and logged in the degree-1 ring; (row, precision) as
    ``gross_row`` returns it."""
    p = split.p
    f = split.f
    n = split.field.n
    v_den, den = split_p(x.den, p)
    qp = GaloisRing(p, K, 1, (0, 1))
    entries = []
    for pr in split.primes:
        ord_num = ord_at(pr, x) + v_den
        K_big = K + f * ord_num
        h = hensel_lift_factor(cyclotomic_polynomial(n), pr.h_bar, p, K_big)
        nrm = resultant_mod(h, x.num, p ** K_big)
        assert nrm % (p ** (f * ord_num)) == 0, "norm valuation mismatch"
        unit_num = nrm // (p ** (f * ord_num))
        u = qp.from_int(unit_num) * galois_ring_inverse(qp, qp.from_int(pow(den, f)))
        entries.append(ring_padic_log(u))
    prec = min((e.ring.prec for e in entries), default=K)
    return [e.coeffs[0] % p ** prec for e in entries], prec


def embed_uncached(x, place, precision=64):
    """Enclosure of sigma_v(x) with the ``Fraction`` coefficients of x, and
    cos and sin evaluated per coefficient."""
    n = x.field.n
    wp = precision + 16
    two_pi = BallReal.pi(wp) * 2
    re = BallReal.zero(wp)
    im = BallReal.zero(wp)
    for i, c in enumerate(x.coeffs):
        if not c:
            continue
        k = (place * i) % n
        if k == 0:
            re = re + BallReal.from_fraction(c, wp)
            continue
        cos, sin = mpi_cos_sin(two_pi * Fraction(k, n))
        re = re + cos * Fraction(c)
        im = im + sin * Fraction(c)
    return re, im


def round_fraction(x):
    return math.floor(x + Fraction(1, 2))


def relation_schedule(scale):
    """The scales s of the relation search: a probe at 2^4, then 2^32,
    2^64, ... below 2^scale, and 2^scale."""
    out = [min(4, scale)]
    while out[-1] < scale:
        out.append(min(max(32, 2 * out[-1]), scale))
    return out


def fraction_relation(vectors, modulus, bound, precision=None):
    """``find_simultaneous_relation`` with ``Fraction`` midpoints and radii,
    the tail ``round_fraction(2^s t)`` and a ``Fraction`` residual."""
    m = len(vectors)
    if m == 0:
        raise ValueError("no vectors given")
    d = len(vectors[0])
    if any(len(vec) != d for vec in vectors):
        raise ValueError("vectors of unequal dimension")
    if precision is None:
        precision = modulus.prec
    scale = precision // 2
    N = 1 << scale
    tails = [[x.midpoint for x in vec] for vec in vectors]
    tails += [[modulus.midpoint if w == v else 0 for w in range(d)] for v in range(d)]
    rads = [[x.radius for x in vec] for vec in vectors]
    rads += [[modulus.radius if w == v else 0 for w in range(d)] for v in range(d)]
    r_max = max(max(row) for row in rads)
    for r in (x for row in rads for x in row):
        if N * r >= Fraction(1, 2):
            raise PrecisionTooLow("radius %s too large for scale 2^%d" % (r, scale))

    k_dim = m + d
    unimodular = [[int(i == j) for j in range(k_dim)] for i in range(k_dim)]
    for s in relation_schedule(scale):
        scaled = [[round_fraction(t * (1 << s)) for t in row] for row in tails]
        rows = [u + [sum(c * tail[v] for c, tail in zip(u, scaled) if c) for v in range(d)]
                for u in unimodular]
        reduced = lll(rows)[0]
        unimodular = [row[:k_dim] for row in reduced]
        t_bound = (m + 1) * bound * (Fraction(1, 2) + (1 << s) * r_max)
        threshold_sq = (m + d) * bound * bound + d * t_bound * t_bound
        settled = dict(bound=bound, precision=precision, scale_log2=s,
                       threshold_sq=str(threshold_sq), detail={"m": m, "d": d})
        for row in reduced:
            coeffs = row[:k_dim]
            if not any(coeffs[:m]) or max(map(abs, coeffs)) > bound:
                continue
            residual = Fraction(0)
            for v in range(d):
                mid = sum(x * t[v] for x, t in zip(coeffs, tails) if x)
                err = sum(abs(x) * r[v] for x, r in zip(coeffs, rads) if x)
                if abs(mid) > err:
                    break
                residual = max(residual, abs(mid) + err)
            else:
                return RelationCertificate(
                    status="found", relation=_canonical_sign(tuple(coeffs)),
                    sv_lower_bound_sq="", residual_bound=str(float(residual)), **settled)
        min_gs = min(gs_norms(reduced))
        if min_gs > threshold_sq:
            return RelationCertificate(status="none-up-to-bound", relation=None,
                                       sv_lower_bound_sq=str(min_gs), **settled)
    raise PrecisionTooLow(
        "simultaneous relation search inconclusive: raise precision or lower the bound"
    )


def full_scale_relation(vectors, modulus, bound, precision=None):
    """``find_simultaneous_relation`` with every scale of the schedule
    reduced and only the full-scale basis checked and certified."""
    m = len(vectors)
    if m == 0:
        raise ValueError("no vectors given")
    d = len(vectors[0])
    if any(len(vec) != d for vec in vectors):
        raise ValueError("vectors of unequal dimension")
    if precision is None:
        precision = modulus.prec
    scale = precision // 2
    N = 1 << scale
    all_rads = [x.radius for vec in vectors for x in vec] + [modulus.radius]
    for r in all_rads:
        if N * r >= Fraction(1, 2):
            raise PrecisionTooLow("radius %s too large for scale 2^%d" % (r, scale))
    mids = [[x.midpoint for x in vec] for vec in vectors]
    mu_mid = modulus.midpoint
    tails = mids + [[mu_mid if w == v else 0 for w in range(d)] for v in range(d)]

    k_dim = m + d
    unimodular = [[int(i == j) for j in range(k_dim)] for i in range(k_dim)]
    for s in relation_schedule(scale):
        scaled = [[round_fraction(t * (1 << s)) for t in row] for row in tails]
        rows = [u + [sum(c * tail[v] for c, tail in zip(u, scaled) if c) for v in range(d)]
                for u in unimodular]
        reduced = lll(rows)[0]
        unimodular = [row[:k_dim] for row in reduced]

    r_max = max(all_rads)
    t_bound = (m + 1) * bound * (Fraction(1, 2) + N * r_max)
    threshold_sq = (m + d) * bound * bound + d * t_bound * t_bound

    for row in reduced:
        c = tuple(row[:m])
        k = tuple(row[m:m + d])
        if not any(c):
            continue
        if max(abs(x) for x in c) > bound or (k and max(abs(x) for x in k) > bound):
            continue
        ok = True
        residual = Fraction(0)
        for v in range(d):
            mid_v = sum(ci * mids[i][v] for i, ci in enumerate(c)) + k[v] * mu_mid
            err_v = sum(abs(ci) * vectors[i][v].radius for i, ci in enumerate(c)) \
                + abs(k[v]) * modulus.radius
            if abs(mid_v) > err_v:
                ok = False
                break
            residual = max(residual, abs(mid_v) + err_v)
        if ok:
            rel = _canonical_sign(c + k)
            return RelationCertificate(
                status="found",
                relation=rel,
                bound=bound,
                precision=precision,
                scale_log2=scale,
                sv_lower_bound_sq="",
                threshold_sq=str(threshold_sq),
                residual_bound=str(float(residual)),
                detail={"m": m, "d": d},
            )
    min_gs = min(gs_norms(reduced))
    if min_gs > threshold_sq:
        return RelationCertificate(
            status="none-up-to-bound",
            relation=None,
            bound=bound,
            precision=precision,
            scale_log2=scale,
            sv_lower_bound_sq=str(min_gs),
            threshold_sq=str(threshold_sq),
            detail={"m": m, "d": d},
        )
    raise PrecisionTooLow(
        "simultaneous relation search inconclusive: raise precision or lower the bound"
    )


def schoolbook_mul(ring, a, b):
    """a b in ``ring`` on coefficient tuples: the 2f - 1 convolution
    coefficients over Z, reduced modulo h and p^K once."""
    out = [0] * (2 * ring.f - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return tuple(_zm_rem_monic(out, ring.modulus, ring.pK)[1])


# Polynomials over F_p as trimmed little-endian int lists; the products,
# divisions and gcds are sympy's ``galoistools`` (big-endian) through ``_gf``
# and ``_le``.

def fp_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _gf(a, p):
    return gf_from_int_poly(list(reversed(a)), p)


def _le(x):
    return fp_trim([int(c) for c in reversed(x)])


def fp_mul(a, b, p):
    return _le(gf_mul(_gf(a, p), _gf(b, p), p, ZZ))


def fp_divmod(a, b, p):
    """(q, r) with a = q b + r, also over Z/p^k for a monic b; a zero b
    raises ZeroDivisionError."""
    q, r = gf_div(_gf(a, p), _gf(b, p), p, ZZ)
    return _le(q), _le(r)


def fp_gcd(a, b, p):
    """The monic gcd (0 for a = b = 0)."""
    return _le(gf_gcd(_gf(a, p), _gf(b, p), p, ZZ))


def fp_add(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return fp_trim(out)


def fp_pow_mod(a, e, mod_poly, p):
    result = [1]
    base = fp_divmod(a, mod_poly, p)[1]
    while e:
        if e & 1:
            result = fp_divmod(fp_mul(result, base, p), mod_poly, p)[1]
        base = fp_divmod(fp_mul(base, base, p), mod_poly, p)[1]
        e >>= 1
    return result


def equal_degree_factor(poly, f, p, rng):
    """Every monic factor of ``poly``, a product of distinct degree-f
    irreducibles mod p (Cantor-Zassenhaus, splitting every piece)."""
    deg = len(poly) - 1
    if deg == f:
        inv_lead = pow(poly[-1], -1, p)
        return [[(c * inv_lead) % p for c in poly]]
    out = []
    stack = [poly]
    while stack:
        cur = stack.pop()
        d = len(cur) - 1
        if d == f:
            inv_lead = pow(cur[-1], -1, p)
            out.append([(c * inv_lead) % p for c in cur])
            continue
        split = None
        while split is None:
            a = [rng.randrange(p) for _ in range(d)]
            fp_trim(a)
            if not a:
                continue
            g = fp_gcd(a, cur, p)
            if 1 <= len(g) - 1 < d:
                split = g
                break
            if p == 2:
                # additive trace map of F_{2^f} splits products of degree-f factors
                t = fp_divmod(a, cur, 2)[1]
                acc = t[:]
                for _ in range(f - 1):
                    acc = fp_divmod(fp_mul(acc, acc, 2), cur, 2)[1]
                    t = fp_add(t, acc, 2)
                g = fp_gcd(t, cur, 2)
            else:
                b = fp_pow_mod(a, (p ** f - 1) // 2, cur, p)
                b = fp_add(b, [p - 1], p)
                g = fp_gcd(b, cur, p)
            if 1 <= len(g) - 1 < d:
                split = g
        q, r = fp_divmod(cur, split, p)
        assert not r
        stack.append(split)
        stack.append(q)
    return out


def hensel_lift_factor(full, h_bar, p, K):
    """Lift the monic factor h_bar of ``full`` mod p to the unique monic
    factor mod p^K, one p-adic digit per step."""
    full = [int(c) for c in full]
    h = [c % p for c in h_bar]
    fdeg = len(h) - 1
    # cofactor and Bezout data mod p, fixed for every linear step
    g_bar, rem = fp_divmod([c % p for c in full], h, p)
    assert not rem, "h_bar does not divide the polynomial mod p"
    one, s, t = fp_xgcd(h, g_bar, p)
    assert one == [1], "factor and cofactor are not coprime mod p"
    hk = h[:]
    pk = p
    for _ in range(K - 1):
        pk_next = pk * p
        rem = fp_divmod(full, hk, pk_next)[1]
        assert all(c % pk == 0 for c in rem)
        r_bar = fp_trim([(c // pk) % p for c in rem])
        delta = fp_divmod(fp_mul(t, r_bar, p), h, p)[1]
        delta += [0] * (fdeg - len(delta))
        hk = [(hc + pk * dc) % pk_next for hc, dc in zip(hk, delta + [0])]
        pk = pk_next
    check = fp_divmod(full, hk, p ** K)[1]
    assert all(c == 0 for c in check), "Hensel lifting failed"
    return tuple(hk)


def fq_coset(prime):
    """The coset of ``prime`` from the roots t^b of its factor mod p in
    F_p[t]/(h0), h0 the factor of label 0: {b^-1 : h(t^b) = 0}."""
    split, field, p = prime.split, prime.field, prime.p
    h0 = list(split.primes[0].h_bar)

    def fq_eval(poly, x):
        acc = []
        for c in reversed(list(poly)):
            acc = fp_divmod(fp_mul(acc, x, p), h0, p)[1]
            if c % p:
                acc = fp_add(acc, [c % p], p)
        return acc

    roots = [b for b in field.units
             if fq_eval(prime.h_bar, fp_pow_mod([0, 1], b, h0, p)) == []]
    assert len(roots) == prime.f
    return frozenset(pow(b, -1, field.n) for b in roots)


def per_row_gross_matrix(basis, split, K):
    """``gross_matrix`` with ``gross_row`` evaluated at every xi_P, P in S."""
    rows = [gross_row(basis.xi[idx], split, K) for idx in split.S]
    labels = [split.primes[idx].label for idx in split.S]
    out_prec = min((prec for _, prec in rows), default=K)
    norm_rows = [[e % split.p ** out_prec for e in row] for row, _ in rows]
    min_val = out_prec
    for row in norm_rows:
        total = sum(row) % (split.p ** out_prec)
        min_val = min(min_val, split_p(total, split.p)[0] if total else out_prec)
    rank = _padic_rank(norm_rows, split.p, out_prec)
    return GrossMatrix(split, tuple(labels), tuple(tuple(row) for row in norm_rows),
                       out_prec, rank, min_val)


def _frobenius_root(ring):
    """The root of the modulus congruent to t^p mod p, Newton-lifted to p^K."""
    if ring.f == 1:
        return ((-ring.modulus[0]) % ring.pK,)
    p, pK = ring.p, ring.pK
    h = list(ring.modulus)
    dh = [(i * h[i]) % pK for i in range(1, len(h))]

    def ev(poly, x):
        acc = ring.from_int(0)
        for c in reversed(poly):
            acc = acc * x + ring.from_int(c)
        return acc

    r = ring.elt(fp_pow_mod([0, 1], p, [c % p for c in h], p))
    for _ in range(ring.prec.bit_length() + 2):
        hr = ev(h, r)
        if not any(hr.coeffs):
            break
        r = r - hr * galois_ring_inverse(ring, ev(dh, r))
    assert not any(ev(h, r).coeffs), "Frobenius root lifting failed"
    return r.coeffs


def frobenius(ring, x):
    """The Frobenius automorphism t -> (root of h congruent to t^p) of x."""
    root = PadicElt(ring, _frobenius_root(ring))
    acc = ring.from_int(0)
    for c in reversed(x.coeffs):
        acc = acc * root + ring.from_int(c)
    return acc


def frobenius_norm(ring, x):
    """Product of the f Frobenius conjugates of x; lands in Z/p^K."""
    acc = prod = x
    for _ in range(ring.f - 1):
        acc = frobenius(ring, acc)
        prod = prod * acc
    assert not any(prod.coeffs[1:]), "norm did not land in the base ring"
    return prod.coeffs[0]


def powering_is_root_of_unity(x):
    """Order of x in mu(Q(zeta_n)) or None: x x^c = 1, then x^w = 1 for
    w = lcm(2, n), then the least divisor d of w with x^d = 1."""
    if x.is_zero():
        raise ZeroDivisionError("zero is not a root of unity candidate")
    one = x.field.one()
    if x * x.conj() != one:
        return None
    w = x.field.torsion_order()
    if x ** w != one:
        return None
    return min(d for d in range(1, w + 1) if w % d == 0 and x ** d == one)


def inverse_pi_m_map(nu, basis):
    """pi_M(nu) as the product over T of x_P^(nu_P), negative powers by inverses."""
    if not nu.is_minus_part():
        raise MinusPartViolation("pi_M is only defined on the minus part")
    out = basis.split.field.one()
    for idx in basis.split.T:
        e = nu.coeffs[idx]
        if e:
            out = out * (basis.x[idx].inverse() ** -e if e < 0 else basis.x[idx] ** e)
    return out


def powering_circulant_group_delta(thetas):
    """``circulant_group_delta`` with cos and sin of 2 pi (i j mod m) / m
    evaluated afresh for each of the m^2 pairs (i, j)."""
    m = len(thetas)
    prec = max(t.prec for t in thetas)
    rows = [[thetas[(c - r) % m] for c in range(m)] for r in range(m)]
    delta = abs(ball_det(rows))
    two_pi = BallReal.pi(prec) * 2
    fact = BallReal.from_int(1, prec)
    for j in range(m):
        re = BallReal.zero(prec)
        im = BallReal.zero(prec)
        for i, t in enumerate(thetas):
            cos, sin = mpi_cos_sin(two_pi * Fraction((i * j) % m, m))
            re = re + t * cos
            im = im + t * sin
        fact = fact * from_mpi(libmpi.mpci_abs(to_mpci((re, im)), prec), prec)
    return delta, fact


def fraction_certified_arg(x, place, precision, max_attempts=6):
    """``certified_arg`` on sigma_v(x) itself, embedded with ``Fraction``
    coefficients."""
    target = Fraction(1, 1 << (precision // 2))
    wp = precision + 32
    last = None
    for _ in range(max_attempts):
        try:
            val = arg_principal(*embed_uncached(x, place, wp))
            if val.radius < target:
                return val
        except (BranchCutHit, PrecisionTooLow) as exc:
            last = exc
        wp *= 2
    if last is not None:
        raise last
    raise PrecisionTooLow("argument radius did not reach 2^-%d" % (precision // 2))


def fp_xgcd(a, b, p):
    """Extended gcd in F_p[x] (sympy's ``gf_gcdex``, little-endian lists):
    (g, s, t) with s a + t b = g, g monic."""
    s, t, g = gf_gcdex(_gf(a, p), _gf(b, p), p, ZZ)
    return tuple(_le(x) for x in (g, s, t))


def galois_ring_inverse(ring, x):
    """x^-1 in GR(p^K, f), h irreducible mod p: the inverse mod p from the
    extended gcd, Newton-lifted by v <- v (2 - x v)."""
    p = ring.p
    if not any(c % p for c in x.coeffs):
        raise NotAUnit("element is divisible by p")
    g, s, _ = fp_xgcd(fp_trim([c % p for c in x.coeffs]), [c % p for c in ring.modulus], p)
    if g != [1]:
        raise NotAUnit("residue is not invertible (modulus not irreducible?)")
    v, one, two = ring.elt(s), ring.one(), ring.from_int(2)
    for _ in range(ring.prec.bit_length() + 2):
        prod = x * v
        if prod == one:
            return v
        v = v * (two - prod)
    assert x * v == one, "inverse lifting failed"
    return v


def ring_padic_log(u):
    """log_p of a unit u of GR(p^K, f), an element of GR(p^K', f): the
    Teichmueller part killed by the power p^f - 1, the series summed
    coefficientwise and divided back."""
    ring = u.ring
    p, K, f, pK = ring.p, ring.prec, ring.f, ring.pK
    if not any(c % p for c in u.coeffs):
        raise NotAUnit("padic_log requires a unit")
    e_kill = p ** f - 1
    x = u ** e_kill - ring.one()
    if not any(x.coeffs):
        return ring.from_int(0)
    m_max = 1
    while m_max - _ilog(m_max, p) < K:
        m_max += 1
    K_out = K - _ilog(m_max, p)
    if K_out <= 0:
        raise PrecisionTooLow("precision %d too small for padic_log at p=%d" % (K, p))
    p_out = p ** K_out
    acc = [0] * f
    xpow = ring.one()
    for m in range(1, m_max + 1):
        xpow = xpow * x
        a, m_unit = split_p(m, p)
        inv_m = pow(m_unit, -1, pK)
        sign = 1 if m % 2 == 1 else -1
        for i, c in enumerate(xpow.coeffs):
            acc[i] = (acc[i] + sign * ((c * inv_m) % pK // p ** a)) % p_out
    inv_kill = pow(e_kill % p_out, -1, p_out)
    out_ring = GaloisRing(p, K_out, f, ring.modulus)
    return out_ring.elt([(c * inv_kill) % p_out for c in acc])


# ``BallReal`` predicates on the ``Fraction`` endpoints, before they compared
# the mpf endpoints directly

def fraction_contains_zero(x):
    return x.lower <= 0 <= x.upper


def fraction_excludes_zero(x):
    return x.lower > 0 or x.upper < 0


def fraction_is_positive(x):
    return x.lower > 0


def fraction_is_negative(x):
    return x.upper < 0


def fraction_overlaps(x, y):
    return x.lower <= y.upper and y.lower <= x.upper


def transform_kernel_basis_int(rows):
    """The left integer kernel as the rows of U whose image U A is zero,
    with U A formed by a second matrix product."""
    a = [list(map(int, r)) for r in rows]
    if not a:
        return []
    _, u, _ = _hnf_with_transform(a)
    m, ncols = len(a), len(a[0])
    h_full = [[sum(u[i][k] * a[k][j] for k in range(m)) for j in range(ncols)]
              for i in range(m)]
    return [u[i] for i in range(m) if not any(h_full[i])]


def hnf_orbit_mismatch(basis, a):
    """Why sigma_a does not make the basis a closed cyclic orbit, or None:
    the orbit of xi_{P0} applied |S| times for closure, then the HNF rank of
    the alpha_p rows of its elements for the span."""
    split = basis.split
    m = len(split.S)
    if m == 0:
        return "empty basis"
    xi0 = basis.xi[split.S[0]]
    orbit = [xi0]
    cur = xi0
    for _ in range(m - 1):
        cur = cur.apply(a)
        orbit.append(cur)
    if cur.apply(a) != xi0:
        return "sigma^%d does not fix xi (the orbit does not close into a group)" % m
    if row_hnf([alpha_p_map(e, split).coeffs for e in orbit])[1] != m:
        return "conjugates do not span E_p(k) x Q"
    return None


def orbit_group_determinant(basis, a, precision):
    """The group determinant on the arguments of the orbit xi, sigma_a(xi),
    ..., xi = xi_{P0}, each built by applying sigma_a and read at the fixed
    embedding."""
    reason = _orbit_mismatch(basis, a)
    if reason is not None:
        raise BasisMismatch(reason)
    orbit = [basis.xi[basis.split.S[0]]]
    for _ in range(len(basis.split.S) - 1):
        orbit.append(orbit[-1].apply(a))
    thetas = [certified_arg(elt, 1, precision) for elt in orbit]
    delta, fact = circulant_group_delta(thetas)
    assert delta.overlaps(fact)
    return GroupDetReport(
        sigma=a % basis.split.field.n, size=len(orbit), thetas=tuple(thetas), delta=delta,
        delta_factored=fact, nonzero=delta.excludes_zero() or fact.excludes_zero(),
        precision=precision,
    )


def iterated_ideal_basis(prime, power):
    """HNF basis of P^power: P from p and h(zeta), then P^(k+1) = p P^k +
    h(zeta) P^k as Z-modules, one product round and HNF per power."""
    field = prime.field
    deg = field.degree
    if power == 0:
        return [[1 if i == j else 0 for j in range(deg)] for i in range(deg)]
    h_elt = field.elt([c % prime.p for c in prime.h_bar])
    gens = []
    for i in range(deg):
        zi = field.zeta(i)
        gens.append(list((zi * prime.p).num))
        gens.append(list((zi * h_elt).num))
    basis, rank = row_hnf(gens)
    assert rank == deg
    for _ in range(power - 1):
        prods = []
        for row in basis:
            belt = field.elt(row)
            prods.append(list((belt * prime.p).num))
            prods.append(list((belt * h_elt).num))
        basis, rank = row_hnf(prods)
        assert rank == deg
    return basis


def _summed_log_fixed(m, e, w):
    """log(m 2^e) as ``arith._log_fixed`` took it with log 2 = 2 atanh(1/3)
    summed in every call: the error is twice that of the series for z plus
    2 |k + e| times that of the series for 1/3."""
    k = (3 * m).bit_length() - 2
    d, n = m - (1 << k), k + e
    u, eu = _atan_series(abs(d), m + (1 << k), w, False)
    l2, e2 = _atan_series(1, 3, w, False)
    return (2 * (u if d >= 0 else -u) + 2 * n * l2,), 2 * eu + 2 * abs(n) * e2, w


def two_settle_log_ends(ball):
    """The ends of log of an exact ball other than 1, the lower end rounded
    down and the upper up, each from its own ``_settle``."""
    x = ball.man_exp()[0]
    return tuple(_settle(lambda w: _summed_log_fixed(*x, w), ball.prec, (up,))[0][0]
                 for up in (False, True))
