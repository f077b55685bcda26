"""Independent oracles used by the tests: brute-force scans and exact
power-series arithmetic, implemented separately from the library code.
Some are the library's earlier, slower algorithms, kept as references.
"""
from __future__ import annotations

from fractions import Fraction
from math import isqrt

from gkzeta.numtheory import IntPolynomial, PrimePower, factorize


# ---------------------------------------------------------------------------
# primes, roots and prime powers by the definitions

def prime_sieve(n: int) -> bytearray:
    """Sieve of Eratosthenes for n >= 2: out[m] == 1 iff m < n is prime."""
    out = bytearray([0, 0]) + bytearray([1]) * (n - 2)
    for d in range(2, isqrt(n - 1) + 1):
        if out[d]:
            out[d * d::d] = bytes(len(range(d * d, n, d)))
    return out


def brute_iroot(x: int, k: int) -> int:
    """floor(x^(1/k)) by counting up."""
    r = 0
    while (r + 1) ** k <= x:
        r += 1
    return r


def prime_power_by_factorization(q: int) -> PrimePower:
    """PrimePower.from_q by trial division, with the same ValueError texts
    (the library's earlier algorithm)."""
    fac = factorize(q)
    if len(fac) != 1:
        raise ValueError(f"{q} is not a prime power")
    ((p, n),) = fac.items()
    return PrimePower(p, n)


# ---------------------------------------------------------------------------
# elliptic traces by literal condition scan

def brute_elliptic_traces(q: PrimePower) -> list[int]:
    """Realizable Frobenius traces over F_q by direct enumeration of the
    classification conditions, written independently of the library."""
    p, qq = q.p, q.q
    root = isqrt(qq)
    is_square = root * root == qq
    out = []
    for b in range(-isqrt(4 * qq), isqrt(4 * qq) + 1):
        if b * b > 4 * qq:
            continue
        ok = False
        if b % p != 0:
            ok = True
        if b == 0 and not is_square:
            ok = True
        if b == 0 and is_square and p % 4 != 1:
            ok = True
        if is_square and b in (root, -root) and p % 3 != 1:
            ok = True
        if p in (2, 3) and not is_square and b * b == p * qq:
            ok = True
        if is_square and b in (2 * root, -2 * root):
            ok = True
        if ok:
            out.append(b)
    return out


# ---------------------------------------------------------------------------
# Newton polygon by pairwise minimum slopes

def direct_newton_slopes(f: IntPolynomial, q: PrimePower) -> list[Fraction]:
    """Slopes from the polygon computed by repeated minimal-slope search,
    a different algorithm than the library's monotone hull."""
    def v(c):
        k = 0
        c = abs(c)
        while c % q.p == 0:
            c //= q.p
            k += 1
        return k

    pts = [(i, v(c)) for i, c in enumerate(f.coeffs) if c != 0]
    out: list[Fraction] = []
    i0, v0 = pts[0]
    while i0 < f.degree:
        best = None
        for i1, v1 in pts:
            if i1 <= i0:
                continue
            s = Fraction(v1 - v0, i1 - i0)
            if best is None or s < best[0] or (s == best[0] and i1 > best[1]):
                best = (s, i1, v1)
        s, i1, v1 = best
        out.extend([-s / q.n] * (i1 - i0))
        i0, v0 = i1, v1
    return sorted(out)


# ---------------------------------------------------------------------------
# exact power series over Q, as coefficient lists

def series_mul(a, b, n):
    out = [Fraction(0)] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[: n - i]):
                out[i + j] += x * y
    return out


def series_inv(a, n):
    assert a[0] == 1
    out = [Fraction(0)] * n
    out[0] = Fraction(1)
    for k in range(1, n):
        out[k] = -sum(a[j] * out[k - j] for j in range(1, min(k, len(a) - 1) + 1))
    return out


def series_from_poly(f: IntPolynomial, n):
    return [Fraction(f[i]) for i in range(n)]


def series_exp(a, n):
    assert a[0] == 0
    out = [Fraction(0)] * n
    out[0] = Fraction(1)
    for k in range(1, n):
        out[k] = sum(j * a[j] * out[k - j] for j in range(1, k + 1)) / k
    return out


def series_log_coeffs_of_inverse_product(factors, n):
    """log(1 / prod f_i^{m_i}) as a series, for integer polynomials f_i(0)=1."""
    acc = [Fraction(0)] * n
    acc[0] = Fraction(1)
    for f, m in factors:
        s = series_from_poly(f, n)
        for _ in range(m):
            acc = series_mul(acc, s, n)
    inv = series_inv(acc, n)
    # log via  (log g)' = g'/g
    out = [Fraction(0)] * n
    deriv = [inv[k] * k for k in range(n)]
    ginv = series_inv(inv, n)
    num = series_mul(deriv[1:] + [Fraction(0)], ginv, n)
    for k in range(1, n):
        out[k] = num[k - 1] / k
    return out


# ---------------------------------------------------------------------------
# quartic irreducibility by divisor scan

def brute_quartic_is_irreducible(f: IntPolynomial) -> bool:
    """Irreducibility over Q of a monic quartic with nonzero constant term,
    by a scan of the divisors of the constant term for a linear or a
    quadratic factor over Z; O(|f(0)|^(1/2)) steps."""
    c0 = f[0]
    # rational roots would be integer divisors of the constant term
    d = 1
    while d * d <= abs(c0):
        if abs(c0) % d == 0:
            for root in {d, -d, abs(c0) // d, -abs(c0) // d}:
                if f(root) == 0:
                    return False
        d += 1
    # quadratic factor t^2 + u t + v with integer u, v
    a1, a2 = f[3], f[2]
    vs = set()
    d = 1
    while d * d <= abs(c0):
        if abs(c0) % d == 0:
            vs.update({d, -d, abs(c0) // d, -abs(c0) // d})
        d += 1
    for v in vs:
        v2, rem = divmod(c0, v)
        if rem:
            continue
        # u + u2 = a1 and u*v2 + u2*v = f[1]
        if v2 == v:
            # u*v + u2*v = f[1] forces v | f[1]
            if f[1] % v:
                continue
            u_sum, u_cross = a1, f[1] // v
            if u_sum != u_cross:
                continue
            # u + u2 = a1, u*u2 = a2 - v - v2
            disc = a1 * a1 - 4 * (a2 - v - v2)
            if disc >= 0 and isqrt(disc) ** 2 == disc and (a1 + isqrt(disc)) % 2 == 0:
                return False
            continue
        num = f[1] - a1 * v
        den = v2 - v
        u, rem = divmod(num, den)
        if rem:
            continue
        u2 = a1 - u
        if v + v2 + u * u2 == a2:
            return False
    return True


# ---------------------------------------------------------------------------
# resultants by the Sylvester matrix and a fraction-free Bareiss determinant

def resultant(f: IntPolynomial, g: IntPolynomial) -> int:
    """Res(f, g) over Z."""
    m, n = f.degree, g.degree
    if f.is_zero() or g.is_zero():
        return 0
    if m == 0:
        return f.coeffs[0] ** n
    if n == 0:
        return g.coeffs[0] ** m
    size = m + n
    rows = []
    fr = f.coeffs[::-1]
    gr = g.coeffs[::-1]
    for i in range(n):
        rows.append([0] * i + list(fr) + [0] * (size - m - 1 - i))
    for i in range(m):
        rows.append([0] * i + list(gr) + [0] * (size - n - 1 - i))
    return _bareiss_det(rows)


def _bareiss_det(mat: list[list[int]]) -> int:
    n = len(mat)
    m = [row[:] for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]
