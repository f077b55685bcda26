"""Independent oracles used by the tests: brute-force scans and exact
power-series arithmetic, implemented separately from the library code.
Some are the library's earlier, slower algorithms, kept as references, and
the builders of the algebra types keep the checks that the library, which
builds them only from its constant table, leaves to the tests.
"""
from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from gkzeta.errors import Rejected
from gkzeta.existence import ExistenceVerdict
from gkzeta.groups import CSADescriptor, FieldDesc, GroupId as G, order, rigid_algebra
from gkzeta.numtheory import Condition, IntPolynomial, PrimePower, is_prime
from gkzeta.weil import (
    ENUMERATE_LIMIT,
    NewtonType,
    WeilDescriptor,
)


# ---------------------------------------------------------------------------
# primes, roots and prime powers by the definitions

def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (inputs here are small)."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def euler_phi(r: int) -> int:
    """Euler's totient, from the factorization of r."""
    if r < 1:
        raise ValueError("euler_phi expects r >= 1")
    out = r
    for p in factorize(r):
        out = out // p * (p - 1)
    return out


def moebius(r: int) -> int:
    """The Moebius function, from the factorization of r."""
    if r < 1:
        raise ValueError("moebius expects r >= 1")
    fac = factorize(r)
    if any(e > 1 for e in fac.values()):
        return 0
    return -1 if len(fac) % 2 else 1


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    a %= p
    if a == 0:
        return 0
    s = pow(a, (p - 1) // 2, p)
    return 1 if s == 1 else -1


def squarefree_part(d: int) -> int:
    """The squarefree integer with the same square class as d."""
    if d == 0:
        raise ValueError("0 has no square class")
    sign = -1 if d < 0 else 1
    out = 1
    for p, e in factorize(abs(d)).items():
        if e % 2:
            out *= p
    return sign * out


def mult_order(a: int, m: int) -> int:
    """Least k >= 1 with a^k = 1 mod m."""
    if m < 1:
        raise ValueError("modulus must be positive")
    if gcd(a, m) != 1:
        raise ValueError(f"gcd({a}, {m}) != 1: no multiplicative order")
    if m == 1:
        return 1
    a %= m
    k, x = 1, a
    while x != 1:
        x = x * a % m
        k += 1
    return k


def splitting_in_quadratic(p: int, d: int) -> str:
    """Decomposition of a prime p in Q(sqrt(d)): 'split', 'inert' or 'ramified'.

    At p = 2 this is decided by d mod 8, where Legendre is undefined.
    """
    d = squarefree_part(d)
    if d == 1:
        raise ValueError("Q(sqrt(1)) is not a quadratic field")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 2:
        return {1: "split", 5: "inert"}.get(d % 8, "ramified")
    if d % p == 0:
        return "ramified"
    # Euler's criterion for the Legendre symbol (d/p)
    return "split" if pow(d % p, (p - 1) // 2, p) == 1 else "inert"


def splitting_in_cyclotomic(p: int, m: int) -> tuple[int, int, int]:
    """(e, f, g) for the primes over p in Q(zeta_m).

    Unramified case p | m excluded: e = 1, f = ord_m(p), g = phi(m)/f.
    If p | m, write m = p^a * m' and e = phi(p^a), f = ord_{m'}(p).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    a, m1 = 0, m
    while m1 % p == 0:
        m1 //= p
        a += 1
    e = euler_phi(p ** a) if a else 1
    f = mult_order(p, m1)
    g = euler_phi(m1) // f
    return e, f, g


def prime_sieve(n: int) -> bytearray:
    """Sieve of Eratosthenes for n >= 2: out[m] == 1 iff m < n is prime."""
    out = bytearray([0, 0]) + bytearray([1]) * (n - 2)
    for d in range(2, isqrt(n - 1) + 1):
        if out[d]:
            out[d * d::d] = bytes(len(range(d * d, n, d)))
    return out


# psi_k for k = 1..13, the least strong pseudoprime to the first k prime bases
# 2, 3, 5, ..., 41 (OEIS A014233; Jaeschke, Math. Comp. 61, 1993;
# Sorenson-Webster, Math. Comp. 86, 2017)
PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
       341550071728321, 341550071728321, 3825123056546413051,
       3825123056546413051, 3825123056546413051, 318665857834031151167461,
       3317044064679887385961981)


def brute_iroot(x: int, k: int) -> int:
    """floor(x^(1/k)) by counting up."""
    r = 0
    while (r + 1) ** k <= x:
        r += 1
    return r


def prime_power_by_factorization(q: int) -> PrimePower:
    """PrimePower.from_q by trial division, with the same ValueError texts
    (the library's earlier algorithm)."""
    if q < 1:
        raise ValueError(f"{q} is not a positive integer")
    fac = factorize(q)
    if len(fac) != 1:
        raise ValueError(f"{q} is not a prime power")
    ((p, n),) = fac.items()
    return PrimePower(p, n)


# ---------------------------------------------------------------------------
# conditions on a prime, read word by word

def condition_by_words(text: str, p: int) -> bool:
    """Condition(text).holds(p), read from the words of the text by
    divisibility, without the library's pattern or residue table: 'any p',
    'p > N', 'p != N', 'p = R mod M' or 'p != R mod M', where R is an integer
    or +-R. A condition is on a prime, so it is false at every p < 1."""
    words = text.split(" ")
    if p < 1:
        return False
    if words == ["any", "p"]:
        return True
    subject, op, *rest = words
    if subject != "p" or op not in ("=", "!=", ">"):
        raise ValueError(f"cannot read {text!r}")
    if len(rest) == 1:
        n = int(rest[0])
        return p > n if op == ">" else p != n
    r, mod, m = rest
    if mod != "mod" or op == ">":
        raise ValueError(f"cannot read {text!r}")
    targets = (int(r[2:]), -int(r[2:])) if r.startswith("+-") else (int(r),)
    hit = any((p - t) % int(m) == 0 for t in targets)
    return hit if op == "=" else not hit


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
# elliptic isogeny classes, validated trace by trace (the library's earlier
# algorithm: eager formatting, one exception per rejected trace, and every
# field of the class stored, not read off its case)

EllipticClass = namedtuple("EllipticClass", "q dim poly e newton endo case")


def brute_validate_elliptic(q: PrimePower, b: int) -> EllipticClass:
    """Validate the trace b of Frobenius for an elliptic curve over F_q.

    Accepts exactly the realizable values and raises Rejected otherwise.
    """
    p, qq = q.p, q.q
    if b * b > 4 * qq:
        raise Rejected(f"|b| exceeds the Weil bound: b^2 = {b * b} > 4q = {4 * qq}")
    r = isqrt(qq)
    sq_integral = r * r == qq

    f = IntPolynomial([qq, -b, 1])
    if b * b == 4 * qq:
        # b = +-2*sqrt(q), so q must be a square; f = (t -+ sqrt(q))^2
        endo = f"quaternion-Hp(p={p})"
        return EllipticClass(q, 1, f, 2, NewtonType.SUPERSINGULAR, endo, "ss-inseparable")

    if b % p != 0:
        endo = f"field(Q[t]/({f}))"
        return EllipticClass(q, 1, f, 1, NewtonType.ORDINARY, endo, "ordinary")

    case = None
    if b == 0:
        if not sq_integral:
            case = "ss-a"
        elif p % 4 != 1:
            case = "ss-b"
    elif sq_integral and abs(b) == r and p % 3 != 1:
        case = "ss-c"
    elif p in (2, 3) and not sq_integral and b * b == p * qq:
        case = "ss-d"
    if case is None:
        raise Rejected(f"b = {b} is divisible by p but matches no supersingular case over F_{qq}")
    endo = f"field(Q[t]/({f}))"
    return EllipticClass(q, 1, f, 1, NewtonType.SUPERSINGULAR, endo, case)


def brute_enumerate_elliptic(q: PrimePower) -> list[EllipticClass]:
    """All isogeny classes of elliptic curves over F_q, ascending in b, for
    q up to ENUMERATE_LIMIT; raises Rejected above it."""
    if q.q > ENUMERATE_LIMIT:
        raise Rejected(f"q = {q.q} is above the enumeration limit {ENUMERATE_LIMIT}",
                       "elliptic isogeny classification")
    bound = isqrt(4 * q.q)
    out = []
    for b in range(-bound, bound + 1):
        try:
            out.append(brute_validate_elliptic(q, b))
        except Rejected:
            pass
    return out


# ---------------------------------------------------------------------------
# Newton polygons by the monotone lower hull (the library's earlier algorithm)

def valuation(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def newton_slopes(f: IntPolynomial, q: PrimePower) -> tuple[Fraction, ...]:
    """Slopes of the p-adic Newton polygon of f, normalized so v(q) = 1.

    Returns one entry per root (with multiplicity), sorted ascending.
    """
    if not f.is_monic():
        raise ValueError("newton_slopes expects a monic polynomial")
    if f[0] == 0:
        raise ValueError("newton_slopes expects a nonzero constant term")
    pts = [(i, valuation(c, q.p)) for i, c in enumerate(f.coeffs) if c != 0]
    hull = _lower_hull(pts)
    out: list[Fraction] = []
    for (i1, v1), (i2, v2) in zip(hull, hull[1:]):
        s = Fraction(v1 - v2, i2 - i1) / q.n
        out.extend([s] * (i2 - i1))
    return tuple(sorted(out))


def _lower_hull(pts: list[tuple[int, int]]) -> list[tuple[int, int]]:
    hull: list[tuple[int, int]] = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


# ---------------------------------------------------------------------------
# Newton type from the slope multiset

def classify_newton(w: WeilDescriptor) -> NewtonType:
    """Newton type recomputed from the hull's slope multiset of the polynomial."""
    slopes = sorted(newton_slopes(w.poly, w.q))
    half = Fraction(1, 2)
    if all(s == half for s in slopes):
        return NewtonType.SUPERSINGULAR
    if w.dim == 1 and slopes == [0, 1]:
        return NewtonType.ORDINARY
    if w.dim == 2 and slopes == [0, 0, 1, 1]:
        return NewtonType.ORDINARY
    if w.dim == 2 and slopes == [0, half, half, 1]:
        return NewtonType.MIXED
    raise Rejected(f"slope multiset {slopes} is not admissible for dim {w.dim}")


# ---------------------------------------------------------------------------
# Newton polygon by pairwise minimum slopes

def direct_newton_slopes(f: IntPolynomial, q: PrimePower) -> list[Fraction]:
    """Slopes from the polygon computed by repeated minimal-slope search,
    a different algorithm than the monotone hull of newton_slopes."""
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


def evaluate(f: IntPolynomial, x: int) -> int:
    """f(x), by Horner's rule."""
    out = 0
    for c in reversed(f.coeffs):
        out = out * x + c
    return out


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
                if evaluate(f, root) == 0:
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
# supersingular quartics by case tests: the library's earlier form of
# Maisner-Nart's list, run on every quartic before the Weil-box checks

SS_QUARTIC_CASES = (
    # (case, test(a1, a2, q, r, sq_integral, parity_odd, p))
    ("ss-i", lambda a1, a2, qq, r, sq, odd, p: a1 == 0 and a2 == 0 and odd and p != 2),
    ("ss-ii", lambda a1, a2, qq, r, sq, odd, p: a1 == 0 and a2 == 0 and not odd and p % 8 != 1),
    ("ss-iii", lambda a1, a2, qq, r, sq, odd, p: a1 == 0 and a2 == qq and odd),
    ("ss-iv", lambda a1, a2, qq, r, sq, odd, p: a1 == 0 and a2 == -qq and odd and p != 3),
    ("ss-v", lambda a1, a2, qq, r, sq, odd, p: a1 == 0 and a2 == -qq and not odd and p % 12 != 1),
    ("ss-vi", lambda a1, a2, qq, r, sq, odd, p: sq and abs(a1) == r and a2 == qq and not odd and p % 5 != 1),
    ("ss-vii", lambda a1, a2, qq, r, sq, odd, p: p == 5 and odd and a1 * a1 == 5 * qq and a2 == 3 * qq),
    ("ss-viii", lambda a1, a2, qq, r, sq, odd, p: p == 2 and odd and a1 * a1 == 2 * qq and a2 == qq),
)


def ss_quartic_case(q: PrimePower, a1: int, a2: int) -> str | None:
    """The first case of SS_QUARTIC_CASES whose test (a1, a2) passes, or None."""
    qq = q.q
    r = isqrt(qq)
    for case, test in SS_QUARTIC_CASES:
        if test(a1, a2, qq, r, r * r == qq, q.degree_is_odd, q.p):
            return case
    return None


# ---------------------------------------------------------------------------
# point counts and the exterior square by power sums (the library's earlier
# algorithms)

def power_sums(f: IntPolynomial, upto: int) -> list[int]:
    """Power sums s_1..s_upto of the roots of a monic f, by Newton's
    identities; s[0] is 0."""
    d, c = f.degree, f.coeffs
    s = [0] * (upto + 1)
    for k in range(1, upto + 1):
        acc = k * c[d - k] if k <= d else 0
        for i in range(1, min(k - 1, d) + 1):
            acc += c[d - i] * s[k - i]
        s[k] = -acc
    return s


def poly_from_power_sums(t: list[int], deg: int) -> IntPolynomial:
    """prod (1 - mu_j x) over deg numbers mu_j, from their power sums
    t_1..t_deg, by Newton's identities for the elementary symmetric e_m."""
    e = [1]
    for m in range(1, deg + 1):
        acc = 0
        for i in range(1, m + 1):
            acc += (-1) ** (i - 1) * e[m - i] * t[i]
        assert acc % m == 0, "power sums of algebraic integers"
        e.append(acc // m)
    return IntPolynomial([(-1) ** m * em for m, em in enumerate(e)])


def point_count_by_power_sums(w: WeilDescriptor, r: int) -> int:
    """|A(F_{q^r})| = |prod (1 - alpha_i^r)|: s_r, s_2r, ..., s_dr are the
    power sums of the alpha_i^r, so the product is prod (1 - alpha_i^r x) at
    x = 1. O(d^2 r). Raises Rejected when the product is 0."""
    d = w.poly.degree
    n = abs(sum(poly_from_power_sums(power_sums(w.poly, d * r)[::r], d).coeffs))
    if n == 0:
        raise Rejected("characteristic polynomial shares a root with t^r - 1")
    return n


def p2_by_product(w: WeilDescriptor) -> tuple[int, ...]:
    """The coefficients of P_2 of a surface as the library built it before it
    expanded the product: (1 - q t)^2 (1 - c t + m t^2 - q^2 c t^3 + q^4 t^4),
    with (a1, c) read off f = t^4 + a1 t^3 + (c + 2q) t^2 + ... and
    m = q (a1^2 - 2c - 2q), multiplied out as integer tuples."""
    qq = w.q.q
    a1, c = w.poly[3], w.poly[2] - 2 * qq
    q2 = qq * qq
    left, right = (1, -2 * qq, q2), (1, -c, qq * (a1 * a1 - 2 * c - 2 * qq), -q2 * c, q2 * q2)
    out = [0] * 7
    for i, x in enumerate(left):
        for j, y in enumerate(right):
            out[i + j] += x * y
    return tuple(out)


def exterior_square_by_power_sums(w: WeilDescriptor) -> IntPolynomial:
    """P_2 = prod (1 - alpha_i alpha_j t) over i < j: the products
    alpha_i alpha_j have power sums (s_k^2 - s_2k) / 2."""
    d = w.poly.degree
    n = d * (d - 1) // 2
    s = power_sums(w.poly, 2 * n)
    return poly_from_power_sums([0] + [(s[k] ** 2 - s[2 * k]) // 2 for k in range(1, n + 1)], n)


# ---------------------------------------------------------------------------
# resultants by the Sylvester matrix and a fraction-free Bareiss determinant

def resultant(f: IntPolynomial, g: IntPolynomial) -> int:
    """Res(f, g) over Z."""
    m, n = f.degree, g.degree
    if not f.coeffs or not g.coeffs:
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


# ---------------------------------------------------------------------------
# the zeta notation read by a pattern

_TERM = re.compile(r"\s*([0-9]+)\s*(?:\^\s*([0-9]+)\s*)?")
_FIELD = re.compile(r"\s*[0-9]+\s*")


def parse_notation_by_terms(s: str) -> tuple[tuple[int, int], ...]:
    """The sorted parts of parse_zeta_notation(s), or its exception, read by
    the grammar: comma-separated terms r or r^d, where r and d are runs of the
    digits 0-9 with spaces around them. A term that does not match is named
    by its first faulty field, in int's words when int rejects the field
    too. The parts are then checked in sorted order, phi by factorization."""
    parts = []
    for term in s.split(","):
        m = _TERM.fullmatch(term)
        if m is None:
            if not term.strip():
                raise ValueError("empty term in notation")
            for field in term.strip().split("^", 1):
                if not _FIELD.fullmatch(field):
                    int(field)
                    raise ValueError(f"{field.strip()!r} is not a run of the digits 0-9")
            raise AssertionError(f"{term!r} matches field by field")
        parts.append((int(m[1]), int(m[2] or 1)))
    parts.sort()
    orders = [r for r, _ in parts]
    for i, (r, d) in enumerate(parts):
        if r in orders[:i]:
            raise Rejected(f"order {r} repeated in notation")
        if r < 1 or d < 1:
            raise Rejected("orders and degrees must be positive")
        if d <= 22 and d % euler_phi(r):
            raise Rejected(f"degree {d} at order {r} is not a multiple of phi({r})")
    total = sum(d for _, d in parts)
    if total != 22:
        raise Rejected(f"total degree {total} != 22")
    return tuple(parts)


# ---------------------------------------------------------------------------
# cyclotomic polynomials by recursive exact division (the library's earlier
# algorithm), on coefficient lists, and the NS characteristic polynomial

def _exact_quotient(f: list[int], g: tuple[int, ...]) -> list[int]:
    """f / g for coefficient lists, constant term first, g monic; asserts
    that the remainder is zero."""
    rem, n = list(f), len(g) - 1
    quot = [0] * (len(f) - n)
    for k in range(len(quot) - 1, -1, -1):
        c = quot[k] = rem[k + n]
        for j, b in enumerate(g):
            rem[j + k] -= c * b
    assert not any(rem), "nonzero remainder"
    return quot


@lru_cache(maxsize=None)
def cyclotomic_by_division(r: int) -> tuple[int, ...]:
    """The coefficients of Phi_r: t^r - 1 divided by Phi_d for each d | r, d < r."""
    f = [-1] + [0] * (r - 1) + [1]
    for d in divisors(r)[:-1]:
        f = _exact_quotient(f, cyclotomic_by_division(d))
    return tuple(f)


def _strip(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def reciprocal(coeffs) -> list[int]:
    """t^deg f(1/t) for a coefficient list, constant term first: the list
    reversed, without trailing zeros."""
    return _strip(list(coeffs)[::-1])


def scale_arg(coeffs, c: int) -> list[int]:
    """f(c t) for a coefficient list: the i-th coefficient times c^i, without
    trailing zeros."""
    return _strip([a * c ** i for i, a in enumerate(coeffs)])


def zeta_factor(r: int, q: int) -> list[int]:
    """The product of (1 - q zeta t) over the primitive r-th roots of unity
    zeta: Phi_r reversed, at q t."""
    return scale_arg(reciprocal(cyclotomic_by_division(r)), q)


def ns_polynomial(cp) -> IntPolynomial:
    """The NSCharPoly cp multiplied out: the product of Phi_r^(d_r / phi(r))."""
    out = IntPolynomial([1])
    for r, d in cp.parts:
        for _ in range(d // euler_phi(r)):
            out = out * IntPolynomial(cyclotomic_by_division(r))
    return out


# ---------------------------------------------------------------------------
# the algebra types built with every check: the library's FieldDesc and
# CSADescriptor store their fields as given, since its only source of them is
# the constant table groups._RIGID, and these builders check what they store

# ('inf', i) for the i-th real place, ('fin', p, j) for the j-th place over p
Place = tuple


def make_field(kind: str, param: int) -> FieldDesc:
    """FieldDesc(kind, param), with the parameter in canonical form."""
    if kind == "Q":
        if param:
            raise ValueError("Q takes no parameter")
    elif kind == "quad":
        if param in (0, 1) or squarefree_part(param) != param:
            raise ValueError(f"{param} is not a valid squarefree discriminant base")
    elif kind == "cyc":
        if param < 3 or param % 4 == 2:
            raise ValueError(f"cyclotomic index {param} is not in canonical form")
    else:
        raise ValueError(f"unknown field kind {kind!r}")
    return FieldDesc(kind, param)


def field_degree(k: FieldDesc) -> int:
    if k.kind == "Q":
        return 1
    if k.kind == "quad":
        return 2
    return euler_phi(k.param)


def is_totally_real(k: FieldDesc) -> bool:
    if k.kind == "quad":
        return k.param > 0
    return k.kind == "Q"


def real_place_count(k: FieldDesc) -> int:
    return field_degree(k) if is_totally_real(k) else 0


def _place_key(pl: Place):
    return (0, pl[1], 0) if pl[0] == "inf" else (1, pl[1], pl[2])


def make_csa(center: FieldDesc, degree: int, ramified) -> CSADescriptor:
    """CSADescriptor(center, degree, ramified), with the places sorted into
    the canonical order (real places first, then the finite ones by (p, j)),
    each a place of the center, and with Hilbert reciprocity."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    ramified = tuple(sorted(ramified, key=_place_key))
    seen = set()
    for pl in ramified:
        if pl in seen:
            raise ValueError(f"duplicate place {pl}")
        seen.add(pl)
        if degree % 2:
            raise ValueError(f"invariant 1/2 has period not dividing the degree {degree}")
        if pl[0] == "inf" and pl[1] >= real_place_count(center):
            raise ValueError(f"center {center} has no real place #{pl[1]}")
        if pl[0] == "fin" and not is_prime(pl[1]):
            raise ValueError(f"{pl[1]} is not prime")
    if len(ramified) % 2:
        # Hilbert reciprocity: the invariants 1/2 sum to an integer
        raise ValueError(f"local invariants sum to {len(ramified)}/2, not an integer")
    return CSADescriptor(center, degree, ramified)


# ---------------------------------------------------------------------------
# the paper's construction of the rigid algebras (the library reads them from
# a table): the fields, the places, H_p, H_infty and the matrix algebras

def _canonical_cyclotomic_index(m: int) -> int:
    # Q(zeta_m) = Q(zeta_{m/2}) when m = 2 mod 4; m <= 2 gives Q itself.
    if m % 4 == 2:
        m //= 2
    return m


def rationals() -> FieldDesc:
    return make_field("Q", 0)


def quadratic(d: int) -> FieldDesc:
    return make_field("quad", squarefree_part(d))


def cyclotomic_field(m: int) -> FieldDesc:
    m = _canonical_cyclotomic_index(m)
    if m <= 2:
        return rationals()
    return make_field("cyc", m)


def real_cyclotomic(m: int) -> FieldDesc:
    """Q(zeta_m)^+, for the m whose real subfield is Q or quadratic."""
    m = _canonical_cyclotomic_index(m)
    if m <= 2 or euler_phi(m) == 2:
        return rationals()
    if m not in _REAL_QUAD:
        raise ValueError(f"the real subfield of Q(zeta_{m}) is not quadratic")
    return quadratic(_REAL_QUAD[m])


# phi(m) = 4: the real subfield of Q(zeta_m) is the quadratic field below
_REAL_QUAD = {5: 5, 8: 2, 12: 3}


def inf_place(i: int = 0) -> Place:
    return ("inf", i)


def fin_place(p: int, j: int = 0) -> Place:
    return ("fin", p, j)


def field_algebra(k: FieldDesc) -> CSADescriptor:
    """The field itself, seen as a degree-1 algebra."""
    return make_csa(k, 1, ())


def matrix_over(a: CSADescriptor, n: int) -> CSADescriptor:
    """M(n, A): same Brauer class, degree multiplied by n."""
    return make_csa(a.center, a.degree * n, a.ramified)


def make_hp(p: int) -> CSADescriptor:
    """The quaternion algebra over Q ramified exactly at p and infinity."""
    return make_csa(rationals(), 2, (inf_place(), fin_place(p)))


def make_h_infty(k: FieldDesc) -> CSADescriptor:
    """The quaternion algebra over a totally real field k ramified exactly
    at all real places (an even number of them, by reciprocity)."""
    if not is_totally_real(k):
        raise ValueError(f"{k} is not totally real")
    return make_csa(k, 2, tuple(inf_place(i) for i in range(real_place_count(k))))


# ---------------------------------------------------------------------------
# central simple algebras by local invariant arithmetic (the library's
# earlier embedding algorithm: scalar extension, then a split test)


def is_split(a: CSADescriptor) -> bool:
    """True when the algebra is a matrix algebra over its center."""
    return not a.invariants


def m2_hp(p: int) -> CSADescriptor:
    return matrix_over(make_hp(p), 2)


def _local_degrees_inf(l: FieldDesc) -> list[int]:
    """Local degrees [L_w : R] over the real place of Q."""
    if is_totally_real(l):
        return [1] * field_degree(l)
    # totally imaginary cases here: cyc, or quad with d < 0
    return [2] * (field_degree(l) // 2)


def _local_degrees_fin(l: FieldDesc, p: int) -> list[int]:
    """Local degrees [L_w : Q_p] over p, one entry per place w of L."""
    if l.kind == "Q":
        return [1]
    if l.kind == "quad":
        kind = splitting_in_quadratic(p, l.param)
        return [1, 1] if kind == "split" else [2]
    e, f, g = splitting_in_cyclotomic(p, l.param)
    return [e * f] * g


def extend_scalars(a: CSADescriptor, l: FieldDesc) -> CSADescriptor:
    """A tensor_Q L as an algebra with center L.

    Each invariant inv_v becomes [L_w : Q_v] * inv_v at every place w over v.
    Only centers equal to Q are supported. Every invariant that survives is
    1/2, so the result is stated by its ramified places.
    """
    if a.center != rationals():
        raise ValueError("extend_scalars requires center Q")
    new: list[tuple[Place, Fraction]] = []
    for pl, inv in a.invariants:
        if pl[0] == "inf":
            degs = _local_degrees_inf(l)
            for i, d in enumerate(degs):
                if is_totally_real(l):
                    w = inf_place(i)
                else:
                    continue  # complex place kills every invariant
                v = (d * inv) % 1
                if v:
                    new.append((w, v))
        else:
            p = pl[1]
            for j, d in enumerate(_local_degrees_fin(l, p)):
                v = (d * inv) % 1
                if v:
                    new.append((fin_place(p, j), v))
    assert all(v == Fraction(1, 2) for _, v in new), new
    return make_csa(l, a.degree, tuple(w for w, _ in new))


def field_embeds_in_csa(l: FieldDesc, a: CSADescriptor) -> bool:
    """Does the field L embed into the algebra A as a maximal subfield?

    Requires [L : center] = degree(A); L embeds iff A tensor L splits.
    """
    if a.center == rationals():
        if field_degree(l) != a.degree:
            raise ValueError(
                f"[{l}:Q] = {field_degree(l)} != degree {a.degree}: not a maximal-subfield test")
        return is_split(extend_scalars(a, l))
    # relative case: L a CM quadratic extension of the totally real center,
    # algebra ramified only at real places (which all become complex in L)
    if a.degree != 2:
        raise ValueError("relative embedding only supported for quaternion algebras")
    if not _is_cm_quadratic_over(l, a.center):
        raise ValueError(f"{l} is not a CM quadratic extension of {a.center}")
    if any(pl[0] != "inf" for pl, _ in a.invariants):
        raise ValueError("relative embedding with finite ramification not supported")
    return True


def _is_cm_quadratic_over(l: FieldDesc, k: FieldDesc) -> bool:
    if l.kind != "cyc":
        return False
    m = l.param
    if k.kind == "quad":
        return _REAL_QUAD.get(m) == k.param
    if k.kind == "Q":
        return euler_phi(m) == 2
    return False


def hp_into_hinfty(p: int, d: int) -> bool:
    """Does H_p embed into H_infty(Q(sqrt(d))) over Q(sqrt(d))?

    Decided by comparing H_p tensor Q(sqrt(d)) with H_infty, invariant by
    invariant.
    """
    if d <= 1:
        raise ValueError("need a real quadratic field")
    return extend_scalars(make_hp(p), quadratic(d)) == make_h_infty(quadratic(d))


def rigid_embeds_by_invariants(g, p: int) -> bool:
    """brauer.rigid_embeds_in_m2hp by local invariant arithmetic, with the
    same ValueError and Rejected texts."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    alg = rigid_algebra(g)
    c = alg.center
    if alg.degree == 1 and c.kind == "cyc" and c.param in (3, 4, 5, 8, 12):
        if field_degree(c) == 2:
            # quartic M(2, H_p) contains M(2, K) for every quadratic K
            return True
        return field_embeds_in_csa(c, m2_hp(p))
    if alg.degree == 2 and c == rationals() and len(alg.invariants) == 2:
        fin = [pl[1] for pl, _ in alg.invariants if pl[0] == "fin"]
        if fin and fin[0] in (2, 3):
            # D and H_p share a splitting field K, so D < M(2, K) < M(2, H_p)
            return True
    if alg.degree == 2 and c.kind == "quad" and c.param in (2, 3, 5):
        if alg.invariants and all(pl[0] == "inf" for pl, _ in alg.invariants):
            return hp_into_hinfty(p, c.param)
    raise Rejected(f"{alg} is not among the tabulated embedding rows")


def end0_embeds(alg: CSADescriptor, f: IntPolynomial, q: PrimePower) -> bool:
    """Does alg embed in End^0_{F_q}(A), for the abelian surface A over F_q,
    q an odd power of a prime p >= 5, whose Frobenius polynomial f is a shape
    t^4 + u q t^2 + q^2 of the odd-degree table? End^0 is read off f alone
    (Tate, Invent. Math. 2, 1966; Honda-Tate):

    - f = (t^2 - q)^2: Q(pi) = Q(sqrt(p)) is real and p ramifies in it, so A
      is simple and End^0 is the quaternion algebra over Q(sqrt(p)) ramified
      exactly at its two real places;
    - f = (t^2 + q)^2: Q(pi) = Q(sqrt(-p)), A ~ E^2 and End^0 = M_2(Q(sqrt(-p)));
    - u = 0, 1 or -1: pi^2 / q is a primitive 4th, 3rd or 6th root of unity,
      so Q(pi) contains Q(zeta_4) or Q(zeta_3).

    A quadratic field embeds in both squares. A rational quaternion algebra
    H_{l,oo} embeds in a square's End^0, of the same dimension 8 over Q, iff
    H_{l,oo} tensor Q(sqrt(+-p)) is End^0: iff l does not split in
    Q(sqrt(+-p)).
    """
    p, qq = q.p, q.q
    if p < 5 or q.n % 2 == 0:
        raise ValueError("only odd powers of a prime p >= 5")
    u = f[2] // qq
    if f.coeffs != (qq * qq, 0, u * qq, 0, 1) or abs(u) > 2:
        raise ValueError(f"{f} is not a shape of the odd-degree table")
    c = alg.center
    if alg.degree == 1 and c.kind == "cyc" and c.param in (3, 4):
        return abs(u) == 2 or c == cyclotomic_field(4 if u == 0 else 3)
    if alg.degree == 2 and c == rationals() and abs(u) == 2:
        (l,) = [pl[1] for pl in alg.ramified if pl[0] == "fin"]
        return splitting_in_quadratic(l, -u // 2 * p) != "split"
    raise ValueError(f"{alg} with {f} is not a case of the odd-degree table")


# ---------------------------------------------------------------------------
# element orders of the stabilizer types, and the class equation of a
# stabilizer table

def _cyclic_orders(n: int) -> dict[int, int]:
    """{m: number of elements of order m} in C_n, by listing the elements."""
    out: dict[int, int] = {}
    for k in range(n):
        m = n // gcd(k, n)
        out[m] = out.get(m, 0) + 1
    return out


def _dicyclic_orders(n: int) -> dict[int, int]:
    """The same for Q_4n: a cyclic C_2n and 2n elements of order 4 outside it."""
    out = _cyclic_orders(2 * n)
    out[4] = out.get(4, 0) + 2 * n
    return out


# c_m(H) for every group that types a stabilizer; the binary tetrahedral,
# octahedral and icosahedral groups by their conjugacy classes
ELEMENT_ORDERS = {
    **{g: _cyclic_orders(n) for g, n in ((G.C2, 2), (G.C3, 3), (G.C4, 4), (G.C5, 5),
                                         (G.C6, 6), (G.C8, 8), (G.C10, 10), (G.C12, 12))},
    **{g: _dicyclic_orders(n) for g, n in ((G.Q8, 2), (G.Q12, 3), (G.Q16, 4),
                                           (G.Q20, 5), (G.Q24, 6))},
    G.SL2F3: {1: 1, 2: 1, 3: 8, 4: 6, 6: 8},
    G.ESL2F3: {1: 1, 2: 1, 3: 8, 4: 18, 6: 8, 8: 12},
    G.SL2F5: {1: 1, 2: 1, 3: 20, 4: 30, 5: 24, 6: 20, 10: 24},
}

# #Fix(g) = deg(1 - g) = Phi_m(1)^(4 / phi(m)) for an element g of order m
# of a rigid action on an abelian surface: its eigenvalues on H^1 are
# primitive m-th roots of unity
FIXED_POINTS = {2: 16, 3: 9, 4: 4, 5: 5, 6: 1, 8: 2, 10: 1, 12: 1}

# {l: number of Sylow l-subgroups} for every group of the catalog
SYLOW_COUNTS = {
    G.C2: {2: 1}, G.C3: {3: 1}, G.C4: {2: 1}, G.C5: {5: 1}, G.C6: {2: 1, 3: 1},
    G.C8: {2: 1}, G.C10: {2: 1, 5: 1}, G.C12: {2: 1, 3: 1},
    G.Q8: {2: 1}, G.Q12: {2: 3, 3: 1}, G.Q16: {2: 1}, G.Q20: {2: 5, 5: 1},
    G.Q24: {2: 3, 3: 1}, G.SL2F3: {2: 1, 3: 4}, G.ESL2F3: {2: 3, 3: 4},
    G.SL2F5: {2: 5, 3: 10, 5: 6}, G.C5_C8: {2: 5, 5: 1}, G.C3_C8: {2: 3, 3: 1},
    G.C3xQ8: {2: 1, 3: 1}, G.C3_Q16: {2: 3, 3: 1}, G.ESL2F5: {2: 5, 3: 10, 5: 6},
}


def class_equation_failures(g, entries) -> list[int]:
    """The orders m at which a stabilizer table ((H, N), ...) of g breaks
    the class equation sum N c_m(H) = c_m(G) #Fix(m): both sides count the
    pairs (element of order m, point it fixes)."""
    return [m for m, fix in FIXED_POINTS.items()
            if sum(n * ELEMENT_ORDERS[h].get(m, 0) for h, n in entries)
            != ELEMENT_ORDERS[g].get(m, 0) * fix]


# ---------------------------------------------------------------------------
# existence verdicts, built afresh on every call from the paper's tables as
# typed here: the even-degree, prime-field and refinement classifications

# the one element order n in {5, 8, 12} of each configuration group that has
# one, whose clause p != +-1 mod n refines Katsura's theorem
CLAUSE_ORDER = {G.C5: 5, G.C10: 5, G.Q20: 5, G.SL2F5: 5,
                G.C8: 8, G.Q16: 8, G.ESL2F3: 8, G.C12: 12, G.Q24: 12}
EVEN_GROUPS = (G.C3, G.C4, G.C5, G.C6, G.C8, G.C10, G.C12, G.Q8, G.Q12, G.Q16, G.Q20,
               G.Q24, G.SL2F3, G.ESL2F3, G.SL2F5)
DIRECT_GROUPS = (G.C2, G.C3, G.C4, G.C6, G.Q8, G.Q12, G.SL2F3)
PRIME_FIELD_CONDITIONS = {G.C2: "any p", G.C3: "any p", G.C4: "any p", G.C6: "any p",
                          G.Q8: "p != 2", G.SL2F3: "p != 2", G.Q12: "p > 3"}


def fresh_even_verdict(g, p: int) -> ExistenceVerdict:
    cite = "even-degree classification"
    if g not in EVEN_GROUPS:
        raise Rejected(f"{g} is not covered by the even-degree classification")
    n = CLAUSE_ORDER.get(g)
    if n is None:
        return ExistenceVerdict(True, True, cite, (("any p coprime to |G|", True),), ())
    sympl = Condition(f"p != +-1 mod {n}")
    rigid = Condition(f"p != 1 mod {n}") if g.value.startswith("C") else sympl
    r, s = rigid.holds(p), sympl.holds(p)
    return ExistenceVerdict(r, s, cite, ((rigid.text, r), (f"symplectic: {sympl.text}", s)), ())


def fresh_prime_field_verdict(g, p: int) -> ExistenceVerdict:
    cite = "prime-field sufficiency"
    text = PRIME_FIELD_CONDITIONS.get(g)
    if text is None:
        return ExistenceVerdict(None, None, cite,
                                (("group outside the prime-field sufficiency list", False),), ())
    ok = Condition(text).holds(p)
    val = True if ok else None
    return ExistenceVerdict(val, val, cite, ((text, ok),), ())


def fresh_refinement_verdict(g, q: PrimePower) -> ExistenceVerdict:
    cite = "quotient refinement"
    p = q.p
    if p == 2:
        raise Rejected("p = 2 is excluded from the refinement")
    if order(g) % p == 0:
        raise Rejected(f"p = {p} divides |{g}| = {order(g)}")
    if g in DIRECT_GROUPS:
        return ExistenceVerdict(True, True, cite, (("group in the unconditional list", True),), ())
    n = CLAUSE_ORDER.get(g)
    if n is None:
        raise Rejected(f"{g} is not in the quotient-construction list")
    clause = Condition(f"p != +-1 mod {n}")
    even, holds = q.n % 2 == 0, clause.holds(p)
    return ExistenceVerdict(even and holds, even and holds, cite,
                            (("field degree even", even), (clause.text, holds)), ())
