"""Independent oracles used by the tests: brute-force scans and exact
power-series arithmetic, implemented separately from the library code.
Some are the library's earlier, slower algorithms, kept as references.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from gkzeta.brauer import CSADescriptor, FieldDesc, Place
from gkzeta.errors import Rejected
from gkzeta.groups import GroupId as G, rigid_algebra
from gkzeta.numtheory import (
    IntPolynomial,
    PrimePower,
    cyclotomic,
    divisors,
    euler_phi,
    factorize,
    is_prime,
    squarefree_part,
)
from gkzeta.weil import (
    ENUMERATE_LIMIT,
    NewtonType,
    WeilDescriptor,
)


# ---------------------------------------------------------------------------
# primes, roots and prime powers by the definitions

def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    a %= p
    if a == 0:
        return 0
    s = pow(a, (p - 1) // 2, p)
    return 1 if s == 1 else -1


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
            out = out * cyclotomic(r)
    return out


# ---------------------------------------------------------------------------
# the paper's construction of the rigid algebras (the library reads them from
# a table): the fields, the places, H_p, H_infty and the matrix algebras

def _canonical_cyclotomic_index(m: int) -> int:
    # Q(zeta_m) = Q(zeta_{m/2}) when m = 2 mod 4; m <= 2 gives Q itself.
    if m % 4 == 2:
        m //= 2
    return m


def rationals() -> FieldDesc:
    return FieldDesc("Q", 0)


def quadratic(d: int) -> FieldDesc:
    return FieldDesc("quad", squarefree_part(d))


def cyclotomic_field(m: int) -> FieldDesc:
    m = _canonical_cyclotomic_index(m)
    if m <= 2:
        return rationals()
    return FieldDesc("cyc", m)


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
    return CSADescriptor(k, 1, ())


def matrix_over(a: CSADescriptor, n: int) -> CSADescriptor:
    """M(n, A): same Brauer class, degree multiplied by n."""
    return CSADescriptor(a.center, a.degree * n, a.ramified)


def make_hp(p: int) -> CSADescriptor:
    """The quaternion algebra over Q ramified exactly at p and infinity."""
    return CSADescriptor(rationals(), 2, (inf_place(), fin_place(p)))


def make_h_infty(k: FieldDesc) -> CSADescriptor:
    """The quaternion algebra over a totally real field k ramified exactly
    at all real places (an even number of them, by reciprocity)."""
    if not k.is_totally_real:
        raise ValueError(f"{k} is not totally real")
    return CSADescriptor(k, 2, tuple(inf_place(i) for i in range(k.real_place_count)))


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
    if l.is_totally_real:
        return [1] * l.degree
    # totally imaginary cases here: cyc, or quad with d < 0
    return [2] * (l.degree // 2)


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
                if l.is_totally_real:
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
    return CSADescriptor(l, a.degree, tuple(w for w, _ in new))


def field_embeds_in_csa(l: FieldDesc, a: CSADescriptor) -> bool:
    """Does the field L embed into the algebra A as a maximal subfield?

    Requires [L : center] = degree(A); L embeds iff A tensor L splits.
    """
    if a.center == rationals():
        if l.degree != a.degree:
            raise ValueError(
                f"[{l}:Q] = {l.degree} != degree {a.degree}: not a maximal-subfield test")
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
        if c.degree == 2:
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
