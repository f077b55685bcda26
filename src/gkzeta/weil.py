"""Weil polynomials of abelian varieties of dimension 1 and 2 over F_q:
validation, enumeration, Newton-type classification, point counts and
zeta functions, all in exact integer arithmetic.
"""
from __future__ import annotations

from enum import Enum
from math import isqrt

from .errors import Rejected
from .numtheory import Condition, IntPolynomial, PrimePower, Value


class NewtonType(Enum):
    ORDINARY = "ordinary"
    SUPERSINGULAR = "supersingular"
    MIXED = "mixed"


class WeilDescriptor(Value):
    """A validated isogeny class over F_q: its characteristic polynomial
    poly = f = P^e and its case, 'ordinary', 'mixed' or a supersingular 'ss-*'.
    The case fixes the rest: dim, e, the Newton type and the endomorphism
    algebra are read off it when asked for, not stored."""

    __slots__ = ("q", "poly", "case")

    @property
    def dim(self) -> int:
        return len(self.poly.coeffs) // 2

    @property
    def e(self) -> int:
        # f = (t -+ sqrt(q))^2 or f = P^2 for a quadratic P
        return 2 if self.case == "ss-inseparable" or self.case.startswith("ss-square") else 1

    @property
    def newton(self) -> NewtonType:
        if self.case == "ordinary":
            return NewtonType.ORDINARY
        return NewtonType.MIXED if self.case == "mixed" else NewtonType.SUPERSINGULAR

    @property
    def endo(self) -> str:
        """The endomorphism algebra End(A) (x) Q as text: its kind, 'field',
        'quaternion-Hp', 'quaternion-Hinfty' or 'quaternion-over-field', and
        in parentheses a refinement such as p=3 or the field Q[t]/(t^2 + 7)."""
        case, p = self.case, self.q.p
        if case == "ss-inseparable":
            return f"quaternion-Hp(p={p})"
        if case == "ss-square-odd":
            return f"quaternion-Hinfty(Q(sqrt({p})))"
        if case.startswith("ss-square-even"):
            # f = P^2 with P = t^2 + (f_3 / 2) t + q
            P = IntPolynomial._trusted((self.q.q, self.poly[3] // 2, 1))
            return f"quaternion-over-field(Q[t]/({P}))"
        return f"field(Q[t]/({self.poly}))"

    def slopes(self) -> tuple[str, ...]:
        """The p-adic slopes of poly as text, normalized so that v(q) = 1,
        ascending: read off the Newton type, which fixes them in dimension 1
        and 2."""
        d = self.poly.degree
        if self.newton is NewtonType.SUPERSINGULAR:
            return ("1/2",) * d
        if self.newton is NewtonType.ORDINARY:
            return ("0",) * (d // 2) + ("1",) * (d // 2)
        return ("0", "1/2", "1/2", "1")


# ---------------------------------------------------------------------------
# dimension 1

def validate_elliptic(q: PrimePower, b: int) -> WeilDescriptor:
    """Validate the trace b of Frobenius for an elliptic curve over F_q.

    Accepts exactly the realizable values and raises Rejected otherwise.
    """
    p, qq = q.p, q.q
    if b * b > 4 * qq:
        raise Rejected(f"|b| exceeds the Weil bound: b^2 = {b * b} > 4q = {4 * qq}")
    case = "ordinary" if b % p else _supersingular_case(p, qq, isqrt(qq), b)
    if case is None:
        raise Rejected(f"b = {b} is divisible by p but matches no supersingular case over F_{qq}")
    return WeilDescriptor(q, IntPolynomial._trusted((qq, -b, 1)), case)


def _supersingular_case(p: int, qq: int, r: int, b: int) -> str | None:
    """Waterhouse's case of a trace b divisible by p, with b^2 <= 4q and
    r = isqrt(q), or None if no elliptic curve over F_q has trace b
    (Waterhouse, Ann. Sci. ENS 2, 1969)."""
    if b * b == 4 * qq:
        # b = +-2*sqrt(q), so q must be a square; f = (t -+ sqrt(q))^2
        return "ss-inseparable"
    sq_integral = r * r == qq
    if b == 0:
        if not sq_integral:
            return "ss-a"
        return "ss-b" if p % 4 != 1 else None
    if sq_integral and abs(b) == r and p % 3 != 1:
        return "ss-c"
    if p in (2, 3) and not sq_integral and b * b == p * qq:
        return "ss-d"
    return None


# the slots' own setters, with which enumerate_elliptic builds each class
_new, _set_coeffs = object.__new__, IntPolynomial.coeffs.__set__
_set_q, _set_poly, _set_case = (WeilDescriptor.q.__set__, WeilDescriptor.poly.__set__,
                                WeilDescriptor.case.__set__)

# enumerate_elliptic classifies all 4 sqrt(q) + 1 traces in one pass; at this
# limit that takes about 0.04 s, 1 us a class, of which the cyclic garbage
# collector takes a third or more (CPython 3.11.7 on a 2-CPU x86-64 VM)
ENUMERATE_LIMIT = 10 ** 8


def enumerate_elliptic(q: PrimePower) -> list[WeilDescriptor]:
    """All isogeny classes of elliptic curves over F_q, ascending in b, for
    q up to ENUMERATE_LIMIT; raises Rejected above it."""
    p, qq = q.p, q.q
    if qq > ENUMERATE_LIMIT:
        raise Rejected(f"q = {qq} is above the enumeration limit {ENUMERATE_LIMIT}",
                       "elliptic isogeny classification")
    r, bound = isqrt(qq), isqrt(4 * qq)
    out = []
    for b in range(-bound, bound + 1):
        case = "ordinary" if b % p else _supersingular_case(p, qq, r, b)
        if case is None:
            continue
        # WeilDescriptor(q, IntPolynomial._trusted((qq, -b, 1)), case) without
        # the two calls: f = t^2 - b t + q needs no normalization
        f = _new(IntPolynomial)
        _set_coeffs(f, (qq, -b, 1))
        w = _new(WeilDescriptor)
        _set_q(w, q)
        _set_poly(w, f)
        _set_case(w, case)
        out.append(w)
    return out


# ---------------------------------------------------------------------------
# dimension 2, simple isogeny classes

# the supersingular quartics (Maisner-Nart, Experiment. Math. 11 (2002),
# Thm 2.9), by (a1^2 / q, a2 / q, odd degree): the case, and the condition on
# p under which it is realized; a1^2 = 5q or 2q over an odd degree already
# forces p = 5 or p = 2
_SS_QUARTICS = {
    (0, 0, True): ("ss-i", Condition("p != 2")),
    (0, 0, False): ("ss-ii", Condition("p != 1 mod 8")),
    (0, 1, True): ("ss-iii", Condition("any p")),
    # the paper adds p != 3, but at p = 3 f is reducible: a1^2 - 4a2 + 8q = 12q is a square
    (0, -1, True): ("ss-iv", Condition("any p")),
    (0, -1, False): ("ss-v", Condition("p != 1 mod 12")),
    (1, 1, False): ("ss-vi", Condition("p != 1 mod 5")),
    (5, 3, True): ("ss-vii", Condition("any p")),
    (2, 1, True): ("ss-viii", Condition("any p")),
}


def _quartic_is_irreducible(qq: int, a1: int, a2: int) -> bool:
    """Irreducibility over Q of f = t^4 + a1 t^3 + a2 t^2 + a1 q t + q^2,
    for (a1, a2) inside the Weil box checked by validate_surface_simple.

    f(t) = t^2 h(t + q/t) with h(x) = x^2 + a1 x + (a2 - 2q). If h splits
    over Q, so does f. If not, a rational quadratic factor of f pairs two
    roots lying over different roots of h; their product has absolute value
    q and is not q, so both factors are t^2 +- u t - q. Matching coefficients
    gives a1 = 0 and a2 = -2q - u^2, and the box leaves only f = (t^2 - q)^2.
    See Rück, Compositio Math. 76 (1990), and Maisner-Nart, Experiment.
    Math. 11 (2002).
    """
    if a1 == 0 and a2 == -2 * qq:
        return False
    disc = a1 * a1 - 4 * a2 + 8 * qq
    return isqrt(disc) ** 2 != disc


def validate_surface_simple(q: PrimePower, a1: int, a2: int) -> WeilDescriptor:
    """Validate the simple abelian surface isogeny class over F_q of the
    irreducible quartic f = t^4 + a1 t^3 + a2 t^2 + a1 q t + q^2."""
    p, qq = q.p, q.q
    f = IntPolynomial([qq * qq, a1 * qq, a2, a1, 1])
    if a1 * a1 > 16 * qq:
        raise Rejected(f"a1^2 = {a1 * a1} > 16q = {16 * qq}")
    if 4 * a2 > a1 * a1 + 8 * qq:
        raise Rejected(f"4a2 = {4 * a2} > a1^2 + 8q = {a1 * a1 + 8 * qq}")
    if a2 + 2 * qq < 0 or (a2 + 2 * qq) ** 2 < 4 * a1 * a1 * qq:
        raise Rejected("roots are not Weil numbers: (a2 + 2q)^2 < 4 a1^2 q")
    if not _quartic_is_irreducible(qq, a1, a2):
        raise Rejected(f"{f} is reducible over Q")

    # the lower hull of (4, 0), (3, v(a1)), (2, v(a2)), (1, v(a1) + n), (0, 2n)
    # has slopes 0,0,1,1 iff p does not divide a2; 0,1/2,1/2,1 iff p does not
    # divide a1 and h = p^ceil(n/2) divides a2; all 1/2 iff h | a1 and q | a2
    # (Maisner-Nart, Experiment. Math. 11 (2002), Thm 2.9)
    h = p ** ((q.n + 1) // 2)
    if a2 % p:
        return WeilDescriptor(q, f, "ordinary")
    if a1 % p and a2 % h == 0:
        return WeilDescriptor(q, f, "mixed")
    if a1 % h == 0 and a2 % qq == 0:
        # h^2 is a multiple of q, so a1^2 / q is an integer
        case, cond = _SS_QUARTICS.get((a1 * a1 // qq, a2 // qq, q.degree_is_odd), (None, None))
        if case and cond.holds(p):
            return WeilDescriptor(q, f, case)
        raise Rejected("supersingular quartic outside the classified list")
    raise Rejected(f"the Newton polygon of {f} is not that of an abelian surface")


def validate_surface_square(q: PrimePower, P: IntPolynomial) -> WeilDescriptor:
    """Validate the abelian surface isogeny class over F_q with f = P^2, for a
    monic quadratic P."""
    p, qq = q.p, q.q
    if P.degree != 2 or not P.is_monic():
        raise Rejected("P must be a monic quadratic")
    if P[0] != qq and P[0] != -qq:
        raise Rejected("quadratic constant term must be +-q")
    b = -P[1]
    f = P * P
    if q.degree_is_odd:
        if P == IntPolynomial([-qq, 0, 1]):
            return WeilDescriptor(q, f, "ss-square-odd")
        raise Rejected("odd-degree square classes require P = t^2 - q")
    if P[0] != qq:
        raise Rejected("even-degree square classes require P = t^2 - b t + q")
    if b == 0 and p % 4 == 1:
        return WeilDescriptor(q, f, "ss-square-even-b0")
    if abs(b) == isqrt(qq) and p % 3 == 1:
        return WeilDescriptor(q, f, "ss-square-even-bsqrt")
    raise Rejected("b and p match no even-degree square class")


# ---------------------------------------------------------------------------
# point counts, zeta

def _real_weil(w: WeilDescriptor) -> tuple[int, int]:
    """(a1, c) of the real Weil polynomial h(x) = x^2 + a1 x + c of a surface,
    f(t) = t^2 h(t + q/t), so that each root x = alpha + q/alpha of h carries
    the roots alpha, q/alpha of f. For a curve, h = x - b and (a1, c) = (-b, 0)
    gives x h(x). Raises Rejected when f is not a q-symmetric Weil polynomial.
    """
    f, qq = w.poly.coeffs, w.q.q
    if (len(f) not in (3, 5) or f[-1] != 1 or f[0] != qq ** w.dim
            or (len(f) == 5 and f[1] != qq * f[3])):
        raise Rejected(f"{w.poly} is not q-symmetric: its roots do not pair as alpha, q/alpha",
                       "Weil polynomial functional equation")
    return (f[1], 0) if len(f) == 3 else (f[3], f[2] - 2 * qq)


def abelian_point_count(w: WeilDescriptor, r: int) -> int:
    """|A(F_{q^r})| = |prod (1 - alpha^r)(1 - (q/alpha)^r)| = |N(1 + q^r - V_r(x))|,
    with V_r(alpha + q/alpha) = alpha^r + (q/alpha)^r and N the norm from
    Z[x]/(h) to Z: u^2 - a1 u v + c v^2 on u + v x. For a curve the ladder runs
    mod x^2 - b x and the count is 1 + q^r - V_r(b).

    V_r comes by the Lucas doubling V_2k = V_k^2 - 2q^k,
    V_2k+1 = V_k V_k+1 - x q^k on pairs u + v x: O(log r) products.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    a1, c = _real_weil(w)
    qq = w.q.q
    # (u0, v0), (u1, v1) = V_k, V_k+1 and qk = q^k, from k = 1: V_1 = x, V_2 = x^2 - 2q
    u0, v0, u1, v1, qk = 0, 1, -c - 2 * qq, -a1, qq
    for bit in bin(r)[3:]:
        vv = v0 * v1
        odd = u0 * u1 - c * vv, u0 * v1 + u1 * v0 - a1 * vv - qk
        if bit == "1":
            vv = v1 * v1
            u0, v0 = odd
            u1, v1 = u1 * u1 - c * vv - 2 * qk * qq, 2 * u1 * v1 - a1 * vv
            qk *= qk * qq
        else:
            vv = v0 * v0
            u0, v0 = u0 * u0 - c * vv - 2 * qk, 2 * u0 * v0 - a1 * vv
            u1, v1 = odd
            qk *= qk
    # 1 + q^r - V_r = u - v0 x, whose value at x = b is u + a1 v0
    u = 1 + qk - u0
    at_b = u + a1 * v0
    n = abs(at_b if w.dim == 1 else u * at_b + c * v0 * v0)
    if n == 0:
        raise Rejected("characteristic polynomial shares a root with t^r - 1")
    return n


def abelian_zeta(w: WeilDescriptor) -> list[IntPolynomial]:
    """The factors P_0, ..., P_{2 dim} of the zeta function of A/F_q.

    P_i(t) = det(1 - t F | H^i); the zeta function is the alternating product.
    """
    qq = w.q.q
    a1, c = _real_weil(w)
    f = w.poly
    p0 = IntPolynomial([1, -1])
    p1 = IntPolynomial._trusted(f.coeffs[::-1])  # f(0) = q^dim != 0
    if w.dim == 1:
        return [p0, p1, IntPolynomial([1, -qq])]
    # the products of two roots are q, q and the roots of t^2 - u t + q^2 and
    # t^2 - v t + q^2, with u + v = c and u v = q (a1^2 - 2 a2) = q (a1^2 - 2c - 4q)
    q2 = qq * qq
    p2 = IntPolynomial([1, -2 * qq, q2]) * IntPolynomial(
        [1, -c, qq * (a1 * a1 - 2 * c - 2 * qq), -q2 * c, q2 * q2])
    # products of three roots are q^2 / (single root): P3(t) = f(q^2 t) / f(0)
    p3 = IntPolynomial([1] + [a * qq ** (2 * i - 2) for i, a in enumerate(f.coeffs) if i])
    p4 = IntPolynomial([1, -q2])
    return [p0, p1, p2, p3, p4]
