"""Weil polynomials of abelian varieties of dimension 1 and 2 over F_q:
validation, enumeration, Newton-type classification, point counts and
zeta functions, all in exact integer arithmetic.
"""
from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import isqrt

from .errors import Rejected
from .numtheory import IntPolynomial, PrimePower, Value, newton_slopes


class NewtonType(Enum):
    ORDINARY = "ordinary"
    SUPERSINGULAR = "supersingular"
    MIXED = "mixed"


class EndoDescriptor(Value):
    """Shape of the endomorphism algebra of the corresponding isogeny class.

    kind is one of 'field', 'quaternion-Hp', 'quaternion-Hinfty',
    'quaternion-over-field'; detail is a printable refinement, or an
    IntPolynomial f standing for the field Q[t]/(f), which is formatted only
    when the descriptor is printed.
    """

    __slots__ = ("kind", "detail")

    def __init__(self, kind: str, detail: str = ""):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "detail", detail)

    def __str__(self):
        d = self.detail
        if isinstance(d, IntPolynomial):
            d = f"Q[t]/({d})"
        return f"{self.kind}({d})" if d else self.kind


class WeilDescriptor(Value):
    """A validated isogeny class: q, dimension, char. polynomial f = P^e."""

    __slots__ = ("q", "dim", "poly", "e", "newton", "endo", "case")

    def __init__(self, q: PrimePower, dim: int, poly: IntPolynomial, e: int,
                 newton: NewtonType, endo: EndoDescriptor, case: str):
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "newton", newton)
        object.__setattr__(self, "endo", endo)
        object.__setattr__(self, "case", case)

    def slopes(self) -> tuple[Fraction, ...]:
        return newton_slopes(self.poly, self.q)


# ---------------------------------------------------------------------------
# dimension 1

def validate_elliptic(q: PrimePower, b: int) -> WeilDescriptor:
    """Validate the trace b of Frobenius for an elliptic curve over F_q.

    Accepts exactly the realizable values and raises Rejected otherwise.
    """
    qq = q.q
    if b * b > 4 * qq:
        raise Rejected(f"|b| exceeds the Weil bound: b^2 = {b * b} > 4q = {4 * qq}")
    w = _elliptic_class(q, q.p, qq, isqrt(qq), b)
    if w is None:
        raise Rejected(f"b = {b} is divisible by p but matches no supersingular case over F_{qq}")
    return w


def _elliptic_class(q: PrimePower, p: int, qq: int, r: int, b: int) -> WeilDescriptor | None:
    """The isogeny class of trace b, or None if b is not realizable, for
    b^2 <= 4q, with p = q.p, qq = q.q and r = isqrt(qq) (Waterhouse, Ann.
    Sci. ENS 2, 1969). f = t^2 - b t + q has nonzero leading and constant
    coefficients, so it needs no normalization."""
    f = IntPolynomial._trusted((qq, -b, 1))
    if b % p:
        return WeilDescriptor(q, 1, f, 1, NewtonType.ORDINARY, EndoDescriptor("field", f), "ordinary")
    sq_integral = r * r == qq
    if b * b == 4 * qq:
        # b = +-2*sqrt(q), so q must be a square; f = (t -+ sqrt(q))^2
        endo = EndoDescriptor("quaternion-Hp", f"p={p}")
        return WeilDescriptor(q, 1, f, 2, NewtonType.SUPERSINGULAR, endo, "ss-inseparable")
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
        return None
    return WeilDescriptor(q, 1, f, 1, NewtonType.SUPERSINGULAR, EndoDescriptor("field", f), case)


# enumerate_elliptic classifies all 4 sqrt(q) + 1 traces in one pass; at this
# limit that takes about 0.2 s (CPython 3.11 on one core of a 2-CPU x86-64 VM)
ENUMERATE_LIMIT = 10 ** 8


def enumerate_elliptic(q: PrimePower) -> list[WeilDescriptor]:
    """All isogeny classes of elliptic curves over F_q, ascending in b, for
    q up to ENUMERATE_LIMIT; raises Rejected above it."""
    p, qq = q.p, q.q
    if qq > ENUMERATE_LIMIT:
        raise Rejected(f"q = {qq} is above the enumeration limit {ENUMERATE_LIMIT}",
                       "elliptic isogeny classification")
    r, bound = isqrt(qq), isqrt(4 * qq)
    return [w for b in range(-bound, bound + 1)
            if (w := _elliptic_class(q, p, qq, r, b)) is not None]


# ---------------------------------------------------------------------------
# dimension 2, simple isogeny classes

_SS_QUARTIC_CASES = (
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


def _quartic_is_irreducible(qq: int, a1: int, a2: int) -> bool:
    """Irreducibility over Q of f = t^4 + a1 t^3 + a2 t^2 + a1 q t + q^2,
    for (a1, a2) inside the Weil box checked by _validate_surface_quartic.

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


def validate_surface_simple(q: PrimePower, a1: int = None, a2: int = None,
                            square_of: IntPolynomial = None) -> WeilDescriptor:
    """Validate a simple abelian surface isogeny class over F_q.

    Either give (a1, a2) for an irreducible quartic
    f = t^4 + a1 t^3 + a2 t^2 + a1 q t + q^2, or give square_of = P, a monic
    quadratic, for the classes with f = P^2.
    """
    if square_of is not None:
        return _validate_surface_square(q, square_of)
    if a1 is None or a2 is None:
        raise Rejected("need either (a1, a2) or square_of")
    return _validate_surface_quartic(q, a1, a2)


def _validate_surface_quartic(q: PrimePower, a1: int, a2: int) -> WeilDescriptor:
    p, qq = q.p, q.q
    r = isqrt(qq)
    sq = r * r == qq
    odd = q.degree_is_odd
    f = IntPolynomial([qq * qq, a1 * qq, a2, a1, 1])

    for case, test in _SS_QUARTIC_CASES:
        if test(a1, a2, qq, r, sq, odd, p):
            endo = EndoDescriptor("field", f)
            return WeilDescriptor(q, 2, f, 1, NewtonType.SUPERSINGULAR, endo, case)

    # not in the supersingular list: must be ordinary or mixed
    if a1 * a1 > 16 * qq:
        raise Rejected(f"a1^2 = {a1 * a1} > 16q = {16 * qq}")
    if 4 * a2 > a1 * a1 + 8 * qq:
        raise Rejected(f"4a2 = {4 * a2} > a1^2 + 8q = {a1 * a1 + 8 * qq}")
    if a2 + 2 * qq < 0 or (a2 + 2 * qq) ** 2 < 4 * a1 * a1 * qq:
        raise Rejected("roots are not Weil numbers: (a2 + 2q)^2 < 4 a1^2 q")
    if not _quartic_is_irreducible(qq, a1, a2):
        raise Rejected(f"{f} is reducible over Q")

    slopes = sorted(newton_slopes(f, q))
    half = Fraction(1, 2)
    if slopes == [0, 0, 1, 1]:
        nt, case = NewtonType.ORDINARY, "ordinary"
    elif slopes == [0, half, half, 1]:
        nt, case = NewtonType.MIXED, "mixed"
    elif slopes == [half] * 4:
        raise Rejected("supersingular quartic outside the classified list")
    else:
        raise Rejected(f"unexpected Newton polygon {slopes}")
    endo = EndoDescriptor("field", f)
    return WeilDescriptor(q, 2, f, 1, nt, endo, case)


def _validate_surface_square(q: PrimePower, P: IntPolynomial) -> WeilDescriptor:
    p, qq = q.p, q.q
    if P.degree != 2 or not P.is_monic():
        raise Rejected("square_of must be a monic quadratic")
    if P[0] != qq and P[0] != -qq:
        raise Rejected("quadratic constant term must be +-q")
    b = -P[1]
    f = P * P
    if q.degree_is_odd:
        if P == IntPolynomial([-qq, 0, 1]):
            endo = EndoDescriptor("quaternion-Hinfty", f"Q(sqrt({p}))")
            return WeilDescriptor(q, 2, f, 2, NewtonType.SUPERSINGULAR, endo, "ss-square-odd")
        raise Rejected("odd-degree square classes require P = t^2 - q")
    r = isqrt(qq)
    if P[0] != qq:
        raise Rejected("even-degree square classes require P = t^2 - b t + q")
    if b == 0 and p % 4 == 1:
        case = "ss-square-even-b0"
    elif abs(b) == r and p % 3 == 1:
        case = "ss-square-even-bsqrt"
    else:
        raise Rejected("b and p match no even-degree square class")
    endo = EndoDescriptor("quaternion-over-field", P)
    return WeilDescriptor(q, 2, f, 2, NewtonType.SUPERSINGULAR, endo, case)


# ---------------------------------------------------------------------------
# point counts, zeta

def abelian_point_count(w: WeilDescriptor, r: int) -> int:
    """|A(F_{q^r})| = |prod (1 - alpha_i^r)| over the roots alpha_i of the
    full char. polynomial f.

    The power sums of the alpha_i^r are s_r, s_2r, ..., s_dr of f; they give
    prod (1 - alpha_i^r x), evaluated at x = 1. O(d^2 r) integer operations.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    d = w.poly.degree
    s = _power_sums(w.poly, d * r)
    n = abs(_poly_from_power_sums(s[::r], d)(1))
    if n == 0:
        raise Rejected("characteristic polynomial shares a root with t^r - 1")
    return n


def _power_sums(f: IntPolynomial, upto: int) -> list[int]:
    """Power sums s_1..s_upto of the roots of a monic f, by Newton's identities."""
    d, c = f.degree, f.coeffs
    s = [0] * (upto + 1)
    for k in range(1, upto + 1):
        acc = k * c[d - k] if k <= d else 0
        for i in range(1, min(k - 1, d) + 1):
            acc += c[d - i] * s[k - i]
        s[k] = -acc
    return s


def _poly_from_power_sums(t: list[int], deg: int) -> IntPolynomial:
    """Monic-reversed product prod(1 - mu_j x) from power sums t_1..t_deg."""
    e = [1]
    for m in range(1, deg + 1):
        acc = 0
        for i in range(1, m + 1):
            acc += (-1) ** (i - 1) * e[m - i] * t[i]
        em, rem = divmod(acc, m)
        if rem:
            raise ValueError("power sums do not come from an integral polynomial")
        e.append(em)
    return IntPolynomial([(-1) ** m * em for m, em in enumerate(e)])


def abelian_zeta(w: WeilDescriptor) -> list[IntPolynomial]:
    """The factors P_0, ..., P_{2 dim} of the zeta function of A/F_q.

    P_i(t) = det(1 - t F | H^i); the zeta function is the alternating product.
    """
    qq = w.q.q
    f = w.poly
    p0 = IntPolynomial([1, -1])
    p1 = f.reciprocal()
    if w.dim == 1:
        return [p0, p1, IntPolynomial([1, -qq])]
    s = _power_sums(f, 12)
    pair = [0] * 7
    for k in range(1, 7):
        num = s[k] * s[k] - s[2 * k]
        if num % 2:
            raise Rejected(f"s_{k}^2 - s_{2 * k} = {num} is odd: {f} is not a monic integer polynomial")
        pair[k] = num // 2
    p2 = _poly_from_power_sums(pair, 6)
    # products of three roots are q^2 / (single root): P3(t) = f(q^2 t)/q^2
    p3 = IntPolynomial([c * qq ** (2 * i) for i, c in enumerate(f.coeffs)]).exact_div(
        IntPolynomial([qq * qq]))
    p4 = IntPolynomial([1, -qq * qq])
    return [p0, p1, p2, p3, p4]
