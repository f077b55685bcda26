"""Independent answers for the benchmark's correctness checks.

Everything here is written out from the paper's tables and congruences, or
computed by an algorithm different from the library's, and never calls into
`gkzeta`. The workloads compare the library's outputs with these answers
outside the timed region.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt


def primes_below(n: int) -> list[int]:
    """Sieve of Eratosthenes."""
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for i in range(2, isqrt(n - 1) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(range(i * i, n, i)))
    return [i for i in range(n) if sieve[i]]


def phi(r: int) -> int:
    return sum(1 for k in range(1, r + 1) if gcd(k, r) == 1)


def mu(r: int) -> int:
    out, n, d = 1, r, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


# ---------------------------------------------------------------------------
# group data from the paper: order, element orders in {5, 8, 12}

GROUP_ORDER = {
    "C2": 2, "C3": 3, "C4": 4, "C5": 5, "C6": 6, "C8": 8, "C10": 10, "C12": 12,
    "Q8": 8, "Q12": 12, "Q16": 16, "Q20": 20, "Q24": 24, "SL2F3": 24,
    "ESL2F3": 48, "SL2F5": 120, "C5:C8": 40, "C3:C8": 24, "C3xQ8": 24,
    "C3:Q16": 48, "ESL2F5": 240,
}
ALL_GROUPS = tuple(GROUP_ORDER)
CONFIG_GROUPS = ALL_GROUPS[:16]

# element orders n in {5, 8, 12} that trigger the refinement clause p != +-1 mod n
REFINE_ORDERS = {
    "C5": (5,), "C8": (8,), "C10": (5,), "C12": (12,), "Q16": (8,),
    "Q20": (5,), "Q24": (12,), "ESL2F3": (8,), "SL2F5": (5,),
}
REFINE_DIRECT = ("C2", "C3", "C4", "C6", "Q8", "Q12", "SL2F3")


def _always(p):
    return True


def _not1(n):
    return lambda p: p % n != 1


def _notpm1(n):
    return lambda p: p % n not in (1, n - 1)


# ---------------------------------------------------------------------------
# rigid group algebras: (degree, center kind, center parameter, ramified places)

RIGID_ALGEBRA = {
    "C2": (1, "Q", 0, ()), "C3": (1, "cyc", 3, ()), "C4": (1, "cyc", 4, ()),
    "C5": (1, "cyc", 5, ()), "C6": (1, "cyc", 3, ()), "C8": (1, "cyc", 8, ()),
    "C10": (1, "cyc", 5, ()), "C12": (1, "cyc", 12, ()),
    "Q8": (2, "Q", 0, ("2", "oo")), "Q12": (2, "Q", 0, ("3", "oo")),
    "Q16": (2, "quad", 2, ("oo", "oo_1")), "Q20": (2, "quad", 5, ("oo", "oo_1")),
    "Q24": (2, "quad", 3, ("oo", "oo_1")), "SL2F3": (2, "Q", 0, ("2", "oo")),
    "ESL2F3": (2, "quad", 2, ("oo", "oo_1")), "SL2F5": (2, "quad", 5, ("oo", "oo_1")),
    "C5:C8": (4, "Q", 0, ("5", "oo")), "C3:C8": (2, "cyc", 4, ()),
    "C3xQ8": (2, "cyc", 3, ()), "C3:Q16": (4, "Q", 0, ("3", "oo")),
    "ESL2F5": (4, "Q", 0, ("5", "oo")),
}


def algebra_shape(alg) -> tuple:
    """The library's CSADescriptor reduced to the RIGID_ALGEBRA form."""
    places = []
    for pl, inv in alg.invariants:
        if inv != Fraction(1, 2):
            places.append(f"bad-invariant-{inv}")
        elif pl[0] == "inf":
            places.append("oo" if pl[1] == 0 else f"oo_{pl[1]}")
        else:
            places.append(str(pl[1]))
    return (alg.degree, alg.center.kind, alg.center.param, tuple(sorted(places)))


# ---------------------------------------------------------------------------
# M(2, H_p) embedding table; None marks algebras outside the tabulated rows

EMBEDS = {
    "C2": None, "C3": _always, "C4": _always, "C5": _not1(5), "C6": _always,
    "C8": _not1(8), "C10": _not1(5), "C12": _not1(12),
    "Q8": _always, "Q12": _always, "Q16": _notpm1(8), "Q20": _notpm1(5),
    "Q24": _notpm1(12), "SL2F3": _always, "ESL2F3": _notpm1(8), "SL2F5": _notpm1(5),
    "C5:C8": None, "C3:C8": None, "C3xQ8": None, "C3:Q16": None, "ESL2F5": None,
}


def embeds(g: str, p: int):
    """True/False from the congruence, None when the row is not tabulated."""
    cond = EMBEDS[g]
    return None if cond is None else cond(p)


# ---------------------------------------------------------------------------
# existence over even-degree fields: (rigid, rigid symplectic); C2 is not covered

EVEN_EXISTS = {
    "C3": (_always, _always), "C4": (_always, _always), "C6": (_always, _always),
    "C5": (_not1(5), _notpm1(5)), "C10": (_not1(5), _notpm1(5)),
    "C8": (_not1(8), _notpm1(8)), "C12": (_not1(12), _notpm1(12)),
    "Q8": (_always, _always), "Q12": (_always, _always), "SL2F3": (_always, _always),
    "Q16": (_notpm1(8),) * 2, "Q20": (_notpm1(5),) * 2, "Q24": (_notpm1(12),) * 2,
    "ESL2F3": (_notpm1(8),) * 2, "SL2F5": (_notpm1(5),) * 2,
}


def even_exists(g: str, p: int):
    """(rigid, symplectic), or None when the group is not covered."""
    if g not in EVEN_EXISTS:
        return None
    col1, col2 = EVEN_EXISTS[g]
    return col1(p), col2(p)


def prime_field_exists(g: str, p: int):
    """Sufficiency over F_p: True, or None when not determined."""
    if g in ("C2", "C3", "C4", "C6"):
        return True
    if g in ("Q8", "SL2F3"):
        return True if p != 2 else None
    if g == "Q12":
        return True if p > 3 else None
    return None


def refined_exists(g: str, p: int, odd_degree: bool):
    """Quotient-surface refinement, or None when the query is excluded."""
    if p == 2 or GROUP_ORDER[g] % p == 0 or g not in CONFIG_GROUPS:
        return None
    if g in REFINE_DIRECT:
        return True
    return not odd_degree and all(p % n not in (1, n - 1) for n in REFINE_ORDERS.get(g, ()))


# odd-degree fields: the two square shapes (t^2 -+ q)^2 per group, p >= 5
ODD_SQUARE_SHAPES = {
    "Q8": (_not1(8), lambda p: p % 8 != 7), "SL2F3": (_not1(8), lambda p: p % 8 != 7),
    "Q12": (lambda p: p % 3 != 2, lambda p: p % 3 != 1),
    "C3": (_always, _always), "C4": (_always, _always), "C6": (_always, _always),
}


# ---------------------------------------------------------------------------
# trace tables: (trace, notation, group, condition on p)

EVEN_TRACE_ROWS = (
    (22, "1^22", "C2", lambda p: p > 2),
    (18, "1^20,2^2", "C4", lambda p: p > 2),
    (14, "1^18,2^4", "C2", lambda p: p > 2),
    (10, "1^14,2^4,4^4", "C2", lambda p: p > 2),
    (8, "1^15,2^7", "C4", lambda p: p > 2),
    (6, "1^14,2^8", "C2", lambda p: p > 2),
    (4, "1^10,3^12", "C2", lambda p: p > 2),
    (2, "1^12,2^10", "C2", lambda p: p > 2),
    (0, "1^6,2^4,3^8,6^4", "C2", lambda p: p > 2 and p % 12 != 1),
)

ODD_TRACE_ROWS = (
    (20, "1^21,2", "Q8", lambda p: p % 4 == 3),
    (18, "1^20,2^2", "C4", lambda p: p % 4 == 1),
    (18, "1^20,2^2", "C2", lambda p: p % 4 == 3),
    (14, "1^18,2^4", "C2", lambda p: p % 4 == 1),
    (10, "1^16,2^6", "C2", lambda p: p % 4 == 3),
    (8, "1^15,2^7", "C4", lambda p: p % 4 == 1),
    (6, "1^14,2^8", "C2", lambda p: p > 2),
    (2, "1^12,2^10", "C2", lambda p: p > 2),
    (0, "1^6,2^4,3^8,6^4", "C2", lambda p: p > 2),
)


def trace_rows(parity: str, p: int) -> list[tuple]:
    rows = EVEN_TRACE_ROWS if parity == "even" else ODD_TRACE_ROWS
    return [(tr, notation, g) for tr, notation, g, cond in rows if cond(p)]


def notation_parts(notation: str) -> dict[int, int]:
    out = {}
    for term in notation.split(","):
        r, _, d = term.partition("^")
        out[int(r)] = int(d) if d else 1
    return out


@lru_cache(maxsize=None)
def notation_trace(notation: str) -> int:
    """Trace of Frobenius/q on NS: sum of mu(r) d_r / phi(r)."""
    return sum(mu(r) * d // phi(r) for r, d in notation_parts(notation).items())


def odd_degree_impossible(notation: str) -> bool:
    """Notations that cannot occur over a field of odd degree."""
    parts = notation_parts(notation)
    return parts == {1: 22} or all(r % 2 for r in parts)


# singularity configurations: group -> exceptional node count per case
CONFIG_NODES = {
    "C2": (16,), "C3": (18,), "C4": (18,), "C5": (20,), "C6": (18,), "C8": (20,),
    "C10": (20,), "C12": (20,), "Q8": (19, 19), "Q12": (19,), "Q16": (20,),
    "Q20": (20,), "Q24": (20,), "SL2F3": (19,), "ESL2F3": (20,), "SL2F5": (20,),
}


# ---------------------------------------------------------------------------
# Weil polynomials

def elliptic_traces(p: int, n: int) -> list[int]:
    """Realizable Frobenius traces over F_{p^n}, by scanning every b."""
    q = p ** n
    root = isqrt(q)
    square = root * root == q
    out = []
    for b in range(-isqrt(4 * q), isqrt(4 * q) + 1):
        if (b % p != 0
                or (b == 0 and (not square or p % 4 != 1))
                or (square and abs(b) == root and p % 3 != 1)
                or (p in (2, 3) and not square and b * b == p * q)
                or (square and abs(b) == 2 * root)):
            out.append(b)
    return out


def in_weil_box(q: int, a1: int, a2: int) -> bool:
    """Necessary conditions for t^4 + a1 t^3 + a2 t^2 + a1 q t + q^2 to have
    all roots of absolute value sqrt(q)."""
    return (a1 * a1 <= 16 * q and 4 * a2 <= a1 * a1 + 8 * q
            and a2 + 2 * q >= 0 and (a2 + 2 * q) ** 2 >= 4 * a1 * a1 * q)


def splits_through_trace(q: int, a1: int, a2: int) -> bool:
    """f = (t^2 - u t + q)(t^2 - v t + q) with integers u, v: reducible."""
    disc = a1 * a1 - 4 * a2 + 8 * q
    return disc >= 0 and isqrt(disc) ** 2 == disc


def newton_type(coeffs: tuple, p: int, n: int) -> str:
    """Newton type from the lower convex hull, found by repeatedly taking the
    minimal slope from the current vertex."""
    def v(c):
        k, c = 0, abs(c)
        while c % p == 0:
            c //= p
            k += 1
        return k

    pts = [(i, v(c)) for i, c in enumerate(coeffs) if c]
    slopes = []
    i0, v0 = pts[0]
    while i0 < len(coeffs) - 1:
        s, i1, v1 = min(((Fraction(v1 - v0, i1 - i0), -i1, v1) for i1, v1 in pts if i1 > i0))
        i1 = -i1
        slopes += [-s / n] * (i1 - i0)
        i0, v0 = i1, v1
    slopes.sort()
    half = Fraction(1, 2)
    if all(s == half for s in slopes):
        return "supersingular"
    if slopes == [0, 0, 1, 1] or slopes == [0, 1]:
        return "ordinary"
    if slopes == [0, half, half, 1]:
        return "mixed"
    return "inadmissible"


def power_sums(coeffs: tuple, upto: int) -> list[int]:
    """s_k = sum of k-th powers of the roots of a monic polynomial given
    constant term first, for k = 0..upto, by Newton's recurrence."""
    d = len(coeffs) - 1
    a = [coeffs[d - i] for i in range(d + 1)]  # f = t^d + a1 t^(d-1) + ...
    s = [d]
    for k in range(1, upto + 1):
        acc = -sum(a[i] * s[k - i] for i in range(1, min(k - 1, d) + 1))
        if k <= d:
            acc -= k * a[k]
        s.append(acc)
    return s


def point_count(coeffs: tuple, r: int) -> int:
    """|A(F_{q^r})| = prod (1 - alpha_i^r) from power sums of the roots of
    alpha^r, a different algorithm from a resultant."""
    d = len(coeffs) - 1
    s = power_sums(coeffs, d * r)
    t = [s[j * r] for j in range(d + 1)]
    e = [1]
    for m in range(1, d + 1):
        acc = sum((-1) ** (i - 1) * e[m - i] * t[i] for i in range(1, m + 1))
        if acc % m:
            raise ArithmeticError("non-integral symmetric function")
        e.append(acc // m)
    return sum((-1) ** m * e[m] for m in range(d + 1))
