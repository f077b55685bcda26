"""Singularity configurations of generalized Kummer surfaces and the exact
arithmetic of their Neron-Severi Frobenius action: ADE orbit data, rank
bounds, Frobenius action on resolution graphs, assembly of the degree-22
characteristic polynomial in cyclotomic notation, traces, point counts and
zeta functions.
"""
from __future__ import annotations

from operator import mul

from .errors import Rejected
from .groups import CONFIG_GROUPS, GroupId, facts, is_cyclic, order
from .numtheory import (
    Condition,
    IntPolynomial,
    PrimePower,
    Value,
    cyclotomic,
    divisors,
    euler_phi,
    moebius,
)

G = GroupId
_ONE_MINUS_T = (IntPolynomial._trusted((1, -1)), 1)  # k3_zeta's factor (1 - t), shared


# ---------------------------------------------------------------------------
# ADE types

class ADEType(Value):
    """A rational double point type: A_m (m>=1), D_m (m>=4) or E_m (m in 6..8)."""

    __slots__ = ("kind", "m")

    def __init__(self, kind: str, m: int):
        if kind == "A":
            ok = m >= 1
        elif kind == "D":
            ok = m >= 4
        elif kind == "E":
            ok = m in (6, 7, 8)
        else:
            ok = False
        if not ok:
            raise ValueError(f"invalid ADE type {kind}{m}")
        self._fill(kind, m)

    def __str__(self):
        return f"{self.kind}{self.m}"


# stabilizer subgroup -> singularity type of its image point
def ade_of_stabilizer(h: GroupId) -> ADEType:
    if is_cyclic(h):
        return ADEType("A", order(h) - 1)
    if h.value.startswith("Q"):
        return ADEType("D", order(h) // 4 + 2)
    if h == G.SL2F3:
        return ADEType("E", 6)
    if h == G.ESL2F3:
        return ADEType("E", 7)
    if h == G.SL2F5:
        return ADEType("E", 8)
    raise ValueError(f"{h} cannot stabilize a point")


# ---------------------------------------------------------------------------
# singular configurations

class SingularOrbit(Value):
    """A Galois orbit of singular points sharing an ADE type.

    count is the number of geometric points in the orbit; degree and
    graph_action describe the Frobenius action when known ('trivial',
    'chain-flip' or 'unknown').
    """

    __slots__ = ("ade", "count", "degree", "graph_action")

    def __init__(self, ade: ADEType, count: int, degree: int, graph_action: str):
        if count < 1 or degree < 1:
            raise ValueError("count and degree must be >= 1")
        if count % degree:
            raise ValueError("orbit degree must divide the point count")
        if graph_action not in ("trivial", "chain-flip", "unknown"):
            raise ValueError(f"bad graph action {graph_action!r}")
        self._fill(ade, count, degree, graph_action)

    @property
    def nodes(self) -> int:
        return self.count * self.ade.m

    def __str__(self):
        head = f"{self.count}{self.ade}" if self.count > 1 else str(self.ade)
        return head


class SingularConfig(Value):
    """The full geometric singularity configuration of a quotient surface."""

    __slots__ = ("group", "case", "orbits")  # orbits: SingularOrbit, by descending nodes

    @property
    def total_nodes(self) -> int:
        return sum(o.nodes for o in self.orbits)

    def __str__(self):
        body = " + ".join(str(o) for o in self.orbits)
        tag = f" (case {self.case})" if self.case else ""
        return f"{self.group}{tag}: {body}"


def singular_configs(g: GroupId) -> tuple[SingularConfig, ...]:
    """All singularity configurations for G, derived from the stabilizer
    tables by orbit counting: a stabilizer class H with N points gives
    N * |H| / |G| singular points of the ADE type attached to H."""
    if g not in CONFIG_GROUPS:
        raise Rejected(f"{g} has no recorded singularity configuration")
    out = []
    n = order(g)
    for tab in facts(g).stabilizer_tables:
        orbits = []
        for h, pts in tab.entries:
            num, rem = divmod(pts * order(h), n)
            if rem:
                raise AssertionError(f"stabilizer table for {g} is not orbit-consistent")
            orbits.append(SingularOrbit(ade_of_stabilizer(h), num, 1, "unknown"))
        orbits.sort(key=lambda o: (-o.ade.m, -ord(o.ade.kind)))
        out.append(SingularConfig(g, tab.case, tuple(orbits)))
    return tuple(out)


def ns_rank_bound(cfg: SingularConfig) -> tuple[int, bool]:
    """(bound, exact): rank of NS is exactly 22 when the exceptional locus
    has 20 nodes, otherwise at least nodes + 1."""
    n = cfg.total_nodes
    if n > 20:
        raise Rejected(f"{cfg.group} configuration has {n} > 20 exceptional nodes")
    if n == 20:
        return 22, True
    return n + 1, False


# ---------------------------------------------------------------------------
# the degree-22 characteristic polynomial in cyclotomic notation

class NSCharPoly(Value):
    """det(t - F/q | NS) as its parts (r, d_r), one per order r, with d_r the
    total degree of the cyclotomic factor Phi_r^(d_r / phi(r)); printed in
    the notation that parse_zeta_notation reads."""

    __slots__ = ("parts",)  # sorted ((r, d_r), ...)

    def __init__(self, parts):
        items = tuple(sorted((int(r), int(d)) for r, d in parts))
        total, last = 0, None
        for r, d in items:
            if r == last:
                raise Rejected(f"order {r} repeated in notation")
            if r < 1 or d < 1:
                raise Rejected("orders and degrees must be positive")
            # phi(r) >= sqrt(r/2) > d if r > 2d^2; a part with d > 22 is
            # rejected below whatever phi(r) is, so no r > 2 * 22^2 is factored
            if d <= 22 and (r > 2 * d * d or d % euler_phi(r)):
                raise Rejected(f"degree {d} at order {r} is not a multiple of phi({r})")
            total, last = total + d, r
        if total != 22:
            raise Rejected(f"total degree {total} != 22")
        self._fill(items)

    def __str__(self):
        return ",".join(f"{r}^{d}" if d > 1 else str(r) for r, d in self.parts)


def parse_zeta_notation(s: str) -> NSCharPoly:
    """Parse '1^20,2^2' style notation: comma-separated r^d terms with d the
    total degree contributed at order r (omitted exponent means d = 1)."""
    parts = []
    for term in s.split(","):
        term = term.strip()
        if not term:
            raise ValueError("empty term in notation")
        r_s, caret, d_s = term.partition("^")
        parts.append((int(r_s), int(d_s) if caret else 1))
    return NSCharPoly(parts)


# ---------------------------------------------------------------------------
# contributions of exceptional divisors and the invariant part

def exceptional_charpoly(orbit: SingularOrbit) -> dict[int, int]:
    """Cyclotomic degree contribution {r: d_r} of one exceptional orbit.

    A trivial-action orbit of degree d contributes phi(r) at each r | d for
    every node of one fiber; a rational chain-flip on A_m splits into
    ceil(m/2) invariant classes and floor(m/2) swapped pairs.
    """
    _check_action(orbit)
    out: dict[int, int] = {}
    if orbit.graph_action == "trivial":
        for r in divisors(orbit.degree):
            out[r] = out.get(r, 0) + euler_phi(r) * orbit.ade.m * (orbit.count // orbit.degree)
        return out
    m = orbit.ade.m
    out[1] = (m + 1) // 2 * orbit.count
    if m // 2:
        out[2] = m // 2 * orbit.count
    return out


def _check_action(orbit: SingularOrbit) -> None:
    """Reject an orbit whose graph action exceptional_charpoly cannot expand."""
    if orbit.graph_action == "unknown":
        raise Rejected("cannot assemble an orbit with unknown graph action")
    if orbit.graph_action == "chain-flip":
        if orbit.ade.kind != "A":
            raise Rejected("chain-flip is only defined on A-type graphs")
        if orbit.degree != 1:
            raise Rejected("chain-flip contribution only implemented for rational points")


def invariant_h_poly(g: GroupId, eps: int) -> dict[int, int]:
    """Contribution {r: d_r} of the rank-4 invariant sublattice, for the
    square Weil classes f = (t^2 + eps q)^2.

    Cyclic groups of order 3, 4, 6 give (t-q)^2 (t+q)^2; the quaternionic
    groups give (t + eps q)^2 (t - eps q).
    """
    if eps not in (1, -1):
        raise Rejected("eps must be +-1")
    if g in (G.C3, G.C4, G.C6):
        return {1: 2, 2: 2}
    if g in (G.Q8, G.Q12, G.SL2F3):
        if eps == -1:
            return {1: 2, 2: 1}
        return {1: 1, 2: 2}
    raise Rejected(f"no invariant-part polynomial recorded for {g}")


def assemble_ns(orbits, h_part: dict) -> NSCharPoly:
    """Sum the contributions of all exceptional orbits and the invariant
    part into a full degree-22 characteristic polynomial. Each orbit adds
    orbit.nodes to the degree, so the total is checked before any is expanded."""
    for orbit in orbits:
        _check_action(orbit)
    n = sum(h_part.values()) + sum(orbit.nodes for orbit in orbits)
    if n != 22:
        raise Rejected(f"total degree {n} != 22")
    total = dict(h_part)
    for orbit in orbits:
        for r, d in exceptional_charpoly(orbit).items():
            total[r] = total.get(r, 0) + d
    return NSCharPoly(tuple(total.items()))


# ---------------------------------------------------------------------------
# traces, point counts, zeta

def trace_of(cp: NSCharPoly) -> int:
    """Trace of the normalized Frobenius on NS: sum of mu(r) d_r / phi(r)."""
    return sum([moebius(r) * d // euler_phi(r) for r, d in cp.parts])


def k3_point_count(q: PrimePower, cp: NSCharPoly) -> int:
    """|X(F_q)| = 1 + q * Tr + q^2 for a surface whose cohomology is
    spanned by divisor classes."""
    qq = q.q
    return 1 + qq * trace_of(cp) + qq * qq


class ZetaFunction(Value):
    """1 / prod of the listed (polynomial, multiplicity) factors."""

    __slots__ = ("q", "denominator")  # denominator: (IntPolynomial, int) pairs

    def __str__(self):
        def fmt(f, m):
            s = f"({f.format(ascending=True)})"
            return s if m == 1 else f"{s}^{m}"

        return "1/(" + " ".join(fmt(f, m) for f, m in self.denominator) + ")"


def k3_zeta(q: PrimePower, cp: NSCharPoly) -> ZetaFunction:
    """Zeta function 1 / ((1-t) P2(t) (1-q^2 t)) where P2 collects, for each
    cyclotomic order r, the factor with roots q * zeta_r."""
    qq = q.q
    powers = [1, qq, qq * qq]
    factors = [_ONE_MINUS_T]
    for r, d in cp.parts:
        # Phi_r reversed, at q t: the last coefficient is +-q^phi(r), not 0
        c = cyclotomic(r).coeffs[::-1]
        while len(powers) < len(c):
            powers.append(powers[-1] * qq)
        factors.append((IntPolynomial._trusted(tuple(map(mul, c, powers))), d // (len(c) - 1)))
    factors.append((IntPolynomial._trusted((1, -powers[2])), 1))
    return ZetaFunction(q, tuple(factors))


def artin_check(q: PrimePower, cp: NSCharPoly) -> bool:
    """Reject characteristic polynomials impossible over odd-degree fields:
    the full-rank lattice cannot be entirely Frobenius-invariant, and some
    even cyclotomic order must appear."""
    if not q.degree_is_odd:
        return True
    if all(r % 2 for r, _ in cp.parts):
        return False
    return True


# ---------------------------------------------------------------------------
# trace tables

class TraceRow(Value):
    __slots__ = ("trace", "notation", "group", "p_condition", "weil_shape")


def _rows(*rows) -> tuple[TraceRow, ...]:
    return tuple(TraceRow(tr, nt, g, Condition(cond), shape) for tr, nt, g, cond, shape in rows)


_EVEN_ROWS = _rows(
    (22, "1^22", G.C2, "p > 2", "(t +- sqrt(q))^4"),
    (18, "1^20,2^2", G.C4, "p > 2", "(t^2 - q)^2"),
    (14, "1^18,2^4", G.C2, "p > 2", "(t^2 - q)^2"),
    (10, "1^14,2^4,4^4", G.C2, "p > 2", "(t^2 + q)(t +- sqrt(q))^2"),
    (8, "1^15,2^7", G.C4, "p > 2", "(t^2 - q)^2"),
    (6, "1^14,2^8", G.C2, "p > 2", "(t^2 +- q)^2"),
    (4, "1^10,3^12", G.C2, "p > 2", "(t^2 +- sqrt(q) t + q)^2"),
    (2, "1^12,2^10", G.C2, "p > 2", "(t^2 - q)^2"),
    (0, "1^6,2^4,3^8,6^4", G.C2, "p != 1 mod 12", "t^4 - q t^2 + q^2"),
)

_ODD_ROWS = _rows(
    (20, "1^21,2", G.Q8, "p = 3 mod 4", "(t^2 - q)^2"),
    (18, "1^20,2^2", G.C4, "p = 1 mod 4", "(t^2 - q)^2"),
    (18, "1^20,2^2", G.C2, "p = 3 mod 4", "(t^2 + q)^2"),
    (14, "1^18,2^4", G.C2, "p = 1 mod 4", "(t^2 - q)^2"),
    (10, "1^16,2^6", G.C2, "p = 3 mod 4", "(t^2 + q)^2"),
    (8, "1^15,2^7", G.C4, "p = 1 mod 4", "(t^2 - q)^2"),
    (6, "1^14,2^8", G.C2, "p > 2", "(t^2 + q)^2"),
    (2, "1^12,2^10", G.C2, "p > 2", "(t^2 - q)^2"),
    (0, "1^6,2^4,3^8,6^4", G.C2, "p > 2", "t^4 - q t^2 + q^2"),
)


def trace_table(parity: str, p: int = None) -> tuple[TraceRow, ...]:
    """Realizable (trace, char. polynomial) pairs for supersingular quotient
    surfaces over fields of the given degree parity, optionally filtered by
    the row conditions at p.  Every row needs an odd p."""
    if parity == "even":
        rows = _EVEN_ROWS
    elif parity == "odd":
        rows = _ODD_ROWS
    else:
        raise ValueError("parity must be 'even' or 'odd'")
    if p is None:
        return rows
    if p == 2:
        return ()
    return tuple(row for row in rows if row.p_condition.holds(p))
