"""Singularity configurations of generalized Kummer surfaces and the exact
arithmetic of their Neron-Severi Frobenius action: ADE orbit data, rank
bounds, Frobenius action on resolution graphs, assembly of the degree-22
characteristic polynomial in cyclotomic notation, traces, point counts and
zeta functions. The one table of cyclotomic orders, mu(r), phi(r) and Phi_r
for the 43 r with phi(r) <= 22, is built here at import, and from it the
table of the 146 parts a notation can hold; so are the trace-table rows of
each class of p mod 12.
"""
from __future__ import annotations

from operator import mul

from .errors import Rejected
from .groups import CONFIG_GROUPS, GroupId, facts, is_cyclic, order
from .numtheory import Condition, IntPolynomial, PrimePower, Value, is_prime

G = GroupId
_new = tuple.__new__  # builds a value from its fields, a polynomial from its coefficients
_ONE_MINUS_T = (_new(IntPolynomial, (1, -1)), 1)  # k3_zeta's factor (1 - t), shared


# ---------------------------------------------------------------------------
# ADE types

class ADEType(Value):
    """A rational double point type: A_m (m>=1), D_m (m>=4) or E_m (m in 6..8)."""

    __slots__ = ()
    _fields = ("kind", "m")

    def __new__(cls, kind: str, m: int):
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
        return tuple.__new__(cls, (kind, m))

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

    __slots__ = ()
    _fields = ("ade", "count", "degree", "graph_action")

    def __new__(cls, ade: ADEType, count: int, degree: int, graph_action: str):
        if count < 1 or degree < 1:
            raise ValueError("count and degree must be >= 1")
        if count % degree:
            raise ValueError("orbit degree must divide the point count")
        if graph_action not in ("trivial", "chain-flip", "unknown"):
            raise ValueError(f"bad graph action {graph_action!r}")
        return tuple.__new__(cls, (ade, count, degree, graph_action))

    @property
    def nodes(self) -> int:
        return self.count * self.ade.m

    def __str__(self):
        head = f"{self.count}{self.ade}" if self.count > 1 else str(self.ade)
        return head


class SingularConfig(Value):
    """The full geometric singularity configuration of a quotient surface."""

    __slots__ = ()
    _fields = ("group", "case", "orbits")  # orbits: SingularOrbit, by descending nodes

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
    N * |H| / |G| singular points of the ADE type attached to H (a whole
    number for every table: tests/test_groups.py checks it)."""
    if g not in CONFIG_GROUPS:
        raise Rejected(f"{g} has no recorded singularity configuration")
    out = []
    n = order(g)
    for tab in facts(g).stabilizer_tables:
        orbits = sorted((SingularOrbit(ade_of_stabilizer(h), pts * order(h) // n, 1, "unknown")
                         for h, pts in tab.entries), key=lambda o: (-o.ade.m, -ord(o.ade.kind)))
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

def _order_rows(bound: int) -> dict:
    """{r: (mu(r), phi(r), Phi_r reversed)} for every r with phi(r) <= bound,
    ascending in r. The r are the products of coprime prime powers p^k whose
    phi(p^k) = p^(k-1) (p - 1) multiply to at most bound, so p <= bound + 1,
    and mu(p) = -1, mu(p^k) = 0 for k >= 2 multiply along. Phi_r reversed is
    the product of the (1 - t^d)^mu(r/d), d | r, as a power series cut at
    degree phi(r): one pass over the coefficients per d (Arnold-Monagan,
    Math. Comp. 80, 2011). Each r/d has phi(r/d) <= phi(r), so its mu is in
    the sieve. For r = 1 the series is 1 - t, and Phi_r is palindromic for
    r > 1, so the series is Phi_r reversed at every r."""
    sieve = {1: (1, 1)}
    for p in filter(is_prime, range(2, bound + 2)):
        for r, (mu, n) in list(sieve.items()):  # the r so far are coprime to p
            pk, f, mu = p, p - 1, -mu
            while n * f <= bound:
                sieve[r * pk], pk, f, mu = (mu, n * f), pk * p, f * p, 0
    rows = {}
    for r in sorted(sieve):
        n = sieve[r][1]
        c = [1] + [0] * n
        for e, (mu, _) in sieve.items():  # mu(r/d) for each d = r/e
            if r % e:
                continue
            d = r // e
            if mu == 1:  # times (1 - t^d)
                for i in range(n, d - 1, -1):
                    c[i] -= c[i - d]
            elif mu == -1:  # divided by (1 - t^d), i.e. times 1 + t^d + t^2d + ...
                for i in range(d, n + 1):
                    c[i] += c[i - d]
        rows[r] = (*sieve[r], tuple(c))
    return rows


# one row per cyclotomic order that a notation can name, built at import: a
# part (r, d) needs phi(r) | d <= 22, and phi(r) >= sqrt(r/2), so every such
# r is at most 2 * 22^2 (43 orders, the largest 66)
_ORDERS = _order_rows(22)


def _spell(r: int, d: int) -> str:
    """The printed text of the part (r, d): r^d, or r alone when d = 1."""
    return f"{r}^{d}" if d > 1 else str(r)


# every part (r, d) a notation can hold, phi(r) | d <= 22 (146 parts), built at
# import from _ORDERS: its trace mu(r) d / phi(r), Phi_r reversed and the
# multiplicity d / phi(r) of Phi_r; and each part by its printed text
_PARTS = {(r, d): (mu * d // phi, c, d // phi)
          for r, (mu, phi, c) in _ORDERS.items() for d in range(phi, 23, phi)}
_TEXTS = {_spell(*part): part for part in _PARTS}


class NSCharPoly(Value):
    """det(t - F/q | NS) as its parts (r, d_r), one per order r, with d_r the
    total degree of the cyclotomic factor Phi_r^(d_r / phi(r)); printed in
    the notation that parse_zeta_notation reads. The parts are (int, int)
    pairs, stored sorted as given."""

    __slots__ = ()
    _fields = ("parts",)  # sorted ((r, d_r), ...)

    def __new__(cls, parts):
        return tuple.__new__(cls, (_notation_parts(parts),))

    def __str__(self):
        return ",".join(_spell(r, d) for r, d in self.parts)


def _notation_parts(parts) -> tuple:
    """parts sorted, if they make a notation. A part of _PARTS whose order is
    new is valid on its own; any other part is checked field by field, so
    that the first fault in sorted order is the one named."""
    items = tuple(sorted(parts))
    total, last = 0, None
    for part in items:
        if part not in _PARTS or part[0] == last:
            r, d = part
            if r == last:
                raise Rejected(f"order {r} repeated in notation")
            if r < 1 or d < 1:
                raise Rejected("orders and degrees must be positive")
            # an order outside _ORDERS has phi(r) > 22; a part with d > 22
            # is rejected below whatever phi(r) is, so no r is factored
            row = _ORDERS.get(r)
            if d <= 22 and (row is None or d % row[1]):
                raise Rejected(f"degree {d} at order {r} is not a multiple of phi({r})")
        total, last = total + part[1], part[0]
    if total != 22:
        raise Rejected(f"total degree {total} != 22")
    return items


def parse_zeta_notation(s: str) -> NSCharPoly:
    """Parse '1^20,2^2' style notation: comma-separated r^d terms with d the
    total degree contributed at order r (omitted exponent means d = 1). Each
    term printed as NSCharPoly prints it is read from _TEXTS."""
    try:
        parts = [_TEXTS[term] for term in s.split(",")]
    except KeyError:
        parts = _parse_terms(s)
    return _new(NSCharPoly, (_notation_parts(parts),))


def _parse_terms(s: str) -> list:
    """The parts of s read term by term: r and d are runs of the digits 0-9,
    with spaces around them allowed."""
    parts = []
    for term in s.split(","):
        term = term.strip()
        if not term:
            raise ValueError("empty term in notation")
        r_s, caret, d_s = term.partition("^")
        parts.append((_digits(r_s), _digits(d_s) if caret else 1))
    return parts


def _digits(s: str) -> int:
    """int(s) for a run of the digits 0-9 with spaces around it; a ValueError
    for anything else, in int's own words when int rejects it too."""
    n = int(s)
    t = s.strip()
    if not (t.isascii() and t.isdigit()):
        raise ValueError(f"{t!r} is not a run of the digits 0-9")
    return n


# ---------------------------------------------------------------------------
# contributions of exceptional divisors and the invariant part

def exceptional_charpoly(orbit: SingularOrbit) -> dict[int, int]:
    """Cyclotomic degree contribution {r: d_r} of one exceptional orbit.

    A trivial-action orbit of degree d contributes phi(r) at each r | d for
    every node of one fiber; a rational chain-flip on A_m splits into
    ceil(m/2) invariant classes and floor(m/2) swapped pairs. An orbit of
    more than 22 nodes is rejected first, so that d <= 22 and every r | d
    has its phi(r) in _ORDERS.
    """
    _check_action(orbit)
    if orbit.nodes > 22:
        raise Rejected("an orbit has more than 22 exceptional nodes",
                       "rank NS(X) <= b_2(X) = 22")
    if orbit.graph_action == "trivial":
        d, per = orbit.degree, orbit.ade.m * (orbit.count // orbit.degree)
        return {r: _ORDERS[r][1] * per for r in range(1, d + 1) if d % r == 0}
    m = orbit.ade.m
    out = {1: (m + 1) // 2 * orbit.count}
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
        if abs(n) >= 10 ** 2000:  # str(n) could pass CPython's 4300-digit limit
            raise Rejected("|total degree| >= 10^2000, not 22", "rank NS(X) = b_2(X) = 22")
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
    tr = 0
    for part in cp.parts:
        tr += _PARTS[part][0]
    return tr


def k3_point_count(q: PrimePower, cp: NSCharPoly) -> int:
    """|X(F_q)| = 1 + q * Tr + q^2 for a surface whose cohomology is
    spanned by divisor classes (Lefschetz trace formula); a notation for
    which this is negative is no surface's over F_q, and is rejected."""
    qq = q.q
    n = 1 + qq * trace_of(cp) + qq * qq
    if n < 0:
        raise Rejected(f"{cp} gives |X(F_{qq})| = {n} < 0", "Lefschetz trace formula")
    return n


class ZetaFunction(Value):
    """1 / prod of the listed (polynomial, multiplicity) factors."""

    __slots__ = ()
    _fields = ("denominator",)  # (IntPolynomial, int) pairs

    def __str__(self):
        def fmt(f, m):
            s = f"({f.format(ascending=True)})"
            return s if m == 1 else f"{s}^{m}"

        return "1/(" + " ".join(fmt(f, m) for f, m in self.denominator) + ")"


def k3_zeta(q: PrimePower, cp: NSCharPoly) -> ZetaFunction:
    """Zeta function 1 / ((1-t) P2(t) (1-q^2 t)) where P2 collects, for each
    cyclotomic order r, the factor with roots q * zeta_r."""
    qq = q.q
    q2 = qq * qq
    factors = [_ONE_MINUS_T]
    for part in cp.parts:
        # Phi_r reversed, at q t: the last coefficient is +-q^phi(r), not 0;
        # written out for the orders 1, 2, 3, 4 and 6, of phi(r) <= 2
        _, c, m = _PARTS[part]
        if len(c) <= 3:
            f = (1, c[1] * qq) if len(c) == 2 else (1, c[1] * qq, c[2] * q2)
        else:
            f = map(mul, c, [qq ** i for i in range(len(c))])
        factors.append((_new(IntPolynomial, f), m))
    factors.append((_new(IntPolynomial, (1, -q2)), 1))
    return _new(ZetaFunction, (tuple(factors),))


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
    __slots__ = ()
    _fields = ("trace", "notation", "group", "p_condition", "weil_shape")


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


# the rows that hold at a p >= 3, by p's class mod 12, built at import: every
# row condition is p > 2 or a congruence mod 3, 4 or 12, so at p >= 3 it holds
# or fails with p's class, here read at the p = 12 + class
_EVEN_BY_CLASS, _ODD_BY_CLASS = (tuple(tuple(row for row in rows if row.p_condition.holds(12 + c))
                                       for c in range(12)) for rows in (_EVEN_ROWS, _ODD_ROWS))


def trace_table(parity: str, p: int = None) -> tuple[TraceRow, ...]:
    """Realizable (trace, char. polynomial) pairs for supersingular quotient
    surfaces over fields of the given degree parity, optionally filtered by
    the row conditions at p.  Every row needs an odd p."""
    if parity == "even":
        rows, by_class = _EVEN_ROWS, _EVEN_BY_CLASS
    elif parity == "odd":
        rows, by_class = _ODD_ROWS, _ODD_BY_CLASS
    else:
        raise ValueError("parity must be 'even' or 'odd'")
    if p is None:
        return rows
    if p > 2:
        return by_class[p % 12]
    if p == 2:
        return ()
    return tuple(row for row in rows if row.p_condition.holds(p))
