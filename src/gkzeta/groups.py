"""Catalog of the finite groups acting on abelian surfaces with rigid,
fixed-point-collapsing actions: cyclic groups, binary dihedral groups,
the binary tetrahedral/octahedral/icosahedral groups and a few
characteristic-special extensions.

All group facts are hardcoded, the rigid group algebras too: one
CSADescriptor each, built at import from its table row and stored as given,
its ramified places in canonical order. Nothing checks them at run time: the
structural checks (Sylow counts, torsion fixed points, the class equation)
are in tests/test_groups.py, and the paper's construction of each algebra,
with the checks on every row, is in tests/oracles.py.
"""
from __future__ import annotations

from enum import Enum

from .numtheory import Value


class GroupId(Enum):
    C2 = "C2"
    C3 = "C3"
    C4 = "C4"
    C5 = "C5"
    C6 = "C6"
    C8 = "C8"
    C10 = "C10"
    C12 = "C12"
    Q8 = "Q8"
    Q12 = "Q12"
    Q16 = "Q16"
    Q20 = "Q20"
    Q24 = "Q24"
    SL2F3 = "SL2F3"
    ESL2F3 = "ESL2F3"
    SL2F5 = "SL2F5"
    C5_C8 = "C5:C8"
    C3_C8 = "C3:C8"
    C3xQ8 = "C3xQ8"
    C3_Q16 = "C3:Q16"
    ESL2F5 = "ESL2F5"

    __hash__ = object.__hash__  # members are singletons, equal only to themselves

    def __str__(self):
        return self.value


G = GroupId

# every group by its name in upper case, and by the other names of five
_BY_NAME = {g.value.upper(): g for g in GroupId} | {
    "CSU2F3": G.ESL2F3, "CSU2F5": G.ESL2F5,
    "C5SEMIC8": G.C5_C8, "C3SEMIC8": G.C3_C8, "C3SEMIQ16": G.C3_Q16,
}


def parse_group(name: str) -> GroupId:
    g = _BY_NAME.get(name.strip().upper())
    if g is None:
        raise ValueError(f"unknown group name {name!r}")
    return g


# ---------------------------------------------------------------------------
# group facts

class StabilizerTable(Value):
    """Counts of points of the 16-torsion-like fixed locus by stabilizer.

    entries maps each nontrivial point stabilizer (a subgroup, named by its
    own GroupId) to the number of such points on the abelian surface.
    """

    __slots__ = ()
    _fields = ("case", "entries")  # entries: ((GroupId, int), ...)


class GroupFacts(Value):
    __slots__ = ()
    _fields = ("order", "cyclic_subgroup_orders",
               "stabilizer_tables")  # stabilizer_tables: tuple of StabilizerTable


def _tab(*entries, case=""):
    return StabilizerTable(case, entries)


def _facts(order, cyclic_subgroup_orders, *stabilizer_tables):
    return GroupFacts(order, frozenset(cyclic_subgroup_orders), stabilizer_tables)


_FACTS = {
    G.C2: _facts(2, {1, 2}, _tab((G.C2, 16))),
    G.C3: _facts(3, {1, 3}, _tab((G.C3, 9))),
    G.C4: _facts(4, {1, 2, 4}, _tab((G.C4, 4), (G.C2, 12))),
    G.C5: _facts(5, {1, 5}, _tab((G.C5, 5))),
    G.C6: _facts(6, {1, 2, 3, 6}, _tab((G.C6, 1), (G.C3, 8), (G.C2, 15))),
    G.C8: _facts(8, {1, 2, 4, 8}, _tab((G.C8, 2), (G.C4, 2), (G.C2, 12))),
    G.C10: _facts(10, {1, 2, 5, 10}, _tab((G.C10, 1), (G.C5, 4), (G.C2, 15))),
    G.C12: _facts(12, {1, 2, 3, 4, 6, 12}, _tab((G.C12, 1), (G.C4, 3), (G.C3, 8), (G.C2, 12))),
    G.Q8: _facts(8, {1, 2, 4}, _tab((G.Q8, 4), (G.C2, 12), case="A"),
                 _tab((G.Q8, 2), (G.C4, 6), (G.C2, 8), case="B")),
    G.Q12: _facts(12, {1, 2, 3, 4, 6}, _tab((G.Q12, 1), (G.C4, 9), (G.C3, 8), (G.C2, 6))),
    G.Q16: _facts(16, {1, 2, 4, 8}, _tab((G.Q16, 2), (G.Q8, 2), (G.C4, 4), (G.C2, 8))),
    G.Q20: _facts(20, {1, 2, 4, 5, 10}, _tab((G.Q20, 1), (G.C5, 4), (G.C4, 15))),
    G.Q24: _facts(24, {1, 2, 3, 4, 6, 12}, _tab((G.Q24, 1), (G.Q8, 3), (G.C4, 12), (G.C3, 8))),
    G.SL2F3: _facts(24, {1, 2, 3, 4, 6}, _tab((G.SL2F3, 1), (G.Q8, 3), (G.C3, 32), (G.C2, 12))),
    G.ESL2F3: _facts(48, {1, 2, 3, 4, 6, 8},
                     _tab((G.ESL2F3, 1), (G.Q16, 3), (G.C4, 12), (G.C3, 32))),
    G.SL2F5: _facts(120, {1, 2, 3, 4, 5, 6, 10},
                    _tab((G.SL2F5, 1), (G.Q8, 15), (G.C5, 24), (G.C3, 80))),
    G.C5_C8: _facts(40, {1, 2, 4, 5, 8, 10}),
    G.C3_C8: _facts(24, {1, 2, 3, 4, 6, 8, 12}),
    G.C3xQ8: _facts(24, {1, 2, 3, 4, 6, 12}),
    G.C3_Q16: _facts(48, {1, 2, 3, 4, 6, 8, 12}),
    G.ESL2F5: _facts(240, {1, 2, 3, 4, 5, 6, 8, 10, 12}),
}


def facts(g: GroupId) -> GroupFacts:
    return _FACTS[g]


def order(g: GroupId) -> int:
    return _FACTS[g].order


def is_cyclic(g: GroupId) -> bool:
    # cyclic iff it has an element of its own order
    f = _FACTS[g]
    return f.order in f.cyclic_subgroup_orders


# groups handled by the geometric singularity classification: those with
# stabilizer tables
CONFIG_GROUPS = tuple(g for g, f in _FACTS.items() if f.stabilizer_tables)


# ---------------------------------------------------------------------------
# rigid group algebras

class FieldDesc(Value):
    """A small number field: Q (param 0), Q(sqrt(param)) for a squarefree
    param, or Q(zeta_param) for param >= 3, param != 2 mod 4."""

    __slots__ = ()
    _fields = ("kind", "param")  # kind: 'Q' | 'quad' | 'cyc'

    def __str__(self):
        if self.kind == "Q":
            return "Q"
        if self.kind == "quad":
            return f"Q(sqrt({self.param}))"
        return f"Q(zeta_{self.param})"


class CSADescriptor(Value):
    """A central simple algebra: center, degree, and the places where it
    ramifies, each with local invariant 1/2 (the others have 0). A place is
    ('inf', i), the i-th real place, or ('fin', p, j), the j-th place over p;
    the real places come first, then the finite ones by (p, j).
    """

    __slots__ = ()
    _fields = ("center", "degree", "ramified")

    @property
    def invariants(self) -> tuple:
        """((place, Fraction(1, 2)), ...): the ramified places with their
        invariants, for callers that do Q/Z arithmetic."""
        from fractions import Fraction

        return tuple((pl, Fraction(1, 2)) for pl in self.ramified)

    def __str__(self):
        if not self.ramified:
            if self.degree == 1:
                return str(self.center)
            return f"M({self.degree}, {self.center})"
        invs = ", ".join(f"{_place_str(pl)}: 1/2" for pl in self.ramified)
        return f"CSA(center={self.center}, degree={self.degree}, inv={{{invs}}})"


def _place_str(pl: tuple) -> str:
    if pl[0] == "inf":
        return "oo" if pl[1] == 0 else f"oo_{pl[1]}"
    return str(pl[1]) if pl[2] == 0 else f"{pl[1]}_{pl[2]}"


# the image of Q[G] acting on the rigid part (Katsura 1987; Fujiki 1988), by
# (center kind, center parameter, degree, ramified places). C_n gives
# Q(zeta_n); Q_4n the quaternion algebra H_infty(Q(zeta_2n)^+), which is H_2
# or H_3 over Q for n = 2, 3; ('inf', i) is the i-th real place, ('fin', p, 0)
# the place over p

_H2, _H3, _H5 = ((("inf", 0), ("fin", p, 0)) for p in (2, 3, 5))  # H_p over Q
_HINF = (("inf", 0), ("inf", 1))  # H_infty over a real quadratic field


def _alg(kind, param, degree, ramified=()):
    return CSADescriptor(FieldDesc(kind, param), degree, ramified)


_RIGID = {
    G.C2: _alg("Q", 0, 1), G.C3: _alg("cyc", 3, 1), G.C4: _alg("cyc", 4, 1),
    G.C5: _alg("cyc", 5, 1), G.C6: _alg("cyc", 3, 1), G.C8: _alg("cyc", 8, 1),
    G.C10: _alg("cyc", 5, 1), G.C12: _alg("cyc", 12, 1),
    G.Q8: _alg("Q", 0, 2, _H2), G.Q12: _alg("Q", 0, 2, _H3),
    G.Q16: _alg("quad", 2, 2, _HINF), G.Q20: _alg("quad", 5, 2, _HINF),
    G.Q24: _alg("quad", 3, 2, _HINF),
    G.SL2F3: _alg("Q", 0, 2, _H2), G.ESL2F3: _alg("quad", 2, 2, _HINF),
    G.SL2F5: _alg("quad", 5, 2, _HINF),
    G.C5_C8: _alg("Q", 0, 4, _H5), G.C3_C8: _alg("cyc", 4, 2), G.C3xQ8: _alg("cyc", 3, 2),
    G.C3_Q16: _alg("Q", 0, 4, _H3), G.ESL2F5: _alg("Q", 0, 4, _H5),
}


def rigid_algebra(g: GroupId) -> CSADescriptor:
    """The image of Q[G] acting on the rigid part: a field, a quaternion
    algebra, or a 2x2 matrix algebra over one of these."""
    return _RIGID[g]
