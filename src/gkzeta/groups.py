"""Catalog of the finite groups acting on abelian surfaces with rigid,
fixed-point-collapsing actions: cyclic groups, binary dihedral groups,
the binary tetrahedral/octahedral/icosahedral groups and a few
characteristic-special extensions.

All group facts are hardcoded, the rigid group algebras too: one table row
each, which brauer's types validate on the first call per group. Nothing
else here checks them at run time; the structural checks (Sylow counts,
torsion fixed points, the class equation) are in tests/test_groups.py, and
the paper's construction of each algebra is in tests/oracles.py.
"""
from __future__ import annotations

from enum import Enum
from functools import cache

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

    def __str__(self):
        return self.value


_ALIASES = {
    "CSU2F3": GroupId.ESL2F3,
    "CSU2F5": GroupId.ESL2F5,
    "C5SEMIC8": GroupId.C5_C8,
    "C3SEMIC8": GroupId.C3_C8,
    "C3SEMIQ16": GroupId.C3_Q16,
}


def parse_group(name: str) -> GroupId:
    key = name.strip().upper()
    for g in GroupId:
        if g.value.upper() == key:
            return g
    if key in _ALIASES:
        return _ALIASES[key]
    raise ValueError(f"unknown group name {name!r}")


_ORDERS = {
    GroupId.C2: 2, GroupId.C3: 3, GroupId.C4: 4, GroupId.C5: 5,
    GroupId.C6: 6, GroupId.C8: 8, GroupId.C10: 10, GroupId.C12: 12,
    GroupId.Q8: 8, GroupId.Q12: 12, GroupId.Q16: 16, GroupId.Q20: 20,
    GroupId.Q24: 24, GroupId.SL2F3: 24, GroupId.ESL2F3: 48,
    GroupId.SL2F5: 120, GroupId.C5_C8: 40, GroupId.C3_C8: 24,
    GroupId.C3xQ8: 24, GroupId.C3_Q16: 48, GroupId.ESL2F5: 240,
}


def order(g: GroupId) -> int:
    return _ORDERS[g]


def is_cyclic(g: GroupId) -> bool:
    # cyclic iff it has an element of its own order
    return order(g) in facts(g).cyclic_subgroup_orders


# ---------------------------------------------------------------------------
# group facts

class StabilizerTable(Value):
    """Counts of points of the 16-torsion-like fixed locus by stabilizer.

    entries maps each nontrivial point stabilizer (a subgroup, named by its
    own GroupId) to the number of such points on the abelian surface.
    """

    __slots__ = ("case", "entries")  # entries: ((GroupId, int), ...)


class GroupFacts(Value):
    __slots__ = ("group", "cyclic_subgroup_orders",
                 "stabilizer_tables")  # stabilizer_tables: tuple of StabilizerTable


def _tab(case, *entries):
    return StabilizerTable(case, tuple(entries))


G = GroupId

_FACTS = {
    G.C2: ({1, 2}, (_tab("", (G.C2, 16)),)),
    G.C3: ({1, 3}, (_tab("", (G.C3, 9)),)),
    G.C4: ({1, 2, 4}, (_tab("", (G.C4, 4), (G.C2, 12)),)),
    G.C5: ({1, 5}, (_tab("", (G.C5, 5)),)),
    G.C6: ({1, 2, 3, 6}, (_tab("", (G.C6, 1), (G.C3, 8), (G.C2, 15)),)),
    G.C8: ({1, 2, 4, 8}, (_tab("", (G.C8, 2), (G.C4, 2), (G.C2, 12)),)),
    G.C10: ({1, 2, 5, 10}, (_tab("", (G.C10, 1), (G.C5, 4), (G.C2, 15)),)),
    G.C12: ({1, 2, 3, 4, 6, 12}, (_tab("", (G.C12, 1), (G.C4, 3), (G.C3, 8), (G.C2, 12)),)),
    G.Q8: ({1, 2, 4},
           (_tab("A", (G.Q8, 4), (G.C2, 12)),
            _tab("B", (G.Q8, 2), (G.C4, 6), (G.C2, 8)))),
    G.Q12: ({1, 2, 3, 4, 6}, (_tab("", (G.Q12, 1), (G.C4, 9), (G.C3, 8), (G.C2, 6)),)),
    G.Q16: ({1, 2, 4, 8}, (_tab("", (G.Q16, 2), (G.Q8, 2), (G.C4, 4), (G.C2, 8)),)),
    G.Q20: ({1, 2, 4, 5, 10}, (_tab("", (G.Q20, 1), (G.C5, 4), (G.C4, 15)),)),
    G.Q24: ({1, 2, 3, 4, 6, 12}, (_tab("", (G.Q24, 1), (G.Q8, 3), (G.C4, 12), (G.C3, 8)),)),
    G.SL2F3: ({1, 2, 3, 4, 6}, (_tab("", (G.SL2F3, 1), (G.Q8, 3), (G.C3, 32), (G.C2, 12)),)),
    G.ESL2F3: ({1, 2, 3, 4, 6, 8}, (_tab("", (G.ESL2F3, 1), (G.Q16, 3), (G.C4, 12), (G.C3, 32)),)),
    G.SL2F5: ({1, 2, 3, 4, 5, 6, 10},
              (_tab("", (G.SL2F5, 1), (G.Q8, 15), (G.C5, 24), (G.C3, 80)),)),
    G.C5_C8: ({1, 2, 4, 5, 8, 10}, ()),
    G.C3_C8: ({1, 2, 3, 4, 6, 8, 12}, ()),
    G.C3xQ8: ({1, 2, 3, 4, 6, 12}, ()),
    G.C3_Q16: ({1, 2, 3, 4, 6, 8, 12}, ()),
    G.ESL2F5: ({1, 2, 3, 4, 5, 6, 8, 10, 12}, ()),
}


def facts(g: GroupId) -> GroupFacts:
    cyc, tabs = _FACTS[g]
    return GroupFacts(g, frozenset(cyc), tabs)


# groups handled by the geometric singularity classification: those with
# stabilizer tables
CONFIG_GROUPS = tuple(g for g, (_, tables) in _FACTS.items() if tables)


# ---------------------------------------------------------------------------
# rigid group algebras (Katsura 1987; Fujiki 1988): (center kind, center
# parameter, degree, ramified places). C_n gives Q(zeta_n); Q_4n the
# quaternion algebra H_infty(Q(zeta_2n)^+), which is H_2 or H_3 over Q for
# n = 2, 3; ('inf', i) is the i-th real place, ('fin', p, 0) the place over p

_H2, _H3, _H5 = ((("inf", 0), ("fin", p, 0)) for p in (2, 3, 5))  # H_p over Q
_HINF = (("inf", 0), ("inf", 1))  # H_infty over a real quadratic field

_RIGID = {
    G.C2: ("Q", 0, 1, ()), G.C3: ("cyc", 3, 1, ()), G.C4: ("cyc", 4, 1, ()),
    G.C5: ("cyc", 5, 1, ()), G.C6: ("cyc", 3, 1, ()), G.C8: ("cyc", 8, 1, ()),
    G.C10: ("cyc", 5, 1, ()), G.C12: ("cyc", 12, 1, ()),
    G.Q8: ("Q", 0, 2, _H2), G.Q12: ("Q", 0, 2, _H3), G.Q16: ("quad", 2, 2, _HINF),
    G.Q20: ("quad", 5, 2, _HINF), G.Q24: ("quad", 3, 2, _HINF),
    G.SL2F3: ("Q", 0, 2, _H2), G.ESL2F3: ("quad", 2, 2, _HINF),
    G.SL2F5: ("quad", 5, 2, _HINF),
    G.C5_C8: ("Q", 0, 4, _H5), G.C3_C8: ("cyc", 4, 2, ()), G.C3xQ8: ("cyc", 3, 2, ()),
    G.C3_Q16: ("Q", 0, 4, _H3), G.ESL2F5: ("Q", 0, 4, _H5),
}


@cache
def rigid_algebra(g: GroupId) -> brauer.CSADescriptor:
    """The image of Q[G] acting on the rigid part: a field, a quaternion
    algebra, or a 2x2 matrix algebra over one of these.

    Read from its _RIGID row and validated on the first call per group, then
    shared: the descriptor is frozen.
    """
    # imported here, so that importing groups does not load brauer
    from .brauer import CSADescriptor, FieldDesc

    kind, param, degree, ramified = _RIGID[g]
    return CSADescriptor(FieldDesc(kind, param), degree, ramified)
