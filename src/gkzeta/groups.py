"""Catalog of the finite groups acting on abelian surfaces with rigid,
fixed-point-collapsing actions: cyclic groups, binary dihedral groups,
the binary tetrahedral/octahedral/icosahedral groups and a few
characteristic-special extensions.

All group facts are hardcoded and validated by structural sanity checks
(Sylow congruences, conservation of torsion fixed points).
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
    return g.value.startswith("C") and ":" not in g.value and "x" not in g.value


def cyclic_order(g: GroupId) -> int:
    if not is_cyclic(g):
        raise ValueError(f"{g} is not cyclic")
    return _ORDERS[g]


# ---------------------------------------------------------------------------
# group facts

class StabilizerTable(Value):
    """Counts of points of the 16-torsion-like fixed locus by stabilizer.

    entries maps each nontrivial point stabilizer (a subgroup, named by its
    own GroupId) to the number of such points on the abelian surface.
    """

    __slots__ = ("case", "entries")  # entries: ((GroupId, int), ...)

    def __init__(self, case: str, entries: tuple):
        object.__setattr__(self, "case", case)
        object.__setattr__(self, "entries", entries)


class GroupFacts(Value):
    __slots__ = ("group", "order", "cyclic_subgroup_orders", "sylow_counts",
                 "stabilizer_tables")  # stabilizer_tables: tuple of StabilizerTable

    def __init__(self, group: GroupId, order: int, cyclic_subgroup_orders: frozenset,
                 sylow_counts: dict, stabilizer_tables: tuple):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "cyclic_subgroup_orders", cyclic_subgroup_orders)
        object.__setattr__(self, "sylow_counts", sylow_counts)
        object.__setattr__(self, "stabilizer_tables", stabilizer_tables)


def _tab(case, *entries):
    return StabilizerTable(case, tuple(entries))


G = GroupId

_FACTS = {
    G.C2: ({1, 2}, {2: 1}, (_tab("", (G.C2, 16)),)),
    G.C3: ({1, 3}, {3: 1}, (_tab("", (G.C3, 9)),)),
    G.C4: ({1, 2, 4}, {2: 1}, (_tab("", (G.C4, 4), (G.C2, 12)),)),
    G.C5: ({1, 5}, {5: 1}, (_tab("", (G.C5, 5)),)),
    G.C6: ({1, 2, 3, 6}, {2: 1, 3: 1}, (_tab("", (G.C6, 1), (G.C3, 8), (G.C2, 15)),)),
    G.C8: ({1, 2, 4, 8}, {2: 1}, (_tab("", (G.C8, 2), (G.C4, 2), (G.C2, 12)),)),
    G.C10: ({1, 2, 5, 10}, {2: 1, 5: 1}, (_tab("", (G.C10, 1), (G.C5, 4), (G.C2, 15)),)),
    G.C12: ({1, 2, 3, 4, 6, 12}, {2: 1, 3: 1},
            (_tab("", (G.C12, 1), (G.C4, 3), (G.C3, 8), (G.C2, 12)),)),
    G.Q8: ({1, 2, 4}, {2: 1},
           (_tab("A", (G.Q8, 4), (G.C2, 12)),
            _tab("B", (G.Q8, 2), (G.C4, 6), (G.C2, 8)))),
    G.Q12: ({1, 2, 3, 4, 6}, {2: 3, 3: 1},
            (_tab("", (G.Q12, 1), (G.C4, 9), (G.C3, 8), (G.C2, 6)),)),
    G.Q16: ({1, 2, 4, 8}, {2: 1},
            (_tab("", (G.Q16, 2), (G.Q8, 2), (G.C4, 4), (G.C2, 8)),)),
    G.Q20: ({1, 2, 4, 5, 10}, {2: 5, 5: 1},
            (_tab("", (G.Q20, 1), (G.C5, 4), (G.C4, 15)),)),
    G.Q24: ({1, 2, 3, 4, 6, 12}, {2: 3, 3: 1},
            (_tab("", (G.Q24, 1), (G.Q8, 3), (G.C4, 12), (G.C3, 8)),)),
    G.SL2F3: ({1, 2, 3, 4, 6}, {2: 1, 3: 4},
              (_tab("", (G.SL2F3, 1), (G.Q8, 3), (G.C3, 32), (G.C2, 12)),)),
    G.ESL2F3: ({1, 2, 3, 4, 6, 8}, {2: 3, 3: 4},
               (_tab("", (G.ESL2F3, 1), (G.Q16, 3), (G.C4, 12), (G.C3, 32)),)),
    G.SL2F5: ({1, 2, 3, 4, 5, 6, 10}, {2: 5, 3: 10, 5: 6},
              (_tab("", (G.SL2F5, 1), (G.Q8, 15), (G.C5, 24), (G.C3, 80)),)),
    G.C5_C8: ({1, 2, 4, 5, 8, 10}, {2: 5, 5: 1}, ()),
    G.C3_C8: ({1, 2, 3, 4, 6, 8, 12}, {2: 3, 3: 1}, ()),
    G.C3xQ8: ({1, 2, 3, 4, 6, 12}, {2: 1, 3: 1}, ()),
    G.C3_Q16: ({1, 2, 3, 4, 6, 8, 12}, {2: 3, 3: 1}, ()),
    G.ESL2F5: ({1, 2, 3, 4, 5, 6, 8, 10, 12}, {2: 5, 3: 10, 5: 6}, ()),
}


def facts(g: GroupId) -> GroupFacts:
    cyc, syl, tabs = _FACTS[g]
    return GroupFacts(g, _ORDERS[g], frozenset(cyc), dict(syl), tabs)


def subgroup_order(h: GroupId) -> int:
    return _ORDERS[h]


# groups handled by the geometric singularity classification
CONFIG_GROUPS = (
    G.C2, G.C3, G.C4, G.C5, G.C6, G.C8, G.C10, G.C12,
    G.Q8, G.Q12, G.Q16, G.Q20, G.Q24, G.SL2F3, G.ESL2F3, G.SL2F5,
)


# ---------------------------------------------------------------------------
# rigid group algebras

@cache
def rigid_algebra(g: GroupId) -> brauer.CSADescriptor:
    """The image of Q[G] acting on the rigid part: a field, a quaternion
    algebra, or a 2x2 matrix algebra over one of these.

    Built and validated on the first call per group, then shared: the
    descriptor is frozen.
    """
    from . import brauer  # here, so that importing groups does not load brauer

    if is_cyclic(g):
        return brauer.field_algebra(brauer.cyclotomic_field(cyclic_order(g)))
    if g == G.Q8:
        return brauer.make_hp(2)
    if g == G.Q12:
        return brauer.make_hp(3)
    if g in (G.Q16, G.Q20, G.Q24):
        n = _ORDERS[g] // 4
        return brauer.make_h_infty(brauer.real_cyclotomic(2 * n))
    if g == G.SL2F3:
        return brauer.make_hp(2)
    if g == G.ESL2F3:
        return brauer.make_h_infty(brauer.quadratic(2))
    if g == G.SL2F5:
        return brauer.make_h_infty(brauer.quadratic(5))
    if g in (G.C5_C8, G.ESL2F5):
        return brauer.matrix_over(brauer.make_hp(5), 2)
    if g == G.C3_C8:
        return brauer.matrix_over(brauer.field_algebra(brauer.cyclotomic_field(4)), 2)
    if g == G.C3xQ8:
        return brauer.matrix_over(brauer.field_algebra(brauer.cyclotomic_field(3)), 2)
    if g == G.C3_Q16:
        return brauer.matrix_over(brauer.make_hp(3), 2)
    raise ValueError(f"no rigid algebra recorded for {g}")
