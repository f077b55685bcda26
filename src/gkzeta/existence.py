"""Existence of supersingular abelian surfaces with a rigid (and possibly
symplectic) action of a given finite group, over fields of even degree,
prime fields, and fields of odd degree, plus the surface-level refinement
for the quotient construction.
"""
from __future__ import annotations

from .errors import Rejected
from .groups import CONFIG_GROUPS, GroupId, facts, order
from .numtheory import Condition, IntPolynomial, PrimePower, Value

G = GroupId


class ExistenceVerdict(Value):
    # exists_rigid, exists_rigid_symplectic: True, False or None (not
    # determined); citation: the classification's tag; conditions: (condition
    # text, evaluated bool) pairs; weil_options: WeilOption
    __slots__ = ("group", "exists_rigid", "exists_rigid_symplectic", "citation",
                 "conditions", "weil_options")


class WeilOption(Value):
    """One admissible Frobenius polynomial shape for an odd-degree field.

    poly is an IntPolynomial, or None when the shape is ambiguous; satisfied
    is True, False or None.
    """

    __slots__ = ("shape", "poly", "condition", "satisfied")


# ---------------------------------------------------------------------------
# even-degree fields (containing F_{p^2})

# (column I: rigid action exists, column II: rigid and symplectic), or None
# when both hold for every p
_EVEN_TABLE = {
    G.C3: None, G.C6: None, G.C4: None,
    G.C8: (Condition("p != 1 mod 8"), Condition("p != +-1 mod 8")),
    G.C5: (Condition("p != 1 mod 5"), Condition("p != +-1 mod 5")),
    G.C10: (Condition("p != 1 mod 5"), Condition("p != +-1 mod 5")),
    G.C12: (Condition("p != 1 mod 12"), Condition("p != +-1 mod 12")),
    G.Q8: None, G.Q12: None,
    G.Q16: (Condition("p != +-1 mod 8"),) * 2,
    G.Q20: (Condition("p != +-1 mod 5"),) * 2,
    G.Q24: (Condition("p != +-1 mod 12"),) * 2,
    G.SL2F3: None,
    G.ESL2F3: (Condition("p != +-1 mod 8"),) * 2,
    G.SL2F5: (Condition("p != +-1 mod 5"),) * 2,
}

# the groups of the even-degree classification; the M(2, H_p) embedding
# condition derived from local degrees (brauer._embedding_condition) covers
# the same groups, and column I reads as that condition
EVEN_DEGREE_GROUPS = frozenset(_EVEN_TABLE)

# built once: a group's shared verdict, or its two conditions and column II's text
_EVEN_CITE = "even-degree classification"
_EVEN_ROWS = {g: ExistenceVerdict(g, True, True, _EVEN_CITE, (("any p coprime to |G|", True),), ())
              if conds is None else (*conds, f"symplectic: {conds[1]}")
              for g, conds in _EVEN_TABLE.items()}


def exists_over_even_degree(g: GroupId, p: int) -> ExistenceVerdict:
    """Existence of a supersingular abelian surface over a field containing
    F_{p^2} with a rigid (column I) or rigid symplectic (column II) action.
    """
    row = _EVEN_ROWS.get(g)
    if row is None:
        raise Rejected(f"{g} is not covered by the even-degree classification")
    if row.__class__ is ExistenceVerdict:
        return row
    rigid, sympl, sympl_text = row
    r, s = rigid.holds(p), sympl.holds(p)
    return ExistenceVerdict(g, r, s, _EVEN_CITE, ((rigid.text, r), (sympl_text, s)), ())


# ---------------------------------------------------------------------------
# prime fields

_PRIME_FIELD = {
    G.C2: Condition("any p"), G.C3: Condition("any p"),
    G.C4: Condition("any p"), G.C6: Condition("any p"),
    G.Q8: Condition("p != 2"), G.SL2F3: Condition("p != 2"),
    G.Q12: Condition("p > 3"),
}

# built once: the shared verdict of each group outside the list
_PRIME_CITE = "prime-field sufficiency"
_OUTSIDE_PRIME_FIELD = {
    g: ExistenceVerdict(g, None, None, _PRIME_CITE,
                        (("group outside the prime-field sufficiency list", False),), ())
    for g in GroupId if g not in _PRIME_FIELD}


def exists_over_prime_field(g: GroupId, p: int) -> ExistenceVerdict:
    """Sufficient conditions for a rigid symplectic action over F_p itself.

    Cases outside the sufficiency list come back undetermined, not refuted.
    """
    cond = _PRIME_FIELD.get(g)
    if cond is None:
        return _OUTSIDE_PRIME_FIELD[g]
    ok = cond.holds(p)
    val = True if ok else None
    return ExistenceVerdict(g, val, val, _PRIME_CITE, ((cond.text, ok),), ())


# ---------------------------------------------------------------------------
# odd-degree fields

# the admissible Frobenius shapes t^4 + u q t^2 + q^2, by their coefficient u
_SHAPES = {"t^4 + q^2": 0, "t^4 + q t^2 + q^2": 1, "t^4 - q t^2 + q^2": -1,
           "(t^2 - q)^2": -2, "(t^2 + q)^2": 2}

_SQUARE_ROWS = (("(t^2 - q)^2", Condition("p > 2")), ("(t^2 + q)^2", Condition("p > 2")))
_C3_ROWS = (("t^4 + q t^2 + q^2", Condition("any p")),
            ("t^4 - q t^2 + q^2", Condition("any p"))) + _SQUARE_ROWS
_Q8_ROWS = (("(t^2 - q)^2", Condition("p != 1 mod 8")),
            ("(t^2 + q)^2", Condition("p != -1 mod 8")))
_ODD_TABLE = {
    G.C4: (("t^4 + q^2", Condition("any p")),) + _SQUARE_ROWS,
    G.C3: _C3_ROWS, G.C6: _C3_ROWS,
    G.Q8: _Q8_ROWS, G.SL2F3: _Q8_ROWS,
    G.Q12: (("(t^2 - q)^2", Condition("p != 2 mod 3")),
            ("(t^2 + q)^2", Condition("p != 1 mod 3"))),
}

# characteristic-special shapes, by p; the exact quartic is left symbolic
# because the printed shape is ambiguous as stated
_SPECIAL_SHAPES = {3: ((G.C4, G.C8, G.Q8), "(t^2 +- 3^r ... + q)^2"),
                   2: ((G.C3,), "(t^2 +- 2^r ... + q)^2")}


def exists_over_odd_degree(g: GroupId, q: PrimePower) -> ExistenceVerdict:
    """Classification of rigid symplectic actions over F_q, q an odd power.

    Returns the admissible Weil polynomial options with their congruence
    conditions evaluated at p; existence holds iff some option survives.
    """
    if not q.degree_is_odd:
        raise Rejected(f"q = {q} is an even power")
    if order(g) <= 2:
        raise Rejected("only groups of order > 2 are classified here")
    p, qq = q.p, q.q

    opts = [WeilOption(shape, IntPolynomial([qq * qq, 0, _SHAPES[shape] * qq, 0, 1]),
                       str(cond), cond.holds(p))
            for shape, cond in _ODD_TABLE.get(g, ())]
    special_groups, shape = _SPECIAL_SHAPES.get(p, ((), ""))
    if g in special_groups:
        opts.append(WeilOption(shape, None, f"p = {p} (shape stated ambiguously)", None))

    if order(g) % p == 0 and not any(o.satisfied is None for o in opts):
        raise Rejected(f"p = {p} divides |{g}| = {order(g)}")

    val = any(o.satisfied is True for o in opts)
    if not val and any(o.satisfied is None for o in opts):
        val = None
    conds = tuple((f"{o.shape}: {o.condition}", o.satisfied) for o in opts)
    if not opts:
        conds = (("group matches no odd-degree classification row", False),)
    return ExistenceVerdict(g, val, val, "odd-degree classification", conds, tuple(opts))


# ---------------------------------------------------------------------------
# surface-level refinement

_REFINE_DIRECT = (G.C2, G.C3, G.C4, G.C6, G.Q8, G.Q12, G.SL2F3)

# the extra congruence clause, by the element orders n in {5, 8, 12} of G
# that trigger it
_REFINE_CONDITIONS = {n: Condition(f"p != +-1 mod {n}") for n in (5, 8, 12)}

# built once: a direct group's shared verdict, else its clauses
_REFINE_CITE = "quotient refinement"
_REFINE_ROWS = {g: ExistenceVerdict(g, True, True, _REFINE_CITE,
                                    (("group in the unconditional list", True),), ())
                if g in _REFINE_DIRECT else tuple(_REFINE_CONDITIONS[n] for n in sorted(
                    facts(g).cyclic_subgroup_orders & _REFINE_CONDITIONS.keys()))
                for g in CONFIG_GROUPS}


def katsura_refinement(g: GroupId, q: PrimePower) -> ExistenceVerdict:
    """Existence of a supersingular quotient surface construction for (G, q).

    Requires p odd and coprime to |G|.  Direct for the seven small groups;
    otherwise needs an even-degree field and, for every element order
    n in {5, 8, 12}, the condition p != +-1 mod n.
    """
    p = q.p
    if p == 2:
        raise Rejected("p = 2 is excluded from the refinement")
    if order(g) % p == 0:
        raise Rejected(f"p = {p} divides |{g}| = {order(g)}")
    row = _REFINE_ROWS.get(g)
    if row is None:
        raise Rejected(f"{g} is not in the quotient-construction list")
    if row.__class__ is ExistenceVerdict:
        return row
    val = not q.degree_is_odd
    conds = [("field degree even", val)]
    for cond in row:
        holds = cond.holds(p)
        conds.append((cond.text, holds))
        val = val and holds
    return ExistenceVerdict(g, val, val, _REFINE_CITE, tuple(conds), ())
