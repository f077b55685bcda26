"""Existence of supersingular abelian surfaces with a rigid (and possibly
symplectic) action of a given finite group, over fields of even degree,
prime fields, and fields of odd degree, plus the surface-level refinement
for the quotient construction.
"""
from __future__ import annotations

from .errors import Rejected
from .groups import CONFIG_GROUPS, GroupId, facts, is_cyclic, order
from .numtheory import Condition, IntPolynomial, PrimePower, Value

G = GroupId
_new = tuple.__new__  # builds a polynomial from its coefficients


class ExistenceVerdict(Value):
    # exists_rigid, exists_rigid_symplectic: True, False or None (not
    # determined); citation: the classification's tag; conditions: (condition
    # text, evaluated bool) pairs; weil_options: WeilOption. It names no
    # group: the groups with one answer for every p share one verdict
    __slots__ = ()
    _fields = ("exists_rigid", "exists_rigid_symplectic", "citation", "conditions",
               "weil_options")


class WeilOption(Value):
    """One admissible Frobenius polynomial shape for an odd-degree field.

    poly is an IntPolynomial, or None when the shape is ambiguous; satisfied
    is True, False or None.
    """

    __slots__ = ()
    _fields = ("shape", "poly", "condition", "satisfied")


# every verdict that exists_over_even_degree, exists_over_prime_field and
# katsura_refinement return is built here, at import, once: equal verdicts
# are one object, and a call only picks one by its conditions' outcomes
_VERDICTS = {}


def _shared(*fields) -> ExistenceVerdict:
    v = ExistenceVerdict(*fields)
    return _VERDICTS.setdefault(v, v)


# the paper's refinement of Katsura's theorem: the one clause p != +-1 mod n
# of G's element order n in {5, 8, 12}, or None for a group with none; it
# decides column II of the even-degree table and the quotient refinement
_CLAUSE = {g: next((Condition(f"p != +-1 mod {n}")
                    for n in facts(g).cyclic_subgroup_orders & {5, 8, 12}), None)
           for g in CONFIG_GROUPS}


# ---------------------------------------------------------------------------
# even-degree fields (containing F_{p^2})

_EVEN_CITE = "even-degree classification"
# the answer of every group whose two columns hold for every p
_EVEN_ALWAYS = _shared(True, True, _EVEN_CITE, (("any p coprime to |G|", True),), ())


# built once from the refinement clause of G: the shared verdict for a group
# with none, else column I (rigid action exists), p != 1 mod n for a cyclic G
# and the clause otherwise, column II (rigid and symplectic), the clause, and
# the verdict of each outcome, indexed [column I holds][column II holds]; C2
# is not classified here
def _even_row(rigid: Condition, sympl: Condition):
    return rigid, sympl, tuple(tuple(
        _shared(r, s, _EVEN_CITE, ((rigid.text, r), (f"symplectic: {sympl}", s)), ())
        for s in (False, True)) for r in (False, True))


_EVEN_TABLE = {g: _EVEN_ALWAYS if c is None else _even_row(
                   Condition(f"p != 1 mod {c.modulus}") if is_cyclic(g) else c, c)
               for g, c in _CLAUSE.items() if order(g) > 2}

# the groups of the even-degree classification; the M(2, H_p) embedding
# condition derived from local degrees (brauer._EMBEDDING) covers the
# same groups, and column I reads as that condition
EVEN_DEGREE_GROUPS = frozenset(_EVEN_TABLE)


def exists_over_even_degree(g: GroupId, p: int) -> ExistenceVerdict:
    """Existence of a supersingular abelian surface over a field containing
    F_{p^2} with a rigid (column I) or rigid symplectic (column II) action.
    """
    row = _EVEN_TABLE.get(g)
    if row is None:
        raise Rejected(f"{g} is not covered by the even-degree classification")
    if row is _EVEN_ALWAYS:
        return row
    rigid, sympl, verdicts = row
    return verdicts[rigid.holds(p)][sympl.holds(p)]


# ---------------------------------------------------------------------------
# prime fields

_PRIME_CITE = "prime-field sufficiency"
# built once: the verdict shared by every group outside the list
_OUTSIDE_PRIME_FIELD = _shared(
    None, None, _PRIME_CITE, (("group outside the prime-field sufficiency list", False),), ())


# a listed group's condition and its verdict when it fails and when it holds
def _prime_row(text: str):
    cond = Condition(text)
    return cond, tuple(_shared(val, val, _PRIME_CITE, ((text, ok),), ())
                       for ok, val in ((False, None), (True, True)))


_ANY_P, _ODD_P = _prime_row("any p"), _prime_row("p != 2")
_PRIME_FIELD = {G.C2: _ANY_P, G.C3: _ANY_P, G.C4: _ANY_P, G.C6: _ANY_P,
                G.Q8: _ODD_P, G.SL2F3: _ODD_P, G.Q12: _prime_row("p > 3")}


def exists_over_prime_field(g: GroupId, p: int) -> ExistenceVerdict:
    """Sufficient conditions for a rigid symplectic action over F_p itself.

    Cases outside the sufficiency list come back undetermined, not refuted.
    """
    row = _PRIME_FIELD.get(g)
    if row is None:
        return _OUTSIDE_PRIME_FIELD
    cond, verdicts = row
    return verdicts[cond.holds(p)]


# ---------------------------------------------------------------------------
# odd-degree fields

# the admissible Frobenius shapes t^4 + u q t^2 + q^2 of each group, as the
# paper lists them: (shape, u, condition on p)
_SQUARE_ROWS = (("(t^2 - q)^2", -2, Condition("p > 2")), ("(t^2 + q)^2", 2, Condition("p > 2")))
_C3_ROWS = (("t^4 + q t^2 + q^2", 1, Condition("any p")),
            ("t^4 - q t^2 + q^2", -1, Condition("any p"))) + _SQUARE_ROWS
_Q8_ROWS = (("(t^2 - q)^2", -2, Condition("p != 1 mod 8")),
            ("(t^2 + q)^2", 2, Condition("p != -1 mod 8")))
_ODD_TABLE = {
    G.C4: (("t^4 + q^2", 0, Condition("any p")),) + _SQUARE_ROWS,
    G.C3: _C3_ROWS, G.C6: _C3_ROWS,
    G.Q8: _Q8_ROWS, G.SL2F3: _Q8_ROWS,
    G.Q12: (("(t^2 - q)^2", -2, Condition("p != 2 mod 3")),
            ("(t^2 + q)^2", 2, Condition("p != 1 mod 3"))),
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
    if order(g) % p == 0:
        raise Rejected(f"p = {p} divides |{g}| = {order(g)}")

    opts = []
    for shape, u, cond in _ODD_TABLE.get(g, ()):
        opts.append(WeilOption(shape, _new(IntPolynomial, (qq * qq, 0, u * qq, 0, 1)),
                               cond.text, cond.holds(p)))
    special_groups, shape = _SPECIAL_SHAPES.get(p, ((), None))
    special = g in special_groups
    if special:
        opts.append(WeilOption(shape, None, f"p = {p} (shape stated ambiguously)", None))
    val = any(o.satisfied for o in opts) or (None if special else False)
    conds = tuple((f"{o.shape}: {o.condition}", o.satisfied) for o in opts) or (
        ("group matches no odd-degree classification row", False),)
    return ExistenceVerdict(val, val, "odd-degree classification", conds, tuple(opts))


# ---------------------------------------------------------------------------
# surface-level refinement

_REFINE_CITE = "quotient refinement"
# the answer of every direct group
_REFINE_ALWAYS = _shared(True, True, _REFINE_CITE, (("group in the unconditional list", True),), ())


# a group's one clause and the verdict of each outcome, indexed [field
# degree odd][clause holds]
def _refine_row(c: Condition):
    return c, tuple(tuple(
        _shared(even and holds, even and holds, _REFINE_CITE,
                (("field degree even", even), (c.text, holds)), ())
        for holds in (False, True)) for even in (True, False))


# built once: a group's row, or the shared verdict for a group with no
# clause, the seven direct groups C2, C3, C4, C6, Q8, Q12 and SL2F3
_REFINE_ROWS = {g: _REFINE_ALWAYS if c is None else _refine_row(c) for g, c in _CLAUSE.items()}


def katsura_refinement(g: GroupId, q: PrimePower) -> ExistenceVerdict:
    """Existence of a supersingular quotient surface construction for (G, q).

    Requires p odd and coprime to |G|.  Direct for the seven small groups;
    otherwise needs an even-degree field and p != +-1 mod n for the one
    element order n in {5, 8, 12} of G.
    """
    p = q.p
    if p == 2:
        raise Rejected("p = 2 is excluded from the refinement")
    if order(g) % p == 0:
        raise Rejected(f"p = {p} divides |{g}| = {order(g)}")
    row = _REFINE_ROWS.get(g)
    if row is None:
        raise Rejected(f"{g} is not in the quotient-construction list")
    if row is _REFINE_ALWAYS:
        return row
    clause, verdicts = row
    return verdicts[q.degree_is_odd][clause.holds(p)]
