"""The embedding of the rigid group algebras into M(2, H_p).

Every rigid algebra is a field, a quaternion algebra, or M(2, .) of one of
these, stored once per group in groups; whether it embeds into M(2, H_p) is
a condition on p read from the parity of a local degree of the algebra's
center at p, built once per group at import.
"""
from __future__ import annotations

from .errors import Rejected
from .groups import CSADescriptor, GroupId, rigid_algebra
from .numtheory import Condition, is_prime


def rigid_embeds_in_m2hp(g, p: int) -> bool:
    """Does the rigid group algebra of g embed into M(2, H_p)?

    Decided by the condition on p that _EMBEDDING holds for g, for the
    algebras of the tabulated embedding rows; others are rejected. p is
    tested for primality first.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    cond = _EMBEDDING[g]
    if isinstance(cond, str):
        raise Rejected(cond)
    return cond.holds(p)


# p splits in Q(sqrt(d)) iff p = +-1 mod the conductor c of Q(sqrt(d)); for
# d = 2, 3, 5 that is the c whose real cyclotomic field Q(zeta_c)^+ is Q(sqrt(d))
_CONDUCTOR = {2: 8, 3: 12, 5: 5}


def _embedding_condition(alg: CSADescriptor) -> Condition | str:
    """The condition on p under which alg embeds into M(2, H_p), or the
    reason alg is not among the tabulated rows."""
    c = alg.center
    if alg.degree == 1 and c.kind == "cyc" and c.param in (3, 4, 5, 8, 12):
        if c.param in (3, 4):
            # phi(3) = phi(4) = 2: quartic M(2, H_p) contains M(2, K) for
            # every quadratic K
            return Condition("any p")
        # Q(zeta_m) of degree 4 is a maximal subfield iff it splits H_p: its
        # places are complex, so iff e*f is even at p. A p | m ramifies with
        # e = phi(p^a) even; otherwise e = 1 and f = ord_m(p) is 1, 2 or 4
        return Condition(f"p != 1 mod {c.param}")
    if alg.degree == 2 and c.kind == "Q" and len(alg.ramified) == 2:
        fin = [pl[1] for pl in alg.ramified if pl[0] == "fin"]
        if fin and fin[0] in (2, 3):
            # a rational quaternion algebra D sits inside M(2, H_p) through
            # M(2, K) for a shared splitting field K; no condition on p
            return Condition("any p")
    if alg.degree == 2 and c.kind == "quad" and c.param in _CONDUCTOR:
        if alg.ramified and all(pl[0] == "inf" for pl in alg.ramified):
            # H_infty(Q(sqrt(d))): embeds iff H_p stays a division algebra over
            # the center, i.e. iff p does not split in Q(sqrt(d))
            return Condition(f"p != +-1 mod {_CONDUCTOR[c.param]}")
    return f"{alg} is not among the tabulated embedding rows"


# each group's condition, or the text of its rejection
_EMBEDDING = {g: _embedding_condition(rigid_algebra(g)) for g in GroupId}
