"""Central simple algebras by their ramified places.

Every rigid algebra is a field, a quaternion algebra, or M(2, .) of one of
these, so every local invariant is 0 or 1/2. An algebra is stored as a center
(a small number field given symbolically), a degree, and the places of the
center where it ramifies, each with invariant 1/2. The rigid group algebras
are rows of a table in groups; the two types here store a row as given, and
the tests check every row (tests/oracles.py builds them with every check).
Operation: the embedding test of the rigid group algebras into M(2, H_p), a
condition on p read once per group from the parity of a local degree of the
algebra's center at p.
"""
from __future__ import annotations

from functools import cache

from .errors import Rejected
from .groups import rigid_algebra
from .numtheory import Condition, Value, is_prime


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


# ---------------------------------------------------------------------------
# rigid algebra into M(2, H_p)

def rigid_embeds_in_m2hp(g, p: int) -> bool:
    """Does the rigid group algebra of g embed into M(2, H_p)?

    Decided by the condition on p that _embedding_condition reads once from
    the algebra of g, for the algebras of the tabulated embedding rows;
    others are rejected. p is tested for primality first.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    cond = _embedding_condition(g)
    if isinstance(cond, str):
        raise Rejected(cond)
    return cond.holds(p)


# p splits in Q(sqrt(d)) iff p = +-1 mod the conductor c of Q(sqrt(d)); for
# d = 2, 3, 5 that is the c whose real cyclotomic field Q(zeta_c)^+ is Q(sqrt(d))
_CONDUCTOR = {2: 8, 3: 12, 5: 5}


@cache
def _embedding_condition(g) -> Condition | str:
    """The condition on p under which the rigid algebra of g embeds into
    M(2, H_p), or the reason the algebra is not among the tabulated rows."""
    alg = rigid_algebra(g)
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
