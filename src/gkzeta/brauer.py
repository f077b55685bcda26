"""Central simple algebras by their ramified places.

Every rigid algebra is a field, a quaternion algebra, or M(2, .) of one of
these, so every local invariant is 0 or 1/2. An algebra is stored as a center
(a small number field given symbolically), a degree, and the places of the
center where it ramifies, each with invariant 1/2. The rigid group algebras
themselves are rows of a table in groups; this module holds their type.
Operations: reciprocity validation, and the embedding test of the rigid
group algebras into M(2, H_p): a condition on p, read once per group from the
parity of a local degree of the algebra's center at p.
"""
from __future__ import annotations

from functools import cache

from .errors import Rejected
from .groups import rigid_algebra
from .numtheory import Condition, Value, euler_phi, is_prime, squarefree_part


# ---------------------------------------------------------------------------
# fields

class FieldDesc(Value):
    """A small number field: Q, Q(sqrt(d)) or Q(zeta_m)."""

    __slots__ = ("kind", "param")  # kind: 'Q' | 'quad' | 'cyc'

    def __init__(self, kind: str, param: int):
        if kind == "Q":
            if param:
                raise ValueError("Q takes no parameter")
        elif kind == "quad":
            if param in (0, 1) or squarefree_part(param) != param:
                raise ValueError(f"{param} is not a valid squarefree discriminant base")
        elif kind == "cyc":
            if param < 3 or param % 4 == 2:
                raise ValueError(f"cyclotomic index {param} is not in canonical form")
        else:
            raise ValueError(f"unknown field kind {kind!r}")
        self._fill(kind, param)

    @property
    def degree(self) -> int:
        if self.kind == "Q":
            return 1
        if self.kind == "quad":
            return 2
        return euler_phi(self.param)

    @property
    def is_totally_real(self) -> bool:
        if self.kind == "quad":
            return self.param > 0
        return self.kind == "Q"

    @property
    def real_place_count(self) -> int:
        return self.degree if self.is_totally_real else 0

    def __str__(self):
        if self.kind == "Q":
            return "Q"
        if self.kind == "quad":
            return f"Q(sqrt({self.param}))"
        return f"Q(zeta_{self.param})"


# ---------------------------------------------------------------------------
# places: ('inf', i) for real places, ('fin', p, j) for primes over p

Place = tuple


def _place_key(pl: Place):
    return (0, pl[1], 0) if pl[0] == "inf" else (1, pl[1], pl[2])


# ---------------------------------------------------------------------------
# algebras

class CSADescriptor(Value):
    """A central simple algebra: center, degree, and the sorted places where
    it ramifies, each with local invariant 1/2 (the others have 0).
    """

    __slots__ = ("center", "degree", "ramified")

    def __init__(self, center: FieldDesc, degree: int, ramified: tuple):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        ramified = tuple(sorted(ramified, key=_place_key))
        seen = set()
        for pl in ramified:
            if pl in seen:
                raise ValueError(f"duplicate place {pl}")
            seen.add(pl)
            if degree % 2:
                raise ValueError(f"invariant 1/2 has period not dividing the degree {degree}")
            if pl[0] == "inf" and pl[1] >= center.real_place_count:
                raise ValueError(f"center {center} has no real place #{pl[1]}")
            if pl[0] == "fin" and not is_prime(pl[1]):
                raise ValueError(f"{pl[1]} is not prime")
        if len(ramified) % 2:
            # Hilbert reciprocity: the invariants 1/2 sum to an integer
            raise ValueError(f"local invariants sum to {len(ramified)}/2, not an integer")
        self._fill(center, degree, ramified)

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


def _place_str(pl: Place) -> str:
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
        if c.degree == 2:
            # quartic M(2, H_p) contains M(2, K) for every quadratic K
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
