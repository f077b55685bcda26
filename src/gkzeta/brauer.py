"""Central simple algebras by their local invariants.

An algebra is stored as a center (a small number field given symbolically),
a degree, and a sparse map from places of the center to Q/Z invariants.
Operations: reciprocity validation, split tests, and the embedding test of
the rigid group algebras into M(2, H_p), decided by the parity of a local
degree at p.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache

from .errors import Rejected
from .groups import rigid_algebra
from .numtheory import (
    Value,
    euler_phi,
    is_prime,
    squarefree_part,
    splitting_in_cyclotomic,
    splitting_in_quadratic,
)


class ReciprocityError(Rejected):
    """Local invariants that violate a global constraint."""


# ---------------------------------------------------------------------------
# fields

def _canonical_cyclotomic_index(m: int) -> int:
    # Q(zeta_m) = Q(zeta_{m/2}) when m = 2 mod 4; m <= 2 gives Q itself.
    if m % 4 == 2:
        m //= 2
    return m


class FieldDesc(Value):
    """A small number field: Q, Q(sqrt(d)) or Q(zeta_m)."""

    __slots__ = ("kind", "param")  # kind: 'Q' | 'quad' | 'cyc'

    def __init__(self, kind: str, param: int = 0):
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
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "param", param)

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


def rationals() -> FieldDesc:
    return FieldDesc("Q")


def quadratic(d: int) -> FieldDesc:
    return FieldDesc("quad", squarefree_part(d))


def cyclotomic_field(m: int) -> FieldDesc:
    m = _canonical_cyclotomic_index(m)
    if m <= 2:
        return rationals()
    return FieldDesc("cyc", m)


def real_cyclotomic(m: int) -> FieldDesc:
    """Q(zeta_m)^+, for the m whose real subfield is Q or quadratic."""
    m = _canonical_cyclotomic_index(m)
    if m <= 2 or euler_phi(m) == 2:
        return rationals()
    if m not in _REAL_QUAD:
        raise ValueError(f"the real subfield of Q(zeta_{m}) is not quadratic")
    return quadratic(_REAL_QUAD[m])


# phi(m) = 4: the real subfield of Q(zeta_m) is the quadratic field below
_REAL_QUAD = {5: 5, 8: 2, 12: 3}


# ---------------------------------------------------------------------------
# places: ('inf', i) for real places, ('fin', p, j) for primes over p

Place = tuple


def inf_place(i: int = 0) -> Place:
    return ("inf", i)


def fin_place(p: int, j: int = 0) -> Place:
    return ("fin", p, j)


def _place_key(pl: Place):
    return (0, pl[1], 0) if pl[0] == "inf" else (1, pl[1], pl[2])


# ---------------------------------------------------------------------------
# algebras

class CSADescriptor(Value):
    """A central simple algebra: center, degree, sparse local invariants.

    Invariants are fractions in (0, 1); places with invariant 0 are omitted.
    """

    __slots__ = ("center", "degree", "invariants")

    def __init__(self, center: FieldDesc, degree: int, invariants: tuple = ()):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        invs = tuple(sorted(invariants, key=lambda pi: _place_key(pi[0])))
        seen = set()
        total = Fraction(0)
        for pl, inv in invs:
            if pl in seen:
                raise ValueError(f"duplicate place {pl}")
            seen.add(pl)
            inv = Fraction(inv)
            if not 0 < inv < 1:
                raise ValueError(f"invariant {inv} not in (0, 1)")
            if degree % inv.denominator:
                raise ReciprocityError(
                    f"invariant {inv} has period not dividing the degree {degree}")
            if pl[0] == "inf" and inv != Fraction(1, 2):
                raise ReciprocityError(f"real place invariant must be 1/2, got {inv}")
            if pl[0] == "inf" and pl[1] >= center.real_place_count:
                raise ValueError(f"center {center} has no real place #{pl[1]}")
            if pl[0] == "fin" and not is_prime(pl[1]):
                raise ValueError(f"{pl[1]} is not prime")
            total += inv
        if total.denominator != 1:
            raise ReciprocityError(f"local invariants sum to {total}, not an integer")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "invariants", invs)

    def __str__(self):
        if not self.invariants:
            if self.degree == 1:
                return str(self.center)
            return f"M({self.degree}, {self.center})"
        invs = ", ".join(f"{_place_str(pl)}: {inv}" for pl, inv in self.invariants)
        return f"CSA(center={self.center}, degree={self.degree}, inv={{{invs}}})"


def _place_str(pl: Place) -> str:
    if pl[0] == "inf":
        return "oo" if pl[1] == 0 else f"oo_{pl[1]}"
    return str(pl[1]) if pl[2] == 0 else f"{pl[1]}_{pl[2]}"


def is_split(a: CSADescriptor) -> bool:
    """True when the algebra is a matrix algebra over its center."""
    return not a.invariants


# -- constructors ------------------------------------------------------------

def field_algebra(k: FieldDesc) -> CSADescriptor:
    """The field itself, seen as a degree-1 algebra."""
    return CSADescriptor(k, 1, ())


def matrix_over(a: CSADescriptor, n: int) -> CSADescriptor:
    """M(n, A): same Brauer class, degree multiplied by n."""
    return CSADescriptor(a.center, a.degree * n, a.invariants)


def make_hp(p: int) -> CSADescriptor:
    """The quaternion algebra over Q ramified exactly at p and infinity."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    h = Fraction(1, 2)
    return CSADescriptor(rationals(), 2, ((inf_place(), h), (fin_place(p), h)))


def make_h_infty(k: FieldDesc) -> CSADescriptor:
    """The quaternion algebra over a totally real field k ramified exactly
    at all real places (requires an even number of them)."""
    if not k.is_totally_real:
        raise ValueError(f"{k} is not totally real")
    r = k.real_place_count
    if r % 2:
        raise ReciprocityError(
            f"{k} has {r} real places; invariants 1/2 at each cannot sum to an integer")
    h = Fraction(1, 2)
    return CSADescriptor(k, 2, tuple((inf_place(i), h) for i in range(r)))


# ---------------------------------------------------------------------------
# rigid algebra into M(2, H_p)

def rigid_embeds_in_m2hp(g, p: int) -> bool:
    """Does the rigid group algebra of g embed into M(2, H_p)?

    Decided by the parity of a local degree at p, for the algebras of the
    tabulated embedding rows; others are rejected.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    test, arg = _embedding_test(g)
    if test == "always":
        return True
    if test == "cyc":
        e, f, _ = splitting_in_cyclotomic(p, arg)
        return e * f % 2 == 0
    if test == "nonsplit":
        return splitting_in_quadratic(p, arg) != "split"
    raise Rejected(arg)


@cache
def _embedding_test(g) -> tuple[str, int | str]:
    """How rigid_embeds_in_m2hp decides for g, read once from its rigid
    algebra: ('always', 0), ('cyc', m), ('nonsplit', d) or ('rejected', reason).
    """
    alg = rigid_algebra(g)
    c = alg.center
    if alg.degree == 1 and c.kind == "cyc" and c.param in (3, 4, 5, 8, 12):
        if c.degree == 2:
            # quartic M(2, H_p) contains M(2, K) for every quadratic K
            return "always", 0
        # Q(zeta_m) of degree 4 is a maximal subfield iff it splits H_p: its
        # places are complex, so iff e*f is even at p
        return "cyc", c.param
    if alg.degree == 2 and c == rationals() and len(alg.invariants) == 2:
        fin = [pl[1] for pl, _ in alg.invariants if pl[0] == "fin"]
        if fin and fin[0] in (2, 3):
            # a rational quaternion algebra D sits inside M(2, H_p) through
            # M(2, K) for a shared splitting field K; no condition on p
            return "always", 0
    if alg.degree == 2 and c.kind == "quad" and c.param in (2, 3, 5):
        if alg.invariants and all(pl[0] == "inf" for pl, _ in alg.invariants):
            # H_infty(Q(sqrt(d))): embeds iff H_p stays a division algebra over
            # the center, i.e. iff p does not split in Q(sqrt(d))
            return "nonsplit", c.param
    return "rejected", f"{alg} is not among the tabulated embedding rows"
