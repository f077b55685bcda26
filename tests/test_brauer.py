import json
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gkzeta.brauer import rigid_embeds_in_m2hp
from gkzeta.errors import Rejected
from gkzeta.groups import GroupId as G
from gkzeta.numtheory import is_prime

# the paper's constructions of the algebras with every check on the types, and
# the scalar extension, split and maximal-subfield tests, live on as the oracle
from oracles import (
    cyclotomic_field,
    extend_scalars,
    field_algebra,
    field_degree,
    field_embeds_in_csa,
    fin_place,
    hp_into_hinfty,
    inf_place,
    is_split,
    is_totally_real,
    m2_hp,
    make_csa,
    make_h_infty,
    make_hp,
    matrix_over,
    quadratic,
    rationals,
    real_cyclotomic,
    rigid_embeds_by_invariants,
    squarefree_part,
)

HALF = Fraction(1, 2)
PRIMES_100 = [p for p in range(2, 100) if is_prime(p)]


class TestFields:
    def test_canonical_cyclotomic(self):
        assert cyclotomic_field(6) == cyclotomic_field(3)
        assert cyclotomic_field(10) == cyclotomic_field(5)
        assert cyclotomic_field(2) == rationals()
        assert field_degree(cyclotomic_field(4)) == 2
        assert field_degree(cyclotomic_field(8)) == 4

    def test_real_cyclotomic(self):
        assert real_cyclotomic(8) == quadratic(2)
        assert real_cyclotomic(10) == quadratic(5)
        assert real_cyclotomic(12) == quadratic(3)
        assert real_cyclotomic(4) == rationals()
        with pytest.raises(ValueError):
            real_cyclotomic(16)  # Q(zeta_16)^+ has degree 4

    def test_quadratic_canonicalizes(self):
        assert quadratic(8) == quadratic(2)
        assert quadratic(-4) == quadratic(-1)
        with pytest.raises(ValueError):
            quadratic(1)

    def test_total_reality(self):
        assert is_totally_real(quadratic(5))
        assert not is_totally_real(quadratic(-3))
        assert not is_totally_real(cyclotomic_field(5))
        assert is_totally_real(real_cyclotomic(12))
        assert field_degree(real_cyclotomic(12)) == 2

    def test_squarefree_part(self):
        assert squarefree_part(12) == 3
        assert squarefree_part(-8) == -2
        assert squarefree_part(7) == 7


class TestConstructorsAndReciprocity:
    def test_make_hp(self):
        h = make_hp(7)
        assert h.ramified == (inf_place(), fin_place(7))
        assert h.invariants == ((inf_place(), HALF), (fin_place(7), HALF))
        assert not is_split(h)

    def test_make_h_infty(self):
        h = make_h_infty(quadratic(2))
        assert len(h.invariants) == 2
        assert all(pl[0] == "inf" for pl, _ in h.invariants)

    def test_h_infty_needs_even_real_places(self):
        with pytest.raises(ValueError, match=r"^local invariants sum to 1/2, not an integer$"):
            make_h_infty(rationals())
        with pytest.raises(ValueError):
            make_h_infty(quadratic(-1))

    def test_reciprocity_violation(self):
        with pytest.raises(ValueError, match=r"^local invariants sum to 1/2, not an integer$"):
            make_csa(rationals(), 2, (fin_place(5),))

    def test_period_divides_degree(self):
        # invariant 1/2 has period 2, which does not divide the degree 1
        with pytest.raises(ValueError,
                           match=r"^invariant 1/2 has period not dividing the degree 1$"):
            make_csa(rationals(), 1, (inf_place(), fin_place(5)))

    def test_matrix_over_keeps_class(self):
        m = matrix_over(make_hp(5), 2)
        assert m.degree == 4
        assert m.invariants == make_hp(5).invariants

    def test_field_algebra_is_split(self):
        assert is_split(field_algebra(cyclotomic_field(8)))


class TestExtendScalars:
    def test_split_by_sqrt_p(self):
        # H_p tensor Q(sqrt(p)): p ramifies, infinity stays real -> H_infty
        ext = extend_scalars(make_hp(7), quadratic(7))
        assert ext == make_h_infty(quadratic(7))

    def test_h2_splits_over_zeta4(self):
        assert is_split(extend_scalars(make_hp(2), cyclotomic_field(4)))

    def test_h3_splits_over_zeta3(self):
        assert is_split(extend_scalars(make_hp(3), cyclotomic_field(3)))

    def test_split_prime_keeps_ramification(self):
        # 7 splits in Q(sqrt(2)), so H_7 stays ramified at both places over 7
        ext = extend_scalars(make_hp(7), quadratic(2))
        fins = [pl for pl, _ in ext.invariants if pl[0] == "fin"]
        assert fins == [fin_place(7, 0), fin_place(7, 1)]

    def test_imaginary_quadratic_kills_infinity(self):
        ext = extend_scalars(make_hp(5), quadratic(-1))
        # 5 splits in Q(i): invariants 1/2 + 1/2 at the two places over 5
        assert all(pl[0] == "fin" for pl, _ in ext.invariants)
        assert len(ext.invariants) == 2

    def test_rejects_relative_center(self):
        with pytest.raises(ValueError):
            extend_scalars(make_h_infty(quadratic(2)), quadratic(2))

    @given(st.sampled_from(PRIMES_100), st.sampled_from([2, 3, 5, -1, -3]))
    @settings(max_examples=120, deadline=None)
    def test_reciprocity_preserved(self, p, d):
        ext = extend_scalars(make_hp(p), quadratic(d))
        total = sum(inv for _, inv in ext.invariants)
        assert total.denominator == 1


class TestEmbeddings:
    def test_field_embeds_maximal(self):
        # Q(zeta_8) has degree 4 = deg M(2, H_3) and 3 is inert enough
        assert field_embeds_in_csa(cyclotomic_field(8), m2_hp(3))
        assert not field_embeds_in_csa(cyclotomic_field(8), m2_hp(17))

    def test_field_embeds_degree_mismatch(self):
        with pytest.raises(ValueError):
            field_embeds_in_csa(cyclotomic_field(4), m2_hp(3))

    def test_cm_relative_case(self):
        h = make_h_infty(quadratic(2))
        assert field_embeds_in_csa(cyclotomic_field(8), h)
        with pytest.raises(ValueError):
            field_embeds_in_csa(cyclotomic_field(5), h)

    def test_hp_into_hinfty(self):
        assert hp_into_hinfty(2, 2)        # ramified
        assert hp_into_hinfty(5, 2)        # inert: 5 != +-1 mod 8
        assert not hp_into_hinfty(7, 2)    # split: 7 = -1 mod 8
        assert hp_into_hinfty(3, 5)
        assert not hp_into_hinfty(11, 5)


EMBED_ROWS = {
    # group with that rigid algebra -> literal congruence from the table
    G.C4: lambda p: True,
    G.C6: lambda p: True,
    G.C10: lambda p: p % 5 != 1,
    G.C8: lambda p: p % 8 != 1,
    G.C12: lambda p: p % 12 != 1,
    G.Q8: lambda p: True,
    G.Q12: lambda p: True,
    G.Q20: lambda p: p % 5 not in (1, 4),
    G.Q16: lambda p: p % 8 not in (1, 7),
    G.Q24: lambda p: p % 12 not in (1, 11),
}


class TestRigidEmbedsTable:
    @pytest.mark.parametrize("g", sorted(EMBED_ROWS, key=lambda g: g.value))
    def test_matches_congruence_row(self, g):
        for p in PRIMES_100:
            assert rigid_embeds_in_m2hp(g, p) == EMBED_ROWS[g](p), (g, p)

    def test_aliases_of_same_algebra_agree(self):
        for p in PRIMES_100:
            assert rigid_embeds_in_m2hp(G.C5, p) == rigid_embeds_in_m2hp(G.C10, p)
            assert rigid_embeds_in_m2hp(G.SL2F3, p) == rigid_embeds_in_m2hp(G.Q8, p)
            assert rigid_embeds_in_m2hp(G.ESL2F3, p) == rigid_embeds_in_m2hp(G.Q16, p)
            assert rigid_embeds_in_m2hp(G.SL2F5, p) == rigid_embeds_in_m2hp(G.Q20, p)

    def test_uncovered_groups_rejected(self):
        for g in (G.C2, G.C5_C8, G.C3_C8, G.C3xQ8, G.C3_Q16, G.ESL2F5):
            with pytest.raises(Rejected):
                rigid_embeds_in_m2hp(g, 7)


def _outcome(fn, g, p):
    try:
        return fn(g, p)
    except ValueError as exc:  # Rejected included
        return type(exc), str(exc), getattr(exc, "citation", None)


class TestLocalDegreeOracle:
    @pytest.mark.parametrize("g", list(G), ids=str)
    def test_agrees_with_invariant_arithmetic_below_20000(self, g):
        # the parity of a local degree against scalar extension and a split
        # test at every prime below 20000, and the same error, by type and
        # text, for every other n: non-primes fail before the group is read
        for p in range(-2, 20000):
            want = _outcome(rigid_embeds_by_invariants, g, p)
            assert _outcome(rigid_embeds_in_m2hp, g, p) == want, (g, p)

    def test_rejection_is_fresh_on_every_call(self):
        errors = []
        for _ in range(2):
            with pytest.raises(Rejected) as info:
                rigid_embeds_in_m2hp(G.C2, 7)
            errors.append(info.value)
        assert errors[0] is not errors[1]
        assert errors[0].reason == errors[1].reason == "Q is not among the tabulated embedding rows"


# run in a fresh interpreter, prints every rigid algebra and every embedding
# answer (the value's repr or the error) as JSON; with the argument "stub" it
# first replaces the types they are built from by stubs that raise
BUILT_ONCE_PROBE = """
import json, sys
from gkzeta import brauer, groups, numtheory
from gkzeta.groups import GroupId

def refuse(*args, **kwargs):
    raise AssertionError("a per-group value was built during a call")

if sys.argv[1:] == ["stub"]:
    for module in (numtheory, groups, brauer):
        for name in ("FieldDesc", "CSADescriptor", "Condition"):
            if hasattr(module, name):
                setattr(module, name, refuse)

def answer(f, *args):
    try:
        return repr(f(*args))
    except ValueError as exc:  # Rejected included
        return f"{type(exc).__name__}: {exc}"

print(json.dumps([answer(groups.rigid_algebra, g) for g in GroupId]
                 + [answer(brauer.rigid_embeds_in_m2hp, g, p)
                    for g in GroupId for p in (2, 3, 5, 7, 10007)]))
"""


def _built_once_probe(*args):
    from test_startup import environment

    done = subprocess.run([sys.executable, "-c", BUILT_ONCE_PROBE, *args], env=environment(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_nothing_per_group_is_built_per_call():
    # each algebra and each condition is built at import: with the types
    # that build them refusing, every call answers or rejects as before
    want = _built_once_probe()
    answers = json.loads(want)
    assert len(answers) == len(G) * 6
    assert {"True", "False"} <= set(answers)
    assert sum(a.startswith("Rejected: ") for a in answers) == 6 * 5
    assert _built_once_probe("stub") == want
