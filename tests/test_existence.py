import pytest

from gkzeta import brauer, existence
from gkzeta.brauer import rigid_embeds_in_m2hp
from gkzeta.existence import (
    EVEN_DEGREE_GROUPS,
    _EVEN_TABLE,
    ExistenceVerdict,
    Rejected,
    exists_over_even_degree,
    exists_over_odd_degree,
    exists_over_prime_field,
    katsura_refinement,
)
from gkzeta.groups import CONFIG_GROUPS, GroupId as G, facts, order, rigid_algebra
from gkzeta.kummer import trace_table
from gkzeta.numtheory import PrimePower, is_prime

PRIMES_200 = [p for p in range(2, 200) if is_prime(p)]

EVEN_TABLE_LITERAL = {
    # group -> (column I predicate, column II predicate)
    G.C3: (lambda p: True, lambda p: True),
    G.C6: (lambda p: True, lambda p: True),
    G.C4: (lambda p: True, lambda p: True),
    G.C8: (lambda p: p % 8 != 1, lambda p: p % 8 not in (1, 7)),
    G.C5: (lambda p: p % 5 != 1, lambda p: p % 5 not in (1, 4)),
    G.C10: (lambda p: p % 5 != 1, lambda p: p % 5 not in (1, 4)),
    G.C12: (lambda p: p % 12 != 1, lambda p: p % 12 not in (1, 11)),
    G.Q8: (lambda p: True, lambda p: True),
    G.Q12: (lambda p: True, lambda p: True),
    G.Q16: (lambda p: p % 8 not in (1, 7),) * 2,
    G.Q20: (lambda p: p % 5 not in (1, 4),) * 2,
    G.Q24: (lambda p: p % 12 not in (1, 11),) * 2,
    G.SL2F3: (lambda p: True, lambda p: True),
    G.ESL2F3: (lambda p: p % 8 not in (1, 7),) * 2,
    G.SL2F5: (lambda p: p % 5 not in (1, 4),) * 2,
}


class TestEvenDegree:
    def test_spec_examples(self):
        v = exists_over_even_degree(G.SL2F5, 3)
        assert v.exists_rigid and v.exists_rigid_symplectic
        v = exists_over_even_degree(G.C8, 7)
        assert v.exists_rigid and not v.exists_rigid_symplectic
        v = exists_over_even_degree(G.C4, 5)
        assert v.exists_rigid and v.exists_rigid_symplectic

    def test_matches_literal_table(self):
        for g, (col1, col2) in EVEN_TABLE_LITERAL.items():
            for p in PRIMES_200:
                if order(g) % p == 0:
                    continue
                v = exists_over_even_degree(g, p)
                assert v.exists_rigid == col1(p), (g, p)
                assert v.exists_rigid_symplectic == col2(p), (g, p)

    def test_symplectic_implies_rigid(self):
        for g in EVEN_TABLE_LITERAL:
            for p in PRIMES_200:
                v = exists_over_even_degree(g, p)
                if v.exists_rigid_symplectic:
                    assert v.exists_rigid

    def test_agrees_with_embedding_test(self):
        # column I and the M(2, H_p) embedding are independent computations
        # of the same obstruction
        for g in EVEN_TABLE_LITERAL:
            for p in PRIMES_200:
                try:
                    emb = rigid_embeds_in_m2hp(g, p)
                except Rejected:
                    continue
                assert exists_over_even_degree(g, p).exists_rigid == emb, (g, p)

    def test_same_groups_as_embedding_test(self):
        for g in G:
            covered = g in EVEN_DEGREE_GROUPS
            assert covered == (g in EVEN_TABLE_LITERAL)
            if not covered:
                with pytest.raises(Rejected):
                    rigid_embeds_in_m2hp(g, 7)
                with pytest.raises(Rejected):
                    exists_over_even_degree(g, 7)

    @pytest.mark.parametrize("g", list(G), ids=str)
    def test_embedding_condition_is_column_one(self, g):
        # the condition derived from the algebra's center, against the one
        # typed from the paper: equal texts decide alike at every p
        cond = brauer._embedding_condition(g)
        if g in EVEN_DEGREE_GROUPS:
            row = _EVEN_TABLE[g]
            assert str(cond) == ("any p" if row is None else str(row[0]))
        else:
            assert cond == f"{rigid_algebra(g)} is not among the tabulated embedding rows"

    def test_rejects_uncovered(self):
        with pytest.raises(Rejected):
            exists_over_even_degree(G.C2, 5)
        with pytest.raises(Rejected):
            exists_over_even_degree(G.C5_C8, 7)


class TestPrimeField:
    def test_guaranteed(self):
        assert exists_over_prime_field(G.C6, 7).exists_rigid is True
        assert exists_over_prime_field(G.Q12, 5).exists_rigid is True
        assert exists_over_prime_field(G.Q8, 7).exists_rigid is True

    def test_not_determined(self):
        assert exists_over_prime_field(G.Q16, 7).exists_rigid is None
        assert exists_over_prime_field(G.Q8, 2).exists_rigid is None
        assert exists_over_prime_field(G.Q12, 3).exists_rigid is None

    def test_any_p_for_small_cyclic(self):
        for p in (2, 3, 5, 7, 11):
            for g in (G.C2, G.C3, G.C4, G.C6):
                assert exists_over_prime_field(g, p).exists_rigid is True


class TestOddDegree:
    def test_c4_always(self):
        v = exists_over_odd_degree(G.C4, PrimePower(7, 1))
        assert v.exists_rigid is True
        shapes = {o.shape for o in v.weil_options if o.satisfied}
        assert "t^4 + q^2" in shapes

    def test_q8_table(self):
        # (t^2 - q)^2 iff p != 1 mod 8; (t^2 + q)^2 iff p != -1 mod 8
        for p in (3, 5, 7, 11, 13, 17, 23, 41):
            v = exists_over_odd_degree(G.Q8, PrimePower(p, 1))
            by_shape = {o.shape: o.satisfied for o in v.weil_options}
            assert by_shape["(t^2 - q)^2"] == (p % 8 != 1)
            assert by_shape["(t^2 + q)^2"] == (p % 8 != 7)
            assert v.exists_rigid == (p % 8 != 1 or p % 8 != 7)

    def test_q12_table(self):
        for p in (5, 7, 11, 13):
            v = exists_over_odd_degree(G.Q12, PrimePower(p, 1))
            by_shape = {o.shape: o.satisfied for o in v.weil_options}
            assert by_shape["(t^2 - q)^2"] == (p % 3 != 2)
            assert by_shape["(t^2 + q)^2"] == (p % 3 != 1)

    def test_sl2f3_matches_q8(self):
        for p in (5, 7, 17, 23):
            a = exists_over_odd_degree(G.SL2F3, PrimePower(p, 3))
            b = exists_over_odd_degree(G.Q8, PrimePower(p, 3))
            assert [o.satisfied for o in a.weil_options] == \
                   [o.satisfied for o in b.weil_options]

    def test_special_rows(self):
        v = exists_over_odd_degree(G.C8, PrimePower(3, 1))
        assert any(o.satisfied is None for o in v.weil_options)
        v = exists_over_odd_degree(G.C3, PrimePower(2, 1))
        assert any(o.satisfied is None for o in v.weil_options)

    def test_no_row_groups_refuted(self):
        v = exists_over_odd_degree(G.Q16, PrimePower(7, 1))
        assert v.exists_rigid is False
        v = exists_over_odd_degree(G.C8, PrimePower(7, 1))
        assert v.exists_rigid is False

    def test_preconditions(self):
        with pytest.raises(Rejected):
            exists_over_odd_degree(G.C4, PrimePower(5, 2))
        with pytest.raises(Rejected):
            exists_over_odd_degree(G.C2, PrimePower(5, 1))
        with pytest.raises(Rejected):
            exists_over_odd_degree(G.C6, PrimePower(3, 1))


class TestKatsuraRefinement:
    def test_unconditional_groups(self):
        for g in (G.C2, G.C3, G.C4, G.C6, G.Q8, G.Q12, G.SL2F3):
            for q in (PrimePower(5, 1), PrimePower(5, 2), PrimePower(7, 3)):
                assert katsura_refinement(g, q).exists_rigid is True

    def test_odd_degree_refused_for_trigger_groups(self):
        assert katsura_refinement(G.SL2F5, PrimePower(7, 1)).exists_rigid is False
        assert katsura_refinement(G.C5, PrimePower(7, 1)).exists_rigid is False

    def test_c8_spec_example(self):
        assert katsura_refinement(G.C8, PrimePower(3, 2)).exists_rigid is True

    def test_congruence_clause(self):
        assert katsura_refinement(G.Q20, PrimePower(3, 2)).exists_rigid is True
        assert katsura_refinement(G.Q20, PrimePower(11, 2)).exists_rigid is False
        assert katsura_refinement(G.ESL2F3, PrimePower(7, 2)).exists_rigid is False
        assert katsura_refinement(G.ESL2F3, PrimePower(5, 2)).exists_rigid is True

    def test_trigger_groups_are_exactly_the_expected_set(self):
        triggers = {G.C5, G.C8, G.C10, G.C12, G.Q16, G.Q20, G.Q24, G.ESL2F3, G.SL2F5}
        for g in (G.C2, G.C3, G.C4, G.C5, G.C6, G.C8, G.C10, G.C12,
                  G.Q8, G.Q12, G.Q16, G.Q20, G.Q24, G.SL2F3, G.ESL2F3, G.SL2F5):
            has_trigger = bool(facts(g).cyclic_subgroup_orders & {5, 8, 12})
            assert has_trigger == (g in triggers), g

    def test_monotone_in_field_extension(self):
        for g in (G.C5, G.C8, G.Q16, G.Q20, G.SL2F5, G.Q8, G.C4):
            for p in (3, 7, 11, 13):
                if order(g) % p == 0:
                    continue
                base = katsura_refinement(g, PrimePower(p, 1)).exists_rigid
                ext = katsura_refinement(g, PrimePower(p, 2)).exists_rigid
                if base:
                    assert ext

    def test_rejections(self):
        with pytest.raises(Rejected):
            katsura_refinement(G.C3, PrimePower(2, 1))
        with pytest.raises(Rejected):
            katsura_refinement(G.Q8, PrimePower(2, 2))
        with pytest.raises(Rejected):
            katsura_refinement(G.SL2F5, PrimePower(3, 2))
        with pytest.raises(Rejected):
            katsura_refinement(G.C5_C8, PrimePower(3, 2))


class TestStoredRows:
    """The rows each per-prime call reads, built once at import, against the
    typed tables they are built from."""

    def test_refinement_rows_follow_the_element_orders(self):
        assert set(existence._REFINE_ROWS) == set(CONFIG_GROUPS)
        for g in CONFIG_GROUPS:
            row = existence._REFINE_ROWS[g]
            if g in existence._REFINE_DIRECT:
                assert isinstance(row, ExistenceVerdict), g
            else:
                orders = sorted(facts(g).cyclic_subgroup_orders & {5, 8, 12})
                assert [c.text for c in row] == [f"p != +-1 mod {n}" for n in orders], g

    def test_even_rows_keep_the_table_conditions(self):
        assert set(existence._EVEN_ROWS) == set(_EVEN_TABLE)
        for g, conds in _EVEN_TABLE.items():
            row = existence._EVEN_ROWS[g]
            if conds is not None:
                assert row == (*conds, f"symplectic: {conds[1]}"), g

    SHARED = (
        ("_EVEN_ROWS", exists_over_even_degree, lambda g: _EVEN_TABLE.get(g, ()) is None,
         lambda g: ExistenceVerdict(g, True, True, "even-degree classification",
                                    (("any p coprime to |G|", True),), ())),
        ("_OUTSIDE_PRIME_FIELD", exists_over_prime_field,
         lambda g: g not in existence._PRIME_FIELD,
         lambda g: ExistenceVerdict(g, None, None, "prime-field sufficiency", (
             ("group outside the prime-field sufficiency list", False),), ())),
        ("_REFINE_ROWS", katsura_refinement, lambda g: g in existence._REFINE_DIRECT,
         lambda g: ExistenceVerdict(g, True, True, "quotient refinement",
                                    (("group in the unconditional list", True),), ())),
    )

    @pytest.mark.parametrize("table, fn, shared, fresh", SHARED, ids=[t[0] for t in SHARED])
    def test_shared_verdicts(self, table, fn, shared, fresh):
        # a verdict is shared exactly where the typed table makes it the same
        # for every p; it equals one built afresh, is returned for every p
        # the function answers, and refuses assignment
        stored = {g: v for g, v in getattr(existence, table).items()
                  if isinstance(v, ExistenceVerdict)}
        assert set(stored) == {g for g in G if shared(g)}
        for g, v in stored.items():
            assert v == fresh(g)
            for p in PRIMES_200[1:]:  # the refinement rejects p = 2
                if order(g) % p:
                    assert fn(g, PrimePower(p, 2) if fn is katsura_refinement else p) is v
            with pytest.raises(AttributeError):
                v.exists_rigid = not v.exists_rigid
            with pytest.raises(AttributeError):
                del v.conditions


class TestTraceTableConsistency:
    """The trace tables (kummer) agree with the existence tables: every row
    that holds at an odd p < 3000 has a quotient construction over F_{p^2}
    (even rows) or F_p (odd rows), and an odd row of a group of order > 2
    has its Weil shape among the satisfied odd-degree options."""

    ODD_PRIMES = [p for p in range(3, 3000, 2) if is_prime(p)]

    @pytest.mark.parametrize("parity, degree, count", [("even", 2, 3762), ("odd", 1, 2574)])
    def test_rows_pass_the_refinement(self, parity, degree, count):
        rows = 0
        for p in self.ODD_PRIMES:
            q = PrimePower(p, degree)
            for row in trace_table(parity, p):
                assert katsura_refinement(row.group, q).exists_rigid, (p, row)
                rows += 1
        assert rows == count

    def test_odd_rows_offer_their_weil_shape(self):
        rows = 0
        for p in self.ODD_PRIMES:
            for row in trace_table("odd", p):
                if order(row.group) <= 2:
                    continue
                options = exists_over_odd_degree(row.group, PrimePower(p, 1)).weil_options
                assert any(o.shape == row.weil_shape and o.satisfied is True
                           for o in options), (p, row)
                rows += 1
        assert rows == 640


def _verdict(fn, g, q):
    """An answer without the prime: the embedding's bool, or a verdict's
    answers, citation, condition texts and values and its Weil options'
    shape, condition and satisfaction; or the rejection."""
    try:
        v = fn(g, q)
    except Rejected as exc:
        return "rejected", str(exc)
    if isinstance(v, bool):
        return v
    options = tuple((o.shape, o.condition, o.satisfied) for o in v.weil_options)
    return v.exists_rigid, v.exists_rigid_symplectic, v.citation, v.conditions, options


def test_verdicts_depend_only_on_p_mod_120():
    # every table condition is a congruence modulo 3, 4, 5, 8 or 12, and p's
    # splitting in the centers Q(zeta_5, zeta_8, zeta_12), Q(sqrt(2, 3, 5))
    # depends on p modulo their conductors; all of these divide 120
    answers = {}
    for p in range(7, 20000):
        if not is_prime(p):
            continue
        p2, p3 = PrimePower(p, 2), PrimePower(p, 3)
        answer = [_verdict(rigid_embeds_in_m2hp, g, p) for g in G]
        for g in CONFIG_GROUPS:
            answer += [_verdict(exists_over_even_degree, g, p),
                       _verdict(exists_over_prime_field, g, p),
                       _verdict(katsura_refinement, g, p2),
                       _verdict(katsura_refinement, g, p3),
                       _verdict(exists_over_odd_degree, g, PrimePower(p, 1)),
                       _verdict(exists_over_odd_degree, g, p3)]
        for parity in ("even", "odd"):
            answer.append(tuple((r.trace, r.notation, r.group) for r in trace_table(parity, p)))
        assert answers.setdefault(p % 120, answer) == answer, p
    assert len(answers) == 32
