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
from oracles import (
    end0_embeds,
    fresh_even_verdict,
    fresh_prime_field_verdict,
    fresh_refinement_verdict,
)

PRIMES_200 = [p for p in range(2, 200) if is_prime(p)]
PRIMES_5_TO_2000 = [p for p in range(5, 2000) if is_prime(p)]

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
        # derived from the element orders: equal texts decide alike at every p
        cond = brauer._EMBEDDING[g]
        if g in EVEN_DEGREE_GROUPS:
            row = _EVEN_TABLE[g]
            assert str(cond) == ("any p" if row is existence._EVEN_ALWAYS else str(row[0]))
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

    def test_special_shapes_never_meet_p_dividing_the_order(self):
        # an undetermined special shape cannot keep a p | |G| from being
        # rejected: no group it applies to has an order that p divides
        pairs = [(p, g) for p, (gs, _) in existence._SPECIAL_SHAPES.items() for g in gs]
        assert pairs == [(3, G.C4), (3, G.C8), (3, G.Q8), (2, G.C3)]
        for p, g in pairs:
            assert order(g) % p, (p, g)

    def test_no_row_groups_refuted(self):
        v = exists_over_odd_degree(G.Q16, PrimePower(7, 1))
        assert v.exists_rigid is False
        v = exists_over_odd_degree(G.C8, PrimePower(7, 1))
        assert v.exists_rigid is False

    @staticmethod
    def _end0_comparisons():
        # (group, p, n, shape, satisfied, End^0 oracle) for every option of
        # every group at every prime 5 <= p < 2000, n in {1, 3}
        out = []
        for g in G:
            for p in PRIMES_5_TO_2000:
                for n in (1, 3):
                    q = PrimePower(p, n)
                    try:
                        v = exists_over_odd_degree(g, q)
                    except Rejected:
                        continue
                    alg = rigid_algebra(g)
                    out += [(g, p, n, o.shape, o.satisfied, end0_embeds(alg, o.poly, q))
                            for o in v.weil_options]
        return out

    def test_options_match_end0_except_q12(self):
        """Each option's condition holds iff the group's rigid algebra embeds
        in End^0 of the surface with that Frobenius polynomial, which Tate's
        theorem and Honda-Tate give from the polynomial alone
        (oracles.end0_embeds), for every group but Q12."""
        rows = [r for r in self._end0_comparisons() if r[0] is not G.Q12]
        assert {r[0] for r in rows} == {G.C3, G.C4, G.C6, G.Q8, G.SL2F3}
        assert [r for r in rows if r[4] is not r[5]] == []

    def test_q12_options_are_the_negation_of_end0(self):
        """The Q12 row reads swapped against End^0 at every p, both shapes.
        Q12 acts through H_{3,oo}, which embeds in End^0 of (t^2 - q)^2, the
        quaternion algebra over Q(sqrt(p)) ramified at its two real places,
        iff 3 does not split in Q(sqrt(p)), i.e. iff p != 1 mod 3; and in
        End^0 = M_2(Q(sqrt(-p))) of (t^2 + q)^2 iff 3 does not split in
        Q(sqrt(-p)), i.e. iff p != 2 mod 3. The row says p != 2 mod 3 and
        p != 1 mod 3. The yes/no answer is the same, since exactly one option
        holds either way; which option is printed as available is not. The
        row is kept as the paper's table is typed here until the source can
        be checked; this pins the disagreement exactly, so that any other
        change to the row or the oracle fails."""
        rows = [r for r in self._end0_comparisons() if r[0] is G.Q12]
        assert len(rows) == len(PRIMES_5_TO_2000) * 2 * 2
        assert [r for r in rows if r[4] is not (not r[5])] == []

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


# the groups whose even-degree columns both hold for every p, the groups
# outside the prime-field list, and the seven direct refinement groups, as
# the paper lists them
EVEN_ALWAYS = {G.C3, G.C4, G.C6, G.Q8, G.Q12, G.SL2F3}
PRIME_FIELD_LIST = {G.C2, G.C3, G.C4, G.C6, G.Q8, G.Q12, G.SL2F3}
REFINE_DIRECT = {G.C2, G.C3, G.C4, G.C6, G.Q8, G.Q12, G.SL2F3}


class TestStoredRows:
    """The rows each per-prime call reads, built once at import, against the
    typed tables they are built from."""

    def test_refinement_rows_follow_the_element_orders(self):
        # a row is the clause and its verdicts, indexed [degree odd][holds]
        assert set(existence._REFINE_ROWS) == set(CONFIG_GROUPS)
        for g in CONFIG_GROUPS:
            row = existence._REFINE_ROWS[g]
            if g in REFINE_DIRECT:
                assert row is existence._REFINE_ALWAYS, g
            else:
                clause, verdicts = row
                orders = sorted(facts(g).cyclic_subgroup_orders & {5, 8, 12})
                assert [clause.text] == [f"p != +-1 mod {n}" for n in orders], g
                for odd in (False, True):
                    for holds in (False, True):
                        assert verdicts[odd][holds].conditions == (
                            ("field degree even", not odd), (clause.text, holds)), g

    def test_even_rows_keep_the_table_conditions(self):
        # column II prints as its condition's text after "symplectic: "; a
        # row is the two conditions and their verdicts, indexed by outcome
        assert set(_EVEN_TABLE) == set(EVEN_TABLE_LITERAL)
        for g, row in _EVEN_TABLE.items():
            if g in EVEN_ALWAYS:
                assert row is existence._EVEN_ALWAYS, g
            else:
                rigid, sympl, verdicts = row
                for r in (False, True):
                    for s in (False, True):
                        assert verdicts[r][s].conditions == (
                            (rigid.text, r), (f"symplectic: {sympl.text}", s)), g

    SHARED = (
        ("_EVEN_TABLE", exists_over_even_degree, EVEN_ALWAYS,
         ExistenceVerdict(True, True, "even-degree classification",
                          (("any p coprime to |G|", True),), ())),
        ("_OUTSIDE_PRIME_FIELD", exists_over_prime_field, set(G) - PRIME_FIELD_LIST,
         ExistenceVerdict(None, None, "prime-field sufficiency", (
             ("group outside the prime-field sufficiency list", False),), ())),
        ("_REFINE_ROWS", katsura_refinement, REFINE_DIRECT,
         ExistenceVerdict(True, True, "quotient refinement",
                          (("group in the unconditional list", True),), ())),
    )

    @pytest.mark.parametrize("table, fn, shared, fresh", SHARED, ids=[t[0] for t in SHARED])
    def test_shared_verdicts(self, table, fn, shared, fresh):
        # each classification answers with one object, the same for every
        # group and every p, exactly where the typed table makes the answer
        # the same for every p; it equals one built afresh and refuses
        # assignment
        answers = {}
        for g in G:
            for p in PRIMES_200[1:]:  # the refinement rejects p = 2
                try:
                    v = fn(g, PrimePower(p, 2) if fn is katsura_refinement else p)
                except Rejected:
                    continue
                answers.setdefault(g, []).append(v)
        shared_by = {g for g, vs in answers.items() if vs[0] == fresh}
        assert shared_by == shared
        (v,) = {id(v): v for g in shared for v in answers[g]}.values()
        assert v == fresh
        assert all(w is not v for g in set(answers) - shared for w in answers[g])
        with pytest.raises(AttributeError):
            v.exists_rigid = not v.exists_rigid
        with pytest.raises(AttributeError):
            del v.conditions

    # every integer p below 2000, primes and composites alike, with its
    # fields F_p, F_p^2 and F_p^3 built without a primality test
    FIELDS = [(p, [tuple.__new__(PrimePower, (p, n)) for n in (1, 2, 3)]) for p in range(1, 2000)]

    @staticmethod
    def _answers(oracle: bool):
        """(group, p, answer, oracle's answer) of every call of the three
        classifications, an answer being the verdict or the rejection's
        text; the oracle's answer is False unless oracle is set."""
        def call(f, *args):
            try:
                return f(*args)
            except Rejected as exc:
                return "rejected", str(exc)

        for g in G:
            for p, fields in TestStoredRows.FIELDS:
                for f, arg, want in ((exists_over_even_degree, p, fresh_even_verdict),
                                     (exists_over_prime_field, p, fresh_prime_field_verdict),
                                     *((katsura_refinement, q, fresh_refinement_verdict)
                                       for q in fields)):
                    yield g, p, call(f, g, arg), oracle and call(want, g, arg)

    def test_answers_equal_fresh_verdicts_and_share_one_object(self):
        # each answer equals, field by field, a verdict built afresh at p the
        # way the library once built every answer; equal answers are one
        # object, and it refuses assignment
        shared = {}
        for g, p, got, want in self._answers(oracle=True):
            assert type(got) is type(want), (g, p)
            assert [repr(x) for x in got] == [repr(x) for x in want], (g, p)
            if isinstance(got, ExistenceVerdict):
                assert shared.setdefault(got, got) is got, (g, p)
        assert len(shared) == 35
        for v in shared.values():
            for field in ExistenceVerdict._fields:
                with pytest.raises(AttributeError):
                    setattr(v, field, None)

    def test_no_verdict_is_built_per_call(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("an ExistenceVerdict was built during a call")

        monkeypatch.setattr(existence, "ExistenceVerdict", refuse)
        answered = sum(1 for _ in self._answers(oracle=False))
        assert answered == len(G) * len(self.FIELDS) * 5


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
