import copy
import pickle

import pytest

from gkzeta.numtheory import cyclotomic, euler_phi
from gkzeta.groups import (
    _FACTS,
    CONFIG_GROUPS,
    GroupFacts,
    GroupId as G,
    facts,
    is_cyclic,
    order,
    parse_group,
    rigid_algebra,
)

from oracles import (
    ELEMENT_ORDERS,
    FIXED_POINTS,
    SYLOW_COUNTS,
    class_equation_failures,
    cyclotomic_field,
    make_h_infty,
    make_hp,
    matrix_over,
    quadratic,
)


class TestCatalog:
    def test_parse(self):
        assert parse_group("C12") is G.C12
        assert parse_group("q8") is G.Q8
        assert parse_group("CSU2F3") is G.ESL2F3
        assert parse_group("CSU2F5") is G.ESL2F5
        assert parse_group("C3xQ8") is G.C3xQ8
        assert parse_group("C5:C8") is G.C5_C8
        with pytest.raises(ValueError):
            parse_group("D8")

    def test_orders_divide_240(self):
        for g in G:
            assert 240 % order(g) == 0

    def test_cyclic(self):
        assert [g for g in G if is_cyclic(g)] == [
            G.C2, G.C3, G.C4, G.C5, G.C6, G.C8, G.C10, G.C12]


class TestFacts:
    def test_all_cyclic_subgroup_orders_small(self):
        for g in G:
            for n in facts(g).cyclic_subgroup_orders:
                assert n in {1, 2, 3, 4, 5, 6, 8, 10, 12}

    def test_sylow_congruences(self):
        # n_l = 1 mod l and n_l divides |G| / l^v
        for g in G:
            for l, count in SYLOW_COUNTS[g].items():
                assert count % l == 1
                n = order(g)
                while n % l == 0:
                    n //= l
                assert n % count == 0

    def test_sylow_primes_cover_order(self):
        for g in G:
            n = order(g)
            for l in SYLOW_COUNTS[g]:
                while n % l == 0:
                    n //= l
            assert n == 1

    def test_cyclic_orders_divide_group_order(self):
        for g in G:
            f = facts(g)
            assert 1 in f.cyclic_subgroup_orders
            for n in f.cyclic_subgroup_orders:
                assert order(g) % n == 0

    def test_stabilizer_examples(self):
        assert dict(facts(G.C2).stabilizer_tables[0].entries) == {G.C2: 16}
        q12 = dict(facts(G.Q12).stabilizer_tables[0].entries)
        assert q12 == {G.Q12: 1, G.C4: 9, G.C3: 8, G.C2: 6}

    def test_q8_has_two_tables(self):
        tabs = facts(G.Q8).stabilizer_tables
        assert [t.case for t in tabs] == ["A", "B"]
        assert dict(tabs[0].entries)[G.Q8] == 4
        assert dict(tabs[1].entries)[G.C4] == 6

    def test_torsion_conservation(self):
        # for each prime l dividing |G|, the l^4 points of the l-torsion
        # subgroup split into the tabulated points whose stabilizer order is
        # divisible by l plus whole free G-orbits
        for g in CONFIG_GROUPS:
            for tab in facts(g).stabilizer_tables:
                for l in SYLOW_COUNTS[g]:
                    counted = sum(pts for h, pts in tab.entries
                                  if order(h) % l == 0)
                    assert counted <= l ** 4
                    assert (l ** 4 - counted) % order(g) == 0


class TestStoredFacts:
    @pytest.mark.parametrize("g", list(G), ids=str)
    def test_one_value_per_group(self, g):
        # GroupId hashes by identity: copies, pickles and lookups by value
        # must all give back the one member
        assert pickle.loads(pickle.dumps(g)) is g
        assert copy.deepcopy(g) is g
        assert {g: 1}[G(g.value)] == 1
        assert facts(g) is facts(g)
        cyc, tables = _FACTS[g]
        assert facts(g) == GroupFacts(g, frozenset(cyc), tables)

    def test_catalog_and_config_groups(self):
        assert len(G) == 21
        assert [str(g) for g in CONFIG_GROUPS] == [
            "C2", "C3", "C4", "C5", "C6", "C8", "C10", "C12",
            "Q8", "Q12", "Q16", "Q20", "Q24", "SL2F3", "ESL2F3", "SL2F5"]


class TestClassEquation:
    """Each typed stabilizer table against the class equation
    sum over (H, N) of N c_m(H) = c_m(G) #Fix(m), for every order m."""

    def test_element_orders_match_the_facts(self):
        for g in CONFIG_GROUPS:
            assert sum(ELEMENT_ORDERS[g].values()) == order(g), g
            assert set(ELEMENT_ORDERS[g]) == facts(g).cyclic_subgroup_orders, g

    def test_fixed_points_are_cyclotomic_values(self):
        for m, fix in FIXED_POINTS.items():
            # Phi_m(1) is the sum of the coefficients
            assert sum(cyclotomic(m).coeffs) ** (4 // euler_phi(m)) == fix, m

    def test_every_table_satisfies_it(self):
        tables = [(g, tab) for g in CONFIG_GROUPS for tab in facts(g).stabilizer_tables]
        assert len(tables) == 17
        for g, tab in tables:
            assert class_equation_failures(g, tab.entries) == [], (g, tab.case)

    def test_planted_typo_fails_at_m_2(self):
        # (C2, 10) in place of (C2, 12) for C4 still gives whole orbits,
        # N |H| = 0 mod |G|, but breaks the count of involutions
        typo = ((G.C4, 4), (G.C2, 10))
        assert all(n * order(h) % order(G.C4) == 0 for h, n in typo)
        assert class_equation_failures(G.C4, typo) == [2]


class TestRigidAlgebra:
    def test_cyclic(self):
        assert str(rigid_algebra(G.C2)) == "Q"
        assert str(rigid_algebra(G.C3)) == "Q(zeta_3)"
        assert str(rigid_algebra(G.C6)) == "Q(zeta_3)"
        assert str(rigid_algebra(G.C10)) == "Q(zeta_5)"
        assert str(rigid_algebra(G.C8)) == "Q(zeta_8)"

    def test_quaternionic(self):
        assert rigid_algebra(G.Q8) == make_hp(2)
        assert rigid_algebra(G.Q12) == make_hp(3)
        assert rigid_algebra(G.Q16) == make_h_infty(quadratic(2))
        assert rigid_algebra(G.Q20) == make_h_infty(quadratic(5))
        assert rigid_algebra(G.Q24) == make_h_infty(quadratic(3))

    def test_exceptional(self):
        assert rigid_algebra(G.SL2F3) == make_hp(2)
        assert rigid_algebra(G.ESL2F3) == make_h_infty(quadratic(2))
        assert rigid_algebra(G.SL2F5) == make_h_infty(quadratic(5))

    def test_characteristic_special(self):
        m2h5 = matrix_over(make_hp(5), 2)
        assert rigid_algebra(G.C5_C8) == m2h5
        assert rigid_algebra(G.ESL2F5) == m2h5
        assert rigid_algebra(G.C3_C8).center == cyclotomic_field(4)
        assert rigid_algebra(G.C3xQ8).center == cyclotomic_field(3)
        assert rigid_algebra(G.C3_Q16) == matrix_over(make_hp(3), 2)

    def test_cached_and_equal_to_a_fresh_build(self):
        for g in G:
            assert rigid_algebra(g) is rigid_algebra(g)
            assert rigid_algebra(g) == rigid_algebra.__wrapped__(g)

    def test_dims(self):
        for g in G:
            alg = rigid_algebra(g)
            assert alg.degree ** 2 * alg.center.degree in (1, 2, 4, 8, 16)
