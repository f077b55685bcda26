import pytest

from gkzeta import brauer
from gkzeta.groups import (
    CONFIG_GROUPS,
    GroupId as G,
    cyclic_order,
    facts,
    is_cyclic,
    order,
    parse_group,
    rigid_algebra,
    subgroup_order,
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
        assert is_cyclic(G.C10)
        assert not is_cyclic(G.Q8)
        assert not is_cyclic(G.C3xQ8)
        assert cyclic_order(G.C8) == 8


class TestFacts:
    def test_all_cyclic_subgroup_orders_small(self):
        for g in G:
            for n in facts(g).cyclic_subgroup_orders:
                assert n in {1, 2, 3, 4, 5, 6, 8, 10, 12}

    def test_sylow_congruences(self):
        # n_l = 1 mod l and n_l divides |G| / l^v
        for g in G:
            f = facts(g)
            for l, count in f.sylow_counts.items():
                assert count % l == 1
                n = f.order
                while n % l == 0:
                    n //= l
                assert n % count == 0

    def test_sylow_primes_cover_order(self):
        for g in G:
            f = facts(g)
            n = f.order
            for l in f.sylow_counts:
                while n % l == 0:
                    n //= l
            assert n == 1

    def test_cyclic_orders_divide_group_order(self):
        for g in G:
            f = facts(g)
            assert 1 in f.cyclic_subgroup_orders
            for n in f.cyclic_subgroup_orders:
                assert f.order % n == 0

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
            f = facts(g)
            for tab in f.stabilizer_tables:
                for l in f.sylow_counts:
                    counted = sum(pts for h, pts in tab.entries
                                  if subgroup_order(h) % l == 0)
                    assert counted <= l ** 4
                    assert (l ** 4 - counted) % f.order == 0


class TestRigidAlgebra:
    def test_cyclic(self):
        assert str(rigid_algebra(G.C2)) == "Q"
        assert str(rigid_algebra(G.C3)) == "Q(zeta_3)"
        assert str(rigid_algebra(G.C6)) == "Q(zeta_3)"
        assert str(rigid_algebra(G.C10)) == "Q(zeta_5)"
        assert str(rigid_algebra(G.C8)) == "Q(zeta_8)"

    def test_quaternionic(self):
        assert rigid_algebra(G.Q8) == brauer.make_hp(2)
        assert rigid_algebra(G.Q12) == brauer.make_hp(3)
        assert rigid_algebra(G.Q16) == brauer.make_h_infty(brauer.quadratic(2))
        assert rigid_algebra(G.Q20) == brauer.make_h_infty(brauer.quadratic(5))
        assert rigid_algebra(G.Q24) == brauer.make_h_infty(brauer.quadratic(3))

    def test_exceptional(self):
        assert rigid_algebra(G.SL2F3) == brauer.make_hp(2)
        assert rigid_algebra(G.ESL2F3) == brauer.make_h_infty(brauer.quadratic(2))
        assert rigid_algebra(G.SL2F5) == brauer.make_h_infty(brauer.quadratic(5))

    def test_characteristic_special(self):
        m2h5 = brauer.matrix_over(brauer.make_hp(5), 2)
        assert rigid_algebra(G.C5_C8) == m2h5
        assert rigid_algebra(G.ESL2F5) == m2h5
        assert rigid_algebra(G.C3_C8).center == brauer.cyclotomic_field(4)
        assert rigid_algebra(G.C3xQ8).center == brauer.cyclotomic_field(3)
        assert rigid_algebra(G.C3_Q16) == brauer.matrix_over(brauer.make_hp(3), 2)

    def test_cached_and_equal_to_a_fresh_build(self):
        for g in G:
            assert rigid_algebra(g) is rigid_algebra(g)
            assert rigid_algebra(g) == rigid_algebra.__wrapped__(g)

    def test_dims(self):
        for g in G:
            alg = rigid_algebra(g)
            assert alg.degree ** 2 * alg.center.degree in (1, 2, 4, 8, 16)
