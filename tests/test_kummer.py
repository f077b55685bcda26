import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gkzeta import kummer
from gkzeta.groups import GroupId as G
from gkzeta.kummer import (
    ADEType,
    NSCharPoly,
    Rejected,
    SingularOrbit,
    artin_check,
    assemble_ns,
    exceptional_charpoly,
    invariant_h_poly,
    k3_point_count,
    k3_zeta,
    ns_rank_bound,
    parse_zeta_notation,
    singular_configs,
    trace_of,
    trace_table,
)
from gkzeta.numtheory import PrimePower

from oracles import (
    cyclotomic_by_division,
    divisors,
    euler_phi,
    moebius,
    ns_polynomial,
    parse_notation_by_terms,
    reciprocal,
    scale_arg,
    series_from_poly,
    series_inv,
    series_mul,
    zeta_factor,
)


def _random_notation(rng, orders) -> NSCharPoly:
    """A valid notation: distinct orders r, each with a positive multiple of
    phi(r), of total degree 22."""
    while True:
        parts, left = {}, 22
        while left:
            fits = [r for r in orders if euler_phi(r) <= left and r not in parts]
            if not fits:
                break
            r = rng.choice(fits)
            parts[r] = euler_phi(r) * rng.randint(1, left // euler_phi(r))
            left -= parts[r]
        if not left:
            return NSCharPoly(tuple(parts.items()))


class TestADE:
    def test_validation(self):
        assert ADEType("A", 1).m == 1
        assert ADEType("D", 4).m == 4
        assert ADEType("E", 8).m == 8
        for bad in (("A", 0), ("D", 3), ("E", 5), ("F", 4)):
            with pytest.raises(ValueError):
                ADEType(*bad)

    def test_str(self):
        assert str(ADEType("A", 11)) == "A11"
        assert str(ADEType("D", 6)) == "D6"


class TestConfigs:
    def test_c6(self):
        (cfg,) = singular_configs(G.C6)
        assert str(cfg) == "C6: A5 + 4A2 + 5A1"
        assert ns_rank_bound(cfg) == (19, False)

    def test_q8_both_cases(self):
        a, b = singular_configs(G.Q8)
        assert (a.case, b.case) == ("A", "B")
        assert [(str(o.ade), o.count) for o in a.orbits] == [("D4", 4), ("A1", 3)]
        assert [(str(o.ade), o.count) for o in b.orbits] == [("D4", 2), ("A3", 3), ("A1", 2)]

    def test_rank_exact_at_20_nodes(self):
        for g in (G.C5, G.C8, G.C10, G.C12, G.Q16, G.Q20, G.Q24, G.ESL2F3, G.SL2F5):
            for cfg in singular_configs(g):
                assert cfg.total_nodes == 20
                assert ns_rank_bound(cfg) == (22, True)

    def test_node_bound_everywhere(self):
        for g in (G.C2, G.C3, G.C4, G.C6, G.Q8, G.Q12, G.SL2F3):
            for cfg in singular_configs(g):
                assert cfg.total_nodes < 20

    def test_cyclic_point_total_matches_fixed_points(self):
        # for odd cyclic orders every fixed point is singular on the quotient
        assert [sum(o.count for o in c.orbits) for c in singular_configs(G.C3)] == [9]
        assert [sum(o.count for o in c.orbits) for c in singular_configs(G.C5)] == [5]

    def test_rejects_uncovered(self):
        with pytest.raises(Rejected):
            singular_configs(G.C5_C8)


class TestExceptionalCharpoly:
    def test_trivial_rational(self):
        orb = SingularOrbit(ADEType("A", 3), 4, 1, "trivial")
        assert exceptional_charpoly(orb) == {1: 12}

    def test_trivial_degree_2(self):
        orb = SingularOrbit(ADEType("A", 3), 2, 2, "trivial")
        assert exceptional_charpoly(orb) == {1: 3, 2: 3}

    def test_trivial_degree_4(self):
        orb = SingularOrbit(ADEType("A", 1), 4, 4, "trivial")
        assert exceptional_charpoly(orb) == {1: 1, 2: 1, 4: 2}

    def test_every_trivial_orbit_of_at_most_22_nodes(self):
        # every ADE type, count with count * m <= 22 and degree | count: phi(r)
        # at each r | degree for every node of one fiber, from the oracles
        types = ([ADEType("A", m) for m in range(1, 23)] + [ADEType("D", m) for m in range(4, 23)]
                 + [ADEType("E", m) for m in (6, 7, 8)])
        for ade in types:
            for count in range(1, 22 // ade.m + 1):
                for degree in divisors(count):
                    got = exceptional_charpoly(SingularOrbit(ade, count, degree, "trivial"))
                    want = {r: euler_phi(r) * ade.m * count // degree for r in divisors(degree)}
                    assert got == want and sum(got.values()) == ade.m * count, (ade, count, degree)

    @pytest.mark.parametrize("m", range(1, 12))
    def test_chain_flip_matches_permutation_cycles(self, m):
        # reversing a path with m nodes has ceil(m/2) fixed-or-1-cycles worth
        # of invariant classes and floor(m/2) two-cycles
        perm = {i: m - 1 - i for i in range(m)}
        fixed = sum(1 for i in perm if perm[i] == i)
        twos = (m - fixed) // 2
        got = exceptional_charpoly(SingularOrbit(ADEType("A", m), 1, 1, "chain-flip"))
        assert got.get(1, 0) == fixed + twos
        assert got.get(2, 0) == twos

    def test_chain_flip_total_degree(self):
        for m in range(1, 12):
            got = exceptional_charpoly(SingularOrbit(ADEType("A", m), 1, 1, "chain-flip"))
            assert sum(got.values()) == m

    def test_rejections(self):
        with pytest.raises(Rejected):
            exceptional_charpoly(SingularOrbit(ADEType("D", 4), 1, 1, "chain-flip"))
        with pytest.raises(Rejected):
            exceptional_charpoly(SingularOrbit(ADEType("A", 3), 1, 1, "unknown"))
        with pytest.raises(Rejected):
            exceptional_charpoly(SingularOrbit(ADEType("A", 3), 2, 2, "chain-flip"))

    def test_more_than_22_nodes_rejected_before_expansion(self):
        # the divisors of 10^24 are never listed: the node count is checked first
        from test_cli import deadline

        assert exceptional_charpoly(SingularOrbit(ADEType("A", 1), 22, 1, "trivial")) == {1: 22}
        big = 10 ** 24
        for orbit in (SingularOrbit(ADEType("A", 1), big, big, "trivial"),
                      SingularOrbit(ADEType("A", 1), 23, 1, "trivial"),
                      SingularOrbit(ADEType("A", 23), 1, 1, "chain-flip")):
            with deadline(1), pytest.raises(Rejected) as exc:
                exceptional_charpoly(orbit)
            assert exc.value.reason == "an orbit has more than 22 exceptional nodes"
            assert exc.value.citation == "rank NS(X) <= b_2(X) = 22"

    def test_unprintable_total_degree_rejected(self):
        # str() of an int of more than 4300 digits raises a bare ValueError
        from test_cli import deadline

        for orbits, h_part in (([SingularOrbit(ADEType("A", 1), 10 ** 5000, 1, "trivial")], {}),
                               ([], {1: -10 ** 5000})):
            with deadline(1), pytest.raises(Rejected) as exc:
                assemble_ns(orbits, h_part)
            assert exc.value.reason == "|total degree| >= 10^2000, not 22"
            assert exc.value.citation == "rank NS(X) = b_2(X) = 22"
        with pytest.raises(Rejected) as exc:
            assemble_ns([SingularOrbit(ADEType("A", 1), 10 ** 1999, 1, "trivial")], {})
        assert exc.value.reason == f"total degree {10 ** 1999} != 22"


class TestInvariantPart:
    def test_cyclic(self):
        for g in (G.C3, G.C4, G.C6):
            for eps in (1, -1):
                assert invariant_h_poly(g, eps) == {1: 2, 2: 2}

    def test_quaternionic_eps(self):
        for g in (G.Q8, G.Q12, G.SL2F3):
            assert invariant_h_poly(g, -1) == {1: 2, 2: 1}
            assert invariant_h_poly(g, 1) == {1: 1, 2: 2}

    def test_rejects(self):
        with pytest.raises(Rejected):
            invariant_h_poly(G.C8, -1)
        with pytest.raises(Rejected):
            invariant_h_poly(G.C4, 2)


class TestNotation:
    def test_parse_format_roundtrip(self):
        for s in ("1^22", "1^20,2^2", "1^21,2", "1^6,2^4,3^8,6^4", "1^10,3^12"):
            assert str(parse_zeta_notation(s)) == s

    def test_degree_reading(self):
        cp = parse_zeta_notation("1^10,3^12")
        assert dict(cp.parts)[3] == 12
        assert dict(cp.parts)[3] // euler_phi(3) == 6
        assert ns_polynomial(cp).degree == 22

    def test_phi_bound_behind_the_order_cut(self):
        # NSCharPoly rejects an order r > 2 d^2 without factoring it, since
        # phi(r) >= sqrt(r / 2) > d there; phi by a sieve, below 2 * 10^5
        n = 2 * 10 ** 5
        phi = list(range(n))
        for p in range(2, n):
            if phi[p] == p:
                for k in range(p, n, p):
                    phi[k] -= phi[k] // p
        assert all(2 * phi[r] ** 2 >= r for r in range(1, n))

    def test_validation(self):
        with pytest.raises(ValueError):
            parse_zeta_notation("1^21")           # total != 22
        with pytest.raises(ValueError):
            parse_zeta_notation("1^19,3^3")       # phi(3) does not divide 3
        with pytest.raises(ValueError):
            parse_zeta_notation("1^20,1^2")       # repeated order

    @pytest.mark.parametrize("s", ["1^20,,2^2", ",1^22", "1^22,", "1^20, ,2^2"])
    def test_empty_term(self, s):
        with pytest.raises(ValueError, match=r"^empty term in notation$"):
            parse_zeta_notation(s)

    def test_format(self):
        assert str(NSCharPoly(((2, 1), (1, 21)))) == "1^21,2"


# every order r with phi(r) <= 22; all have r <= 2 * 22^2
ORDERS = [r for r in range(1, 2 * 22 * 22 + 1) if euler_phi(r) <= 22]


def _outcome(fn, s):
    """fn(s), or the class and text of the exception it raises."""
    try:
        return fn(s)
    except Exception as exc:
        return type(exc), str(exc)


def _malformed(rng, cp) -> str:
    """The notation cp written with one or two faults or odd spellings:
    spaces, r^1, leading zeros, signs, underscores, empty terms, a repeated
    order, d not a multiple of phi(r), a total other than 22, r > 66, or a
    zero or negative part."""
    terms = [[str(r), str(d)] for r, d in cp.parts]  # [r, d] texts; [text] is a term as is
    for _ in range(rng.randint(1, 2)):
        t = rng.choice([t for t in terms if len(t) == 2] or [["1", "22"]])
        i = rng.randrange(2)
        kind = rng.randrange(11)
        if kind == 0:
            t[i] = rng.choice((" ", "\t", "  ")) + t[i] + rng.choice(("", " "))
        elif kind == 1:
            terms.append([f"{t[0]}^1"])
        elif kind == 2:
            t[i] = "0" * rng.randint(1, 2) + t[i]
        elif kind == 3:
            t[i] = rng.choice("+-") + t[i]
        elif kind == 4:
            t[i] = t[i][0] + "_" + t[i][1:] if len(t[i]) > 1 else "_" + t[i]
        elif kind == 5:
            terms.insert(rng.randint(0, len(terms)), [rng.choice(("", " "))])
        elif kind == 6:
            terms.append([t[0], str(rng.randint(1, 22))])
        elif kind == 7:
            t[1] += rng.choice(("1", "0"))  # d * 10 + 1 or d * 10
        elif kind == 8:
            t[1] = str(rng.randint(1, 30))
        elif kind == 9:
            t[0] = str(rng.randint(67, 3000))
        else:
            t[i] = rng.choice(("0", "-1", "-" + t[i]))
    return ",".join(t[0] if len(t) == 1 or t[1] == "1" else "^".join(t) for t in terms)


class TestNotationTables:
    def test_part_table(self):
        want = {(r, d): (moebius(r) * d // euler_phi(r), cyclotomic_by_division(r)[::-1],
                         d // euler_phi(r))
                for r in ORDERS for d in range(1, 23) if d % euler_phi(r) == 0}
        assert len(want) == 146
        assert kummer._PARTS == want
        assert kummer._TEXTS == {(f"{r}^{d}" if d > 1 else f"{r}"): (r, d) for r, d in want}

    def test_parse_agrees_with_the_oracle(self):
        rng = random.Random(2024)
        texts = [row.notation for parity in ("even", "odd") for row in trace_table(parity)]
        texts += list(kummer._TEXTS)
        valid = [_random_notation(rng, ORDERS) for _ in range(500)]
        for cp in valid:
            terms = str(cp).split(",")
            rng.shuffle(terms)
            texts.append(",".join(terms))
        texts += [_malformed(rng, rng.choice(valid)) for _ in range(3000)]
        texts += ["1^2_2", "1^+22", "1^\u0662\u0662", "1^x", "1^22 ", " 1 ^ 22", "01^022",
                  "1^21,2^1", "", ",", "1^22,", "-1^22", "1^-22", "0^22", "1^0,1^22",
                  "67^22", "23^22", "1^", "^22", "1^2^20", "1^22,,", "1^20,2^2,3^0"]
        messages, parsed = [], 0
        for s in texts:
            got = _outcome(lambda s: parse_zeta_notation(s).parts, s)
            assert got == _outcome(parse_notation_by_terms, s), s
            if isinstance(got[0], type):
                messages.append(got[1])
            else:
                parsed += 1
        assert parsed > 500
        # the corpus reaches every fault
        for fault in ("empty term", "invalid literal for int()", "not a run of the digits",
                      "repeated in notation", "must be positive", "not a multiple of phi",
                      "total degree"):
            assert any(fault in m for m in messages), fault


class TestTraceAndPoints:
    def test_trace_values(self):
        cases = {"1^22": 22, "1^21,2": 20, "1^20,2^2": 18, "1^15,2^7": 8,
                 "1^14,2^4,4^4": 10, "1^10,3^12": 4, "1^6,2^4,3^8,6^4": 0}
        for s, tr in cases.items():
            assert trace_of(parse_zeta_notation(s)) == tr

    def test_point_count(self):
        cp = parse_zeta_notation("1^21,2")
        assert k3_point_count(PrimePower(3, 1), cp) == 1 + 3 * 20 + 9

    def test_zeta_log_matches_point_count(self):
        q = PrimePower(3, 1)
        for s in ("1^21,2", "1^12,2^10", "1^6,2^4,3^8,6^4"):
            cp = parse_zeta_notation(s)
            z = k3_zeta(q, cp)
            n = 3
            acc = [Fraction(1), Fraction(0), Fraction(0)]
            for f, mult in z.denominator:
                s_f = series_from_poly(f, n)
                for _ in range(mult):
                    acc = series_mul(acc, s_f, n)
            zseries = series_inv(acc, n)
            # N_1 is the t-coefficient of log Z = t-coefficient of Z here
            assert zseries[1] == k3_point_count(q, cp)

    def test_zeta_denominator_degree(self):
        q = PrimePower(5, 1)
        cp = parse_zeta_notation("1^20,2^2")
        z = k3_zeta(q, cp)
        assert sum(f.degree * m for f, m in z.denominator) == 24

    @pytest.mark.parametrize("q", (PrimePower(3, 1), PrimePower(3, 2), PrimePower(10007, 3),
                                   PrimePower(3, 194)), ids=str)
    def test_zeta_factors_match_the_oracle(self, q):
        # every order r with phi(r) <= 22, as r^phi(r) beside 1^(22 - phi(r));
        # the notations of both trace tables; and random valid notations. The
        # per-order rows that the part table is built from are exactly these
        assert len(ORDERS) == 43 and ORDERS[-1] == 66
        assert kummer._ORDERS == {r: (moebius(r), euler_phi(r), cyclotomic_by_division(r)[::-1])
                                  for r in ORDERS}
        notations = []
        for r in ORDERS:
            parts = {1: 22 - euler_phi(r), r: euler_phi(r)} if r > 1 else {1: 22}
            notations.append(NSCharPoly(tuple((s, d) for s, d in parts.items() if d)))
        notations += [parse_zeta_notation(row.notation)
                      for parity in ("even", "odd") for row in trace_table(parity)]
        rng = random.Random(q.q % 1000003)
        notations += [_random_notation(rng, ORDERS) for _ in range(200)]
        negative = 0
        for cp in notations:
            want = [([1, -1], 1)] + [(zeta_factor(s, q.q), d // euler_phi(s))
                                     for s, d in cp.parts] + [([1, -q.q ** 2], 1)]
            got = k3_zeta(q, cp).denominator
            assert [(list(f.coeffs), m) for f, m in got] == want, cp
            assert all(f.coeffs[-1] != 0 for f, _ in got), cp
            tr = sum(moebius(r) * d // euler_phi(r) for r, d in cp.parts)
            assert trace_of(cp) == tr, cp
            count = 1 + q.q * tr + q.q ** 2
            if count < 0:
                negative += 1
                with pytest.raises(Rejected, match=r" < 0$"):
                    k3_point_count(q, cp)
            else:
                assert k3_point_count(q, cp) == count, cp
        assert (negative > 0) == (q.q < 23)  # Tr >= -22

    def test_reverse_and_scale_oracle(self):
        assert reciprocal([9, -3, 1]) == [1, -3, 9]
        assert reciprocal([0, 2, 1]) == [1, 2]
        assert scale_arg([9, -3, 1], 2) == [9, -6, 4]
        assert scale_arg([1, 1], 0) == [1]
        assert zeta_factor(1, 5) == [1, -5] and zeta_factor(4, 5) == [1, 0, 25]

    def test_artin_check(self):
        q_odd = PrimePower(3, 1)
        q_even = PrimePower(3, 2)
        assert not artin_check(q_odd, parse_zeta_notation("1^22"))
        assert not artin_check(q_odd, parse_zeta_notation("1^10,3^12"))
        assert artin_check(q_odd, parse_zeta_notation("1^21,2"))
        assert artin_check(q_even, parse_zeta_notation("1^22"))
        assert artin_check(q_even, parse_zeta_notation("1^10,3^12"))


class TestAssembly:
    def test_c4_rational_case(self):
        orbits = [SingularOrbit(ADEType("A", 3), 4, 1, "trivial"),
                  SingularOrbit(ADEType("A", 1), 6, 1, "trivial")]
        cp = assemble_ns(orbits, invariant_h_poly(G.C4, -1))
        assert str(cp) == "1^20,2^2"

    def test_c4_split_case(self):
        orbits = [SingularOrbit(ADEType("A", 3), 2, 1, "trivial"),
                  SingularOrbit(ADEType("A", 3), 2, 2, "trivial"),
                  SingularOrbit(ADEType("A", 1), 2, 1, "trivial"),
                  SingularOrbit(ADEType("A", 1), 4, 2, "trivial")]
        cp = assemble_ns(orbits, invariant_h_poly(G.C4, -1))
        assert str(cp) == "1^15,2^7"

    def test_q8_case(self):
        orbits = [SingularOrbit(ADEType("D", 4), 2, 1, "trivial"),
                  SingularOrbit(ADEType("A", 3), 3, 1, "trivial"),
                  SingularOrbit(ADEType("A", 1), 2, 1, "trivial")]
        cp = assemble_ns(orbits, invariant_h_poly(G.Q8, -1))
        assert str(cp) == "1^21,2"
        assert trace_of(cp) == 20

    def test_total_must_be_22(self):
        with pytest.raises(ValueError):
            assemble_ns([SingularOrbit(ADEType("A", 1), 1, 1, "trivial")], {1: 2, 2: 2})


class TestPartsAreInts:
    # NSCharPoly stores its parts as given, so both builders must give ints
    @staticmethod
    def _ints(cp):
        return all(type(x) is int for part in cp.parts for x in part)

    def test_parse_zeta_notation(self):
        texts = [row.notation for parity in ("even", "odd") for row in trace_table(parity)]
        for s in texts + ["1^21,2", " 2^2 , 1^20", "1^10,3^12", "1^2,5^20"]:
            assert self._ints(parse_zeta_notation(s)), s

    def test_assemble_ns(self):
        for g, orbits in (
                (G.C4, [SingularOrbit(ADEType("A", 3), 2, 1, "trivial"),
                        SingularOrbit(ADEType("A", 3), 2, 2, "trivial"),
                        SingularOrbit(ADEType("A", 1), 2, 1, "trivial"),
                        SingularOrbit(ADEType("A", 1), 4, 2, "trivial")]),
                (G.Q8, [SingularOrbit(ADEType("D", 4), 2, 1, "trivial"),
                        SingularOrbit(ADEType("A", 3), 3, 1, "trivial"),
                        SingularOrbit(ADEType("A", 1), 2, 1, "trivial")])):
            assert self._ints(assemble_ns(orbits, invariant_h_poly(g, -1))), g


class TestTraceTables:
    def test_row_counts(self):
        assert len(trace_table("even")) == 9
        assert len(trace_table("odd")) == 9

    def test_traces_match_notation(self):
        for parity in ("even", "odd"):
            for row in trace_table(parity):
                assert trace_of(parse_zeta_notation(row.notation)) == row.trace

    def test_odd_rows_pass_artin(self):
        q = PrimePower(3, 1)
        for row in trace_table("odd"):
            assert artin_check(q, parse_zeta_notation(row.notation))

    def test_filtering(self):
        odd_3 = trace_table("odd", 3)
        assert len(odd_3) == 6
        assert odd_3[0].trace == 20
        even_13 = trace_table("even", 13)
        assert len(even_13) == 8  # 13 = 1 mod 12 kills the trace-0 row
        odd_5 = trace_table("odd", 5)
        assert {r.trace for r in odd_5} == {18, 14, 8, 6, 2, 0}

    def test_class_table_is_the_row_filter(self):
        # trace_table answers p >= 3 from its class mod 12, which is right
        # only while every row condition is p > 2 or a congruence mod 3, 4
        # or 12: a row mod 5 or 8 fails here
        for parity in ("even", "odd"):
            rows = trace_table(parity)
            for row in rows:
                c = row.p_condition
                assert c.bound < 3 and c.excluded < 3 and 12 % c.modulus == 0, row
            for p in range(-3, 10 ** 4):
                want = () if p == 2 else tuple(row for row in rows if row.p_condition.holds(p))
                assert trace_table(parity, p) == want, (parity, p)
        # the even trace-0 row's 'p != 1 mod 12' holds at 2, but no row is realized there
        assert trace_table("even", 2) == trace_table("odd", 2) == ()

    def test_bad_parity(self):
        with pytest.raises(ValueError):
            trace_table("mixed")


# hypothesis strategy: random valid degree partitions of 22
@st.composite
def ns_parts(draw):
    orders = draw(st.permutations([2, 3, 4, 5, 6, 7, 8, 10, 12, 22]))
    parts = {}
    remaining = 22
    for r in orders:
        if euler_phi(r) > remaining:
            continue
        k = draw(st.integers(0, remaining // euler_phi(r)))
        if k:
            parts[r] = k * euler_phi(r)
            remaining -= parts[r]
    if remaining:
        parts[1] = remaining
    return parts


class TestNSCharPolyProperties:
    @given(ns_parts())
    @settings(max_examples=300, deadline=None)
    def test_random_valid_parts_accepted(self, parts):
        cp = NSCharPoly(tuple(parts.items()))
        assert sum(d for _, d in cp.parts) == 22
        poly = ns_polynomial(cp)
        assert poly.degree == 22
        assert poly.is_monic()
        # trace via moebius equals trace via explicit polynomial coefficient
        assert trace_of(cp) == -poly[21]

    @given(ns_parts())
    @settings(max_examples=100, deadline=None)
    def test_trace_bounds(self, parts):
        cp = NSCharPoly(tuple(parts.items()))
        assert -22 <= trace_of(cp) <= 22
