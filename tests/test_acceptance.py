"""Acceptance suite: eight top-level criteria, each reporting a single
pass/fail line on standard output.
"""
import random
from collections import Counter

from gkzeta import brauer, existence, groups, kummer, weil
from gkzeta.groups import GroupId as G
from gkzeta.numtheory import IntPolynomial, PrimePower, is_prime

from oracles import (
    SYLOW_COUNTS,
    brute_elliptic_traces,
    cyclotomic_field,
    direct_newton_slopes,
    divisors,
    euler_phi,
    extend_scalars,
    field_algebra,
    make_h_infty,
    make_hp,
    matrix_over,
    quadratic,
    rationals,
    real_cyclotomic,
)

PRIMES_1000 = [p for p in range(2, 1000) if is_prime(p)]


def report(num: int, desc: str, ok: bool):
    print(f"\nacceptance criterion {num} ({desc}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num}: {desc}"


# ---------------------------------------------------------------------------
# 1. singularity configurations

GOLDEN_CONFIGS = {
    (G.C2, ""): ("16A1", ">=17"),
    (G.C3, ""): ("9A2", ">=19"),
    (G.C4, ""): ("4A3+6A1", ">=19"),
    (G.C5, ""): ("5A4", "=22"),
    (G.C6, ""): ("A5+4A2+5A1", ">=19"),
    (G.C8, ""): ("2A7+A3+3A1", "=22"),
    (G.C10, ""): ("A9+2A4+3A1", "=22"),
    (G.C12, ""): ("A11+A3+2A2+2A1", "=22"),
    (G.Q8, "A"): ("4D4+3A1", ">=20"),
    (G.Q8, "B"): ("2D4+3A3+2A1", ">=20"),
    (G.Q12, ""): ("D5+3A3+2A2+A1", ">=20"),
    (G.Q16, ""): ("2D6+D4+A3+A1", "=22"),
    (G.Q20, ""): ("D7+A4+3A3", "=22"),
    (G.Q24, ""): ("D8+D4+2A3+A2", "=22"),
    (G.SL2F3, ""): ("E6+D4+4A2+A1", ">=20"),
    (G.ESL2F3, ""): ("E7+D6+A3+2A2", "=22"),
    (G.SL2F5, ""): ("E8+D4+A4+2A2", "=22"),
}


def _multiset(cfg):
    out = Counter()
    for o in cfg.orbits:
        out[str(o.ade)] += o.count
    return out


def _parse_golden(s):
    out = Counter()
    for term in s.split("+"):
        i = 0
        while term[i].isdigit():
            i += 1
        count = int(term[:i]) if i else 1
        out[term[i:]] += count
    return out


def test_criterion_1_singularity_golden():
    ok = True
    seen = 0
    for g in groups.CONFIG_GROUPS:
        for cfg in kummer.singular_configs(g):
            seen += 1
            expect_ms, expect_rank = GOLDEN_CONFIGS[(g, cfg.case)]
            if _multiset(cfg) != _parse_golden(expect_ms):
                ok = False
            bound, exact = kummer.ns_rank_bound(cfg)
            rank = f"={bound}" if exact else f">={bound}"
            if rank != expect_rank:
                ok = False
    ok = ok and seen == 17
    report(1, "17 singularity configuration rows", ok)


# ---------------------------------------------------------------------------
# 2. trace tables

EVEN_ROWS = [
    (22, "1^22", G.C2, lambda p: p > 2),
    (18, "1^20,2^2", G.C4, lambda p: p > 2),
    (14, "1^18,2^4", G.C2, lambda p: p > 2),
    (10, "1^14,2^4,4^4", G.C2, lambda p: p > 2),
    (8, "1^15,2^7", G.C4, lambda p: p > 2),
    (6, "1^14,2^8", G.C2, lambda p: p > 2),
    (4, "1^10,3^12", G.C2, lambda p: p > 2),
    (2, "1^12,2^10", G.C2, lambda p: p > 2),
    (0, "1^6,2^4,3^8,6^4", G.C2, lambda p: p > 2 and p % 12 != 1),
]

ODD_ROWS = [
    (20, "1^21,2", G.Q8, lambda p: p % 4 == 3),
    (18, "1^20,2^2", G.C4, lambda p: p % 4 == 1),
    (18, "1^20,2^2", G.C2, lambda p: p % 4 == 3),
    (14, "1^18,2^4", G.C2, lambda p: p % 4 == 1),
    (10, "1^16,2^6", G.C2, lambda p: p % 4 == 3),
    (8, "1^15,2^7", G.C4, lambda p: p % 4 == 1),
    (6, "1^14,2^8", G.C2, lambda p: p > 2),
    (2, "1^12,2^10", G.C2, lambda p: p > 2),
    (0, "1^6,2^4,3^8,6^4", G.C2, lambda p: p > 2),
]


def test_criterion_2_trace_tables():
    ok = True
    for parity, literal in (("even", EVEN_ROWS), ("odd", ODD_ROWS)):
        full = kummer.trace_table(parity)
        if len(full) != 9:
            ok = False
        for row, (tr, notation, grp, _) in zip(full, literal):
            if (row.trace, row.notation, row.group) != (tr, notation, grp):
                ok = False
            cp = kummer.parse_zeta_notation(row.notation)
            if kummer.trace_of(cp) != tr:
                ok = False
        for p in (3, 5, 7, 11, 13):
            expect = [(tr, notation, grp) for tr, notation, grp, cond in literal
                      if cond(p)]
            got = [(r.trace, r.notation, r.group) for r in kummer.trace_table(parity, p)]
            if got != expect:
                ok = False
    report(2, "9 + 9 trace table rows at p in {3,5,7,11,13}", ok)


# ---------------------------------------------------------------------------
# 3. embedding table, exhaustive p < 1000

EMBED_LITERAL = [
    (G.C4, lambda p: True),
    (G.C6, lambda p: True),
    (G.C10, lambda p: p % 5 != 1),
    (G.C8, lambda p: p % 8 != 1),
    (G.C12, lambda p: p % 12 != 1),
    (G.Q8, lambda p: True),
    (G.Q12, lambda p: True),
    (G.Q20, lambda p: p % 5 not in (1, 4)),
    (G.Q16, lambda p: p % 8 not in (1, 7)),
    (G.Q24, lambda p: p % 12 not in (1, 11)),
]


def test_criterion_3_embedding_table():
    ok = True
    for g, literal in EMBED_LITERAL:
        for p in PRIMES_1000:
            if brauer.rigid_embeds_in_m2hp(g, p) != literal(p):
                ok = False
    report(3, "10 embedding rows, all p < 1000", ok)


# ---------------------------------------------------------------------------
# 4. existence tables

EVEN_EXIST_LITERAL = {
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

ODD_EXIST_LITERAL = {
    # (group, sign of (t^2 + eps q)^2) -> condition on p
    (G.Q8, -1): lambda p: p % 8 != 1,
    (G.Q8, 1): lambda p: p % 8 != 7,
    (G.SL2F3, -1): lambda p: p % 8 != 1,
    (G.SL2F3, 1): lambda p: p % 8 != 7,
    (G.Q12, -1): lambda p: p % 3 != 2,
    (G.Q12, 1): lambda p: p % 3 != 1,
    (G.C3, -1): lambda p: True,
    (G.C3, 1): lambda p: True,
    (G.C4, -1): lambda p: True,
    (G.C4, 1): lambda p: True,
    (G.C6, -1): lambda p: True,
    (G.C6, 1): lambda p: True,
}


def test_criterion_4_existence_tables():
    ok = True
    # note: the even-degree table contains 15 group rows but 13 distinct
    # condition rows (C3/C6 and C5/C10 share); all are checked
    for g, (col1, col2) in EVEN_EXIST_LITERAL.items():
        for p in PRIMES_1000:
            if groups.order(g) % p == 0:
                continue
            v = existence.exists_over_even_degree(g, p)
            if v.exists_rigid != col1(p) or v.exists_rigid_symplectic != col2(p):
                ok = False
    shapes = {-1: "(t^2 - q)^2", 1: "(t^2 + q)^2"}
    for (g, eps), cond in ODD_EXIST_LITERAL.items():
        for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
            if groups.order(g) % p == 0:
                continue
            v = existence.exists_over_odd_degree(g, PrimePower(p, 1))
            by_shape = {o.shape: o.satisfied for o in v.weil_options}
            if by_shape.get(shapes[eps]) != cond(p):
                ok = False
    report(4, "even-degree columns p < 1000 and odd-degree condition tables", ok)


# ---------------------------------------------------------------------------
# 5. rigid algebra table

def test_criterion_5_rigid_algebras():
    expect = {
        # case 1: cyclic
        G.C2: field_algebra(rationals()),
        G.C3: field_algebra(cyclotomic_field(3)),
        G.C4: field_algebra(cyclotomic_field(4)),
        G.C5: field_algebra(cyclotomic_field(5)),
        G.C6: field_algebra(cyclotomic_field(6)),
        G.C8: field_algebra(cyclotomic_field(8)),
        G.C10: field_algebra(cyclotomic_field(10)),
        G.C12: field_algebra(cyclotomic_field(12)),
        # case 2: binary dihedral
        G.Q8: make_hp(2),
        G.Q12: make_hp(3),
        G.Q16: make_h_infty(quadratic(2)),
        G.Q20: make_h_infty(quadratic(5)),
        G.Q24: make_h_infty(quadratic(3)),
        # case 3: binary polyhedral
        G.SL2F3: make_hp(2),
        G.ESL2F3: make_h_infty(quadratic(2)),
        G.SL2F5: make_h_infty(quadratic(5)),
        # case 4: characteristic 5
        G.ESL2F5: matrix_over(make_hp(5), 2),
        G.C5_C8: matrix_over(make_hp(5), 2),
        # cases 5 and 6: characteristics 3 and 2
        G.C3_C8: matrix_over(field_algebra(cyclotomic_field(4)), 2),
        G.C3xQ8: matrix_over(field_algebra(cyclotomic_field(3)), 2),
        G.C3_Q16: matrix_over(make_hp(3), 2),
    }
    ok = all(groups.rigid_algebra(g) == alg for g, alg in expect.items())
    # quaternion formula for binary dihedral groups of order 4n, n = 2..6
    formula = {
        2: make_hp(2),
        3: make_hp(3),
        4: make_h_infty(real_cyclotomic(8)),
        5: make_h_infty(real_cyclotomic(10)),
        6: make_h_infty(real_cyclotomic(12)),
    }
    bd = {2: G.Q8, 3: G.Q12, 4: G.Q16, 5: G.Q20, 6: G.Q24}
    ok = ok and all(groups.rigid_algebra(bd[n]) == formula[n] for n in range(2, 7))
    report(5, "rigid group algebra table, all six cases", ok)


# ---------------------------------------------------------------------------
# 6. zeta assembly

def test_criterion_6_zeta_assembly():
    ok = True
    SO, AT = kummer.SingularOrbit, kummer.ADEType

    # rational configuration of the order-4 quotient
    cp = kummer.assemble_ns(
        [SO(AT("A", 3), 4, 1, "trivial"), SO(AT("A", 1), 6, 1, "trivial")],
        kummer.invariant_h_poly(G.C4, -1))
    ok = ok and str(cp) == "1^20,2^2" and kummer.trace_of(cp) == 18
    ok = ok and kummer.artin_check(PrimePower(5, 1), cp) is None

    # half-split configuration of the order-4 quotient
    cp = kummer.assemble_ns(
        [SO(AT("A", 3), 2, 1, "trivial"), SO(AT("A", 3), 2, 2, "trivial"),
         SO(AT("A", 1), 2, 1, "trivial"), SO(AT("A", 1), 4, 2, "trivial")],
        kummer.invariant_h_poly(G.C4, -1))
    ok = ok and str(cp) == "1^15,2^7" and kummer.trace_of(cp) == 8
    ok = ok and kummer.artin_check(PrimePower(5, 1), cp) is None

    # quaternion configuration over a prime field
    cp = kummer.assemble_ns(
        [SO(AT("D", 4), 2, 1, "trivial"), SO(AT("A", 3), 3, 1, "trivial"),
         SO(AT("A", 1), 2, 1, "trivial")],
        kummer.invariant_h_poly(G.Q8, -1))
    ok = ok and str(cp) == "1^21,2" and kummer.trace_of(cp) == 20
    ok = ok and kummer.artin_check(PrimePower(3, 1), cp) is None

    report(6, "three zeta assemblies with trace and parity checks", ok)


# ---------------------------------------------------------------------------
# 7. Weil oracle equivalence

def test_criterion_7_weil_oracles():
    ok = True
    descriptors = []
    for qv in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25,
               27, 29, 31, 32, 37, 41, 43, 47, 49):
        q = PrimePower.from_q(qv)
        descs = weil.enumerate_elliptic(q)
        if [-w.poly[1] for w in descs] != brute_elliptic_traces(q):
            ok = False
        descriptors.extend(descs)
    ss_surfaces = [
        weil.validate_surface_simple(PrimePower(7, 1), a1=0, a2=0),
        weil.validate_surface_simple(PrimePower(3, 2), a1=0, a2=0),
        weil.validate_surface_simple(PrimePower(7, 1), a1=0, a2=7),
        weil.validate_surface_simple(PrimePower(7, 1), a1=0, a2=-7),
        weil.validate_surface_simple(PrimePower(7, 2), a1=0, a2=-49),
        weil.validate_surface_simple(PrimePower(7, 2), a1=7, a2=49),
        weil.validate_surface_simple(PrimePower(5, 1), a1=5, a2=15),
        weil.validate_surface_simple(PrimePower(2, 1), a1=2, a2=2),
        weil.validate_surface_square(PrimePower(3, 1), IntPolynomial([-3, 0, 1])),
        weil.validate_surface_square(PrimePower(5, 2), IntPolynomial([25, 0, 1])),
    ]
    for w in descriptors + ss_surfaces:
        if list(w.slopes()) != [str(s) for s in direct_newton_slopes(w.poly, w.q)]:
            ok = False
    report(7, "elliptic brute scan q <= 49 and direct Newton polygons", ok)


# ---------------------------------------------------------------------------
# 8. property suites

def test_criterion_8_property_suites():
    ok = True

    # 1000 random valid characteristic polynomials
    rng = random.Random(20260823)
    orders = [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 22]
    for _ in range(1000):
        parts = {}
        remaining = 22
        pool = orders[:]
        rng.shuffle(pool)
        for r in pool:
            phi = euler_phi(r)
            if phi > remaining:
                continue
            k = rng.randint(0, remaining // phi)
            if k:
                parts[r] = k * phi
                remaining -= parts[r]
        if remaining:
            parts[1] = remaining
        cp = kummer.NSCharPoly(tuple(parts.items()))
        total = sum(d for _, d in cp.parts)
        if total != 22 or any(d % euler_phi(r) for r, d in cp.parts):
            ok = False
        if not -22 <= kummer.trace_of(cp) <= 22:
            ok = False

    # reciprocity on every constructible algebra
    algebras = [make_hp(p) for p in PRIMES_1000[:50]]
    algebras += [make_h_infty(quadratic(d)) for d in (2, 3, 5, 7, 13)]
    algebras += [groups.rigid_algebra(g) for g in G]
    algebras += [extend_scalars(make_hp(p), quadratic(d))
                 for p in (2, 3, 5, 7, 11) for d in (2, 5, -1, -3)]
    for a in algebras:
        total = sum(inv for _, inv in a.invariants)
        if total.denominator != 1:
            ok = False

    # cyclotomic product identity on every order of the table, which holds
    # each Phi_r reversed
    for r in kummer._ORDERS:
        prod = IntPolynomial([1])
        for d in divisors(r):
            prod = prod * IntPolynomial(kummer._ORDERS[d][2][::-1])
        if prod != IntPolynomial([-1] + [0] * (r - 1) + [1]):
            ok = False

    # torsion conservation for all 17 stabilizer tables
    tables = 0
    for g in groups.CONFIG_GROUPS:
        for tab in groups.facts(g).stabilizer_tables:
            tables += 1
            for l in SYLOW_COUNTS[g]:
                counted = sum(pts for h, pts in tab.entries
                              if groups.order(h) % l == 0)
                if counted > l ** 4 or (l ** 4 - counted) % groups.order(g):
                    ok = False
    ok = ok and tables == 17

    report(8, "randomized, reciprocity, cyclotomic and torsion properties", ok)
