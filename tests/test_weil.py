import pickle
import re
from collections import Counter
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import assume, given, settings, strategies as st

from gkzeta import weil
from gkzeta.numtheory import IntPolynomial, PrimePower, is_prime
from gkzeta.weil import (
    NewtonType,
    Rejected,
    WeilDescriptor,
    abelian_point_count,
    abelian_zeta,
    enumerate_elliptic,
    validate_elliptic,
    validate_surface_simple,
    validate_surface_square,
)

from oracles import (
    brute_enumerate_elliptic,
    brute_validate_elliptic,
    classify_newton,
    evaluate,
    exterior_square_by_power_sums,
    brute_elliptic_traces,
    brute_quartic_is_irreducible,
    newton_slopes,
    point_count_by_power_sums,
    resultant,
    series_exp,
    series_inv,
    series_from_poly,
    series_mul,
    ss_quartic_case,
)

PRIME_POWERS_49 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25,
                   27, 29, 31, 32, 37, 41, 43, 47, 49]


def prime_powers_upto(bound: int) -> list[PrimePower]:
    return [PrimePower(p, n) for p in range(2, bound + 1) if is_prime(p)
            for n in range(1, bound.bit_length()) if p ** n <= bound]


def weil_box(qq: int):
    """The (a1, a2) that pass the Weil bounds of validate_surface_simple:
    a1^2 <= 16q, 4 a2 <= a1^2 + 8q and a2 + 2q >= 2 |a1| sqrt(q)."""
    for a1 in range(-isqrt(16 * qq), isqrt(16 * qq) + 1):
        for a2 in range(-2 * qq, (a1 * a1 + 8 * qq) // 4 + 1):
            if (a2 + 2 * qq) ** 2 >= 4 * a1 * a1 * qq:
                yield a1, a2


class TestElliptic:
    def test_ordinary(self):
        w = validate_elliptic(PrimePower(5, 1), 2)
        assert w.newton is NewtonType.ORDINARY
        assert w.poly == IntPolynomial([5, -2, 1])
        assert w.e == 1

    def test_supersingular_nonsquare(self):
        w = validate_elliptic(PrimePower(7, 1), 0)
        assert w.newton is NewtonType.SUPERSINGULAR
        assert w.case == "ss-a"

    def test_supersingular_square_b0(self):
        # p = 3 = 3 mod 4 allows b = 0 over F_9
        w = validate_elliptic(PrimePower(3, 2), 0)
        assert w.case == "ss-b"
        with pytest.raises(Rejected):
            validate_elliptic(PrimePower(5, 2), 0)  # 5 = 1 mod 4

    def test_supersingular_square_sqrt(self):
        w = validate_elliptic(PrimePower(2, 2), 2)
        assert w.case == "ss-c"
        with pytest.raises(Rejected):
            validate_elliptic(PrimePower(7, 2), 7)  # 7 = 1 mod 3

    def test_char_2_3_special(self):
        assert validate_elliptic(PrimePower(2, 3), 4).case == "ss-d"
        assert validate_elliptic(PrimePower(3, 3), 9).case == "ss-d"
        with pytest.raises(Rejected):
            validate_elliptic(PrimePower(2, 3), 2)

    def test_inseparable(self):
        w = validate_elliptic(PrimePower(5, 2), 10)
        assert w.e == 2
        assert w.endo.partition("(")[0] == "quaternion-Hp"
        assert w.poly == IntPolynomial([25, -10, 1])

    def test_weil_bound(self):
        with pytest.raises(Rejected):
            validate_elliptic(PrimePower(5, 1), 5)

    @pytest.mark.parametrize("qv", PRIME_POWERS_49)
    def test_enumeration_matches_brute_scan(self, qv):
        q = PrimePower.from_q(qv)
        got = [-w.poly[1] for w in enumerate_elliptic(q)]
        assert got == brute_elliptic_traces(q)


class TestEllipticOracle:
    """The one-pass classifier against the earlier trace-by-trace validation
    (tests/oracles.py), for every prime power q < 3000 and four larger q."""

    @staticmethod
    def fields(w):
        return (w.q, w.dim, w.poly, w.e, w.newton, w.case, w.endo)

    @classmethod
    def assert_enumeration_matches_oracle(cls, q):
        """The classes of enumerate_elliptic against the oracle's, field by
        field. enumerate_elliptic builds them without the constructors, so
        each must also be the value WeilDescriptor(q, IntPolynomial((q, -b, 1)),
        case) builds for the oracle's trace b and case, alike in equality,
        hash, repr and pickling, and it must refuse assignment and deletion."""
        oracle = brute_enumerate_elliptic(q)
        got = enumerate_elliptic(q)
        assert [cls.fields(w) for w in got] == [cls.fields(w) for w in oracle], q
        want = [WeilDescriptor(q, IntPolynomial((q.q, -b, 1)), c.case)
                for b, c in zip(brute_elliptic_traces(q), oracle, strict=True)]
        for g, w in zip(got, want, strict=True):
            assert type(g) is WeilDescriptor and type(g.poly) is IntPolynomial
            assert g == w and hash(g) == hash(w) and repr(g) == repr(w), (q, w)
            assert pickle.loads(pickle.dumps(g)) == w, (q, w)
        for g in (got[0], got[len(got) // 2], got[-1]):
            for value, field in ((g, "q"), (g, "poly"), (g, "case"), (g.poly, "coeffs")):
                with pytest.raises(AttributeError):
                    setattr(value, field, None)
                with pytest.raises(AttributeError):
                    delattr(value, field)

    def test_enumeration_matches_oracle(self):
        for q in prime_powers_upto(2999):
            self.assert_enumeration_matches_oracle(q)

    @pytest.mark.parametrize("qq", [99991, 3 ** 10, 2 ** 16, 99999989],
                             ids=["99991", "3^10", "2^16", "99999989"])
    def test_enumeration_matches_oracle_at_large_q(self, qq):
        self.assert_enumeration_matches_oracle(PrimePower.from_q(qq))

    def test_validation_matches_oracle(self):
        checked = 0
        for q in prime_powers_upto(2999):
            bound = 2 * isqrt(q.q) + 1
            for b in range(-bound, bound + 1):
                try:
                    want = self.fields(brute_validate_elliptic(q, b))
                except Rejected as exc:
                    with pytest.raises(Rejected) as info:
                        validate_elliptic(q, b)
                    assert str(info.value) == str(exc), (q, b)
                else:
                    assert self.fields(validate_elliptic(q, b)) == want, (q, b)
                checked += 1
        assert checked > 60000


class TestSurfaceQuartic:
    def test_ordinary(self):
        w = validate_surface_simple(PrimePower(5, 1), a1=1, a2=3)
        assert w.newton is NewtonType.ORDINARY
        assert classify_newton(w) is NewtonType.ORDINARY

    def test_mixed(self):
        w = validate_surface_simple(PrimePower(5, 1), a1=1, a2=5)
        assert w.newton is NewtonType.MIXED

    def test_supersingular_cases(self):
        assert validate_surface_simple(PrimePower(7, 1), a1=0, a2=0).case == "ss-i"
        assert validate_surface_simple(PrimePower(3, 2), a1=0, a2=0).case == "ss-ii"
        assert validate_surface_simple(PrimePower(7, 1), a1=0, a2=7).case == "ss-iii"
        assert validate_surface_simple(PrimePower(7, 1), a1=0, a2=-7).case == "ss-iv"
        assert validate_surface_simple(PrimePower(7, 2), a1=0, a2=-49).case == "ss-v"
        assert validate_surface_simple(PrimePower(7, 2), a1=7, a2=49).case == "ss-vi"
        assert validate_surface_simple(PrimePower(5, 1), a1=5, a2=15).case == "ss-vii"
        assert validate_surface_simple(PrimePower(2, 1), a1=2, a2=2).case == "ss-viii"

    def test_supersingular_case_conditions(self):
        with pytest.raises(Rejected):
            # p = 1 mod 8 excludes (0, 0) over even degree
            validate_surface_simple(PrimePower(17, 2), a1=0, a2=0)
        with pytest.raises(Rejected):
            # (0, -q) over odd degree at p = 3 is reducible
            validate_surface_simple(PrimePower(3, 1), a1=0, a2=-3)

    def test_reducible_rejected(self):
        # (t^2 - t + 5)(t^2 - t + 5) style products are not simple
        p = IntPolynomial([5, -1, 1])
        f = p * p
        with pytest.raises(Rejected):
            validate_surface_simple(PrimePower(5, 1), a1=f[3], a2=f[2])
        # (t^2 - 3)^2, although a1^2 - 4 a2 + 8q = 48 is not a square
        with pytest.raises(Rejected, match="reducible"):
            validate_surface_simple(PrimePower(3, 1), a1=0, a2=-6)

    @pytest.mark.parametrize("n", [1, 3, 5, 7])
    def test_ss_iv_at_p_3_is_reducible(self, n):
        # the paper's p != 3 for ss-iv: a1^2 - 4 a2 + 8q = 12q = 4 * 3^(n+1)
        # is a square, so t^4 - q t^2 + q^2 factors before any condition on p
        with pytest.raises(Rejected) as info:
            validate_surface_simple(PrimePower(3, n), a1=0, a2=-3 ** n)
        q = 3 ** n
        assert info.value.reason == f"t^4 - {q}t^2 + {q * q} is reducible over Q"

    def test_irreducibility_matches_divisor_scan_below_100(self):
        pairs = reducible = 0
        for q in prime_powers_upto(99):
            qq = q.q
            for a1, a2 in weil_box(qq):
                f = IntPolynomial([qq * qq, a1 * qq, a2, a1, 1])
                want = brute_quartic_is_irreducible(f)
                assert weil._quartic_is_irreducible(qq, a1, a2) == want, (qq, a1, a2)
                pairs += 1
                reducible += not want
        assert (pairs, reducible) == (110683, 11589)

    def test_newton_type_matches_hull_where_p_divides_a2(self):
        # p | a2 leaves every branch but the ordinary one: each accepted type
        # and case, and each rejection, agrees with the lower hull's slopes
        half, outcomes = Fraction(1, 2), Counter()
        for q in prime_powers_upto(199):
            qq = q.q
            for a1, a2 in weil_box(qq):
                if a2 % q.p or not weil._quartic_is_irreducible(qq, a1, a2):
                    continue
                slopes = newton_slopes(IntPolynomial([qq * qq, a1 * qq, a2, a1, 1]), q)
                try:
                    w = validate_surface_simple(q, a1=a1, a2=a2)
                except Rejected as exc:
                    if slopes == (half,) * 4:
                        assert exc.reason == "supersingular quartic outside the classified list"
                        outcomes["ss-outside"] += 1
                    else:
                        assert exc.reason.endswith("is not that of an abelian surface"), exc
                        assert set(slopes) - {0, half, 1}, (qq, a1, a2)
                        outcomes["not-a-surface"] += 1
                    continue
                assert w.newton is classify_newton(w), (qq, a1, a2)
                assert (w.newton is NewtonType.MIXED) == (w.case == "mixed"), (qq, a1, a2)
                outcomes[w.newton.value] += 1
        assert outcomes == {"mixed": 7764, "supersingular": 192,
                            "ss-outside": 3, "not-a-surface": 14209}

    def test_supersingular_table_matches_the_case_tests(self):
        # every box pair with h | a1 and q | a2 for q < 2000: the pairs that
        # the earlier case tests name are accepted with their case, and all
        # others are rejected
        outcomes = Counter()
        for q in prime_powers_upto(1999):
            qq, h = q.q, q.p ** ((q.n + 1) // 2)
            for a1 in range(-(isqrt(16 * qq) // h) * h, isqrt(16 * qq) + 1, h):
                for a2 in range(-2 * qq, (a1 * a1 + 8 * qq) // 4 + 1, qq):
                    if (a2 + 2 * qq) ** 2 < 4 * a1 * a1 * qq:
                        continue
                    want = ss_quartic_case(q, a1, a2)
                    try:
                        got = validate_surface_simple(q, a1=a1, a2=a2).case
                    except Rejected:
                        got = None
                    assert got == want, (qq, a1, a2)
                    outcomes[got] += 1
        assert outcomes == {"ss-i": 307, "ss-ii": 19, "ss-iii": 312, "ss-iv": 309, "ss-v": 19,
                            "ss-vi": 36, "ss-vii": 4, "ss-viii": 10, None: 989}

    def test_mixed_needs_h_dividing_a2(self):
        # p | a2 with p not dividing a1 is not enough: over F_8 the pair
        # (-3, 2) has slopes 0, 1/3, 2/3, 1, since 4 = 2^ceil(3/2) does not divide 2
        q = PrimePower(2, 3)
        f = IntPolynomial([64, -24, 2, -3, 1])
        assert newton_slopes(f, q) == (0, Fraction(1, 3), Fraction(2, 3), 1)
        with pytest.raises(Rejected, match=r"t\^4 - 3t\^3 \+ 2t\^2 - 24t \+ 64 is not that of an abelian"):
            validate_surface_simple(q, a1=-3, a2=2)

    def test_weil_bounds(self):
        with pytest.raises(Rejected):
            validate_surface_simple(PrimePower(3, 1), a1=7, a2=0)
        with pytest.raises(Rejected):
            validate_surface_simple(PrimePower(3, 1), a1=0, a2=20)

    def test_all_ss_slopes_are_half(self):
        cases = [
            (PrimePower(7, 1), 0, 0), (PrimePower(3, 2), 0, 0),
            (PrimePower(7, 1), 0, 7), (PrimePower(7, 1), 0, -7),
            (PrimePower(7, 2), 0, -49), (PrimePower(7, 2), 7, 49),
            (PrimePower(5, 1), 5, 15), (PrimePower(2, 1), 2, 2),
        ]
        for q, a1, a2 in cases:
            w = validate_surface_simple(q, a1=a1, a2=a2)
            assert set(w.slopes()) == {"1/2"}


class TestSurfaceSquare:
    def test_odd_degree(self):
        q = PrimePower(3, 1)
        w = validate_surface_square(q, IntPolynomial([-3, 0, 1]))
        assert w.e == 2
        assert w.endo.partition("(")[0] == "quaternion-Hinfty"
        assert "sqrt(3)" in w.endo

    def test_odd_degree_wrong_shape(self):
        with pytest.raises(Rejected):
            validate_surface_square(PrimePower(3, 1), IntPolynomial([3, 0, 1]))

    def test_even_degree(self):
        w = validate_surface_square(PrimePower(5, 2), IntPolynomial([25, 0, 1]))
        assert w.case == "ss-square-even-b0"
        w = validate_surface_square(PrimePower(7, 2), IntPolynomial([49, -7, 1]))
        assert w.case == "ss-square-even-bsqrt"
        with pytest.raises(Rejected):
            validate_surface_square(PrimePower(3, 2), IntPolynomial([9, 0, 1]))


SS = NewtonType.SUPERSINGULAR
# (case, dim, e, Newton type, kind of the endomorphism algebra) for each
# WEIL_CASES argv of the golden snapshot, in order
CASE_FIELDS = [
    ("ss-inseparable", 1, 2, SS, "quaternion-Hp"),
    ("ss-a", 1, 1, SS, "field"),
    ("ss-b", 1, 1, SS, "field"),
    ("ss-c", 1, 1, SS, "field"),
    ("ss-d", 1, 1, SS, "field"),
    ("ss-d", 1, 1, SS, "field"),
    ("ss-i", 2, 1, SS, "field"),
    ("ss-ii", 2, 1, SS, "field"),
    ("ss-iv", 2, 1, SS, "field"),
    ("ss-v", 2, 1, SS, "field"),
    ("ss-vi", 2, 1, SS, "field"),
    ("ss-vii", 2, 1, SS, "field"),
    ("ss-viii", 2, 1, SS, "field"),
    ("ss-square-even-b0", 2, 2, SS, "quaternion-over-field"),
    ("ss-square-even-bsqrt", 2, 2, SS, "quaternion-over-field"),
]


def validate_argv(argv):
    """Validate the class that a `weil-check` argv names, in-process."""
    tokens = [t for a in argv[1:] for t in a.split("=", 1)]
    opts = dict(zip(tokens[::2], tokens[1::2]))
    q = PrimePower.from_q(int(opts["--q"]))
    if "--b" in opts:
        return validate_elliptic(q, int(opts["--b"]))
    if "--square" in opts:
        square = IntPolynomial([int(c) for c in opts["--square"].split(",")])
        return validate_surface_square(q, square)
    return validate_surface_simple(q, int(opts["--a1"]), int(opts["--a2"]))


def test_case_fixes_dim_e_newton_endo():
    from test_golden_cli import WEIL_CASES

    got = [(w.case, w.dim, w.e, w.newton, w.endo.partition("(")[0])
           for w in map(validate_argv, WEIL_CASES)]
    assert got == CASE_FIELDS


class TestPointCountsAndZeta:
    def test_elliptic_count(self):
        # t^2 - 2t + 5 has f(1) = 4 points over F_5
        w = validate_elliptic(PrimePower(5, 1), 2)
        assert abelian_point_count(w, 1) == 4
        # N_2 = f(1) * f(-1) resultant analogue
        assert abelian_point_count(w, 2) == 4 * 8

    def test_surface_count_multiplicative(self):
        w = validate_surface_simple(PrimePower(5, 1), a1=1, a2=3)
        n1 = abelian_point_count(w, 1)
        assert n1 == evaluate(w.poly, 1)

    def test_zeta_factor_degrees(self):
        w = validate_surface_simple(PrimePower(5, 1), a1=1, a2=3)
        ps = abelian_zeta(w)
        assert [f.degree for f in ps] == [1, 4, 6, 4, 1]
        assert all(f[0] == 1 for f in ps)

    def test_zeta_functional_symmetry_p2(self):
        w = validate_surface_simple(PrimePower(5, 1), a1=1, a2=3)
        p2 = abelian_zeta(w)[2]
        # the multiset of pairwise root products is stable under m -> q^2/m,
        # which forces c_{6-i} = c_i * q^(6-2i)
        for i in range(4):
            assert p2[6 - i] == p2[i] * 5 ** (6 - 2 * i)

    @pytest.mark.parametrize("args", [
        dict(a1=1, a2=3), dict(a1=1, a2=5), dict(a1=0, a2=5),
        dict(P=IntPolynomial([-5, 0, 1])),
    ])
    def test_zeta_log_expansion_matches_point_counts(self, args):
        q = PrimePower(5, 1)
        w = (validate_surface_square if "P" in args else validate_surface_simple)(q, **args)
        ps = abelian_zeta(w)
        n = 7
        num = [Fraction(1)] + [Fraction(0)] * (n - 1)
        den = [Fraction(1)] + [Fraction(0)] * (n - 1)
        for i, f in enumerate(ps):
            s = series_from_poly(f, n)
            if i % 2:
                num = series_mul(num, s, n)
            else:
                den = series_mul(den, s, n)
        zeta = series_mul(num, series_inv(den, n), n)
        logarg = [Fraction(0)] * n
        for r in range(1, n):
            logarg[r] = Fraction(abelian_point_count(w, r), r)
        assert zeta == series_exp(logarg, n)

    def test_elliptic_zeta_log_expansion(self):
        q = PrimePower(7, 1)
        w = validate_elliptic(q, 3)
        ps = abelian_zeta(w)
        n = 6
        num = series_from_poly(ps[1], n)
        den = series_mul(series_from_poly(ps[0], n), series_from_poly(ps[2], n), n)
        zeta = series_mul(num, series_inv(den, n), n)
        logarg = [Fraction(0)] * n
        for r in range(1, n):
            logarg[r] = Fraction(abelian_point_count(w, r), r)
        assert zeta == series_exp(logarg, n)


PRIME_POWERS_10K = prime_powers_upto(10 ** 4)


@st.composite
def weil_classes(draw):
    """Validated classes over F_q, q <= 10^4: elliptic, simple quartic (a1, a2)
    drawn from the Weil box, and squares f = P^2."""
    q = draw(st.sampled_from(PRIME_POWERS_10K))
    qq, r = q.q, isqrt(q.q)
    kind = draw(st.sampled_from(["elliptic", "quartic", "square"]))
    try:
        if kind == "elliptic":
            return validate_elliptic(q, draw(st.integers(-2 * r - 1, 2 * r + 1)))
        if kind == "quartic":
            a1 = draw(st.integers(-isqrt(16 * qq), isqrt(16 * qq)))
            lo = isqrt(4 * a1 * a1 * qq - 1) + 1 - 2 * qq if a1 else -2 * qq
            a2 = draw(st.integers(lo, max(lo, (a1 * a1 + 8 * qq) // 4)))
            return validate_surface_simple(q, a1=a1, a2=a2)
        b = draw(st.sampled_from([0, r, -r]))
        c0 = draw(st.sampled_from([qq, -qq]))
        return validate_surface_square(q, IntPolynomial([c0, -b, 1]))
    except Rejected:
        assume(False)


@given(weil_classes(), st.integers(1, 60))
@settings(max_examples=150, deadline=None)
def test_point_count_matches_resultant(w, r):
    want = abs(resultant(w.poly, IntPolynomial([-1] + [0] * (r - 1) + [1])))
    assert abelian_point_count(w, r) == want


@given(weil_classes(), st.integers(1, 100))
@settings(max_examples=300, deadline=None)
def test_point_count_matches_power_sums(w, r):
    assert abelian_point_count(w, r) == point_count_by_power_sums(w, r)


@given(weil_classes())
@settings(max_examples=300, deadline=None)
def test_p2_matches_exterior_square(w):
    assert abelian_zeta(w)[2] == exterior_square_by_power_sums(w)


def test_point_count_at_large_r_matches_closed_forms():
    from test_cli import deadline

    q = PrimePower(7, 1)
    curve, quartic = validate_elliptic(q, 0), validate_surface_simple(q, a1=0, a2=0)
    with deadline(2):
        # f = t^2 + q: V_r(0) = alpha^r + (-alpha)^r is 0 for odd r, 2 (-q)^(r/2) for even r
        assert abelian_point_count(curve, 99_999) == 1 + 7 ** 99_999
        assert abelian_point_count(curve, 100_000) == 1 + 7 ** 100_000 - 2 * 7 ** 50_000
        # f = t^4 + q^2: alpha^4 = -q^2 for each of the four roots
        assert abelian_point_count(quartic, 100_000) == (1 - (-49) ** 25_000) ** 4


def hand_built(coeffs):
    """A WeilDescriptor around any monic f, past every validation."""
    return WeilDescriptor(PrimePower(5, 1), IntPolynomial(coeffs), "ordinary")


# f(0) != q^dim, f_1 != q f_3, and a cubic
@pytest.mark.parametrize("coeffs", [[-1, 0, 1], [25, 1, 0, 1, 1], [5, 0, 0, 1]])
def test_not_q_symmetric_is_rejected(coeffs):
    w = hand_built(coeffs)
    for call in (lambda: abelian_point_count(w, 1), lambda: abelian_zeta(w)):
        with pytest.raises(Rejected, match="is not q-symmetric") as exc:
            call()
        assert exc.value.citation == "Weil polynomial functional equation"


# t^2 - 1, t^2 + 1, Phi_5 and (t^2 + 1)^2 are not q-symmetric over F_5, so the
# library refuses them before it counts; (t - 1)(t - 5), (t - 1)(t - 5)(t^2 + 5)
# and (t + 1)(t + 5)(t^2 + 5) are
@pytest.mark.parametrize("coeffs, r", [([-1, 0, 1], 2), ([-1, 0, 1], 1), ([1, 0, 1], 4),
                                       ([1, 1, 1, 1, 1], 5), ([1, 0, 2, 0, 1], 8),
                                       ([5, -6, 1], 1), ([5, -6, 1], 3),
                                       ([25, -30, 10, -6, 1], 1), ([25, 30, 10, 6, 1], 2)])
def test_point_count_rejects_a_root_of_unity(coeffs, r):
    w = hand_built(coeffs)
    text = re.escape("characteristic polynomial shares a root with t^r - 1")
    with pytest.raises(Rejected, match=text):
        point_count_by_power_sums(w, r)
    q_symmetric = coeffs[0] == 5 ** (len(coeffs) // 2)
    with pytest.raises(Rejected, match=text if q_symmetric else "is not q-symmetric"):
        abelian_point_count(w, r)
