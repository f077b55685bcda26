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
)

from oracles import (
    brute_enumerate_elliptic,
    brute_validate_elliptic,
    classify_newton,
    brute_elliptic_traces,
    brute_quartic_is_irreducible,
    resultant,
    series_exp,
    series_inv,
    series_from_poly,
    series_mul,
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
        assert w.endo.kind == "quaternion-Hp"
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
    (tests/oracles.py), for every prime power q < 3000."""

    @staticmethod
    def fields(w):
        return (w.q, w.dim, w.poly, w.e, w.newton, w.case, str(w.endo))

    def test_enumeration_matches_oracle(self):
        for q in prime_powers_upto(2999):
            got = [self.fields(w) for w in enumerate_elliptic(q)]
            assert got == [self.fields(w) for w in brute_enumerate_elliptic(q)], q

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
            # p = 3 excludes (0, -q) over odd degree
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
            assert set(w.slopes()) == {Fraction(1, 2)}


class TestSurfaceSquare:
    def test_odd_degree(self):
        q = PrimePower(3, 1)
        w = validate_surface_simple(q, square_of=IntPolynomial([-3, 0, 1]))
        assert w.e == 2
        assert w.endo.kind == "quaternion-Hinfty"
        assert "sqrt(3)" in w.endo.detail

    def test_odd_degree_wrong_shape(self):
        with pytest.raises(Rejected):
            validate_surface_simple(PrimePower(3, 1), square_of=IntPolynomial([3, 0, 1]))

    def test_even_degree(self):
        w = validate_surface_simple(PrimePower(5, 2), square_of=IntPolynomial([25, 0, 1]))
        assert w.case == "ss-square-even-b0"
        w = validate_surface_simple(PrimePower(7, 2), square_of=IntPolynomial([49, -7, 1]))
        assert w.case == "ss-square-even-bsqrt"
        with pytest.raises(Rejected):
            validate_surface_simple(PrimePower(3, 2), square_of=IntPolynomial([9, 0, 1]))


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
        assert n1 == w.poly(1)

    def test_zeta_parity_check_is_not_an_assert(self, monkeypatch):
        w = validate_surface_simple(PrimePower(5, 1), a1=1, a2=3)
        monkeypatch.setattr(weil, "_power_sums", lambda f, upto: [0, 1] + [0] * (upto - 1))
        with pytest.raises(Rejected):
            abelian_zeta(w)

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
        dict(square_of=IntPolynomial([-5, 0, 1])),
    ])
    def test_zeta_log_expansion_matches_point_counts(self, args):
        q = PrimePower(5, 1)
        w = validate_surface_simple(q, **args)
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
        return validate_surface_simple(q, square_of=IntPolynomial([c0, -b, 1]))
    except Rejected:
        assume(False)


@given(weil_classes(), st.integers(1, 60))
@settings(max_examples=150, deadline=None)
def test_point_count_matches_resultant(w, r):
    want = abs(resultant(w.poly, IntPolynomial.x_pow(r) - IntPolynomial([1])))
    assert abelian_point_count(w, r) == want
