from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gkzeta import numtheory
from gkzeta.numtheory import (
    Condition,
    IntPolynomial,
    PrimePower,
    cyclotomic,
    divisors,
    _MR_BOUND,
    _PSI,
    _is_power_residue,
    euler_phi,
    iroot,
    is_prime,
    moebius,
    squarefree_part,
)

from oracles import (
    brute_iroot,
    cyclotomic_by_division,
    direct_newton_slopes,
    evaluate,
    legendre,
    mult_order,
    newton_slopes,
    prime_power_by_factorization,
    prime_sieve,
    resultant,
    splitting_in_cyclotomic,
    splitting_in_quadratic,
    valuation,
)


PRIMES_BELOW_100 = [p for p in range(2, 100) if is_prime(p)]


class TestPrimes:
    def test_small(self):
        assert PRIMES_BELOW_100[:10] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_miller_rabin_bases_are_not_misreported(self):
        for p in (17, 19, 23, 29, 31, 37):
            assert is_prime(p)

    def test_composites(self):
        for n in (0, 1, 4, 9, 25, 91, 561, 1105):
            assert not is_prime(n)

    def test_strong_pseudoprime_to_bases_up_to_37(self):
        n = 318665857834031151167461
        assert n == 399165290221 * 798330580441
        assert not is_prime(n)

    def test_refuses_above_proven_bound(self):
        assert not is_prime(3317044064679887385961980)
        # the least strong pseudoprime to every prime base 2..41
        with pytest.raises(ValueError):
            is_prime(3317044064679887385961981)

    def test_prime_power(self):
        q = PrimePower.from_q(49)
        assert (q.p, q.n, q.q) == (7, 2, 49)
        assert not q.degree_is_odd
        with pytest.raises(ValueError):
            PrimePower.from_q(12)

    def test_composites_above_bound_are_proven(self):
        # a base that witnesses compositeness is a proof at any size
        assert not is_prime((10 ** 12 + 39) * (10 ** 13 + 37))
        with pytest.raises(ValueError):
            is_prime(2 ** 89 - 1)  # a Mersenne prime above the bound

    def test_each_psi_k_is_caught(self):
        # psi_k is a strong pseudoprime to the first k bases; it is the least
        # input the base prefix must test with k + 1 bases
        for psi in _PSI[:-1]:
            assert not is_prime(psi)

    # the k <= 200 with 2^k - 1 prime (OEIS A000043) and with 2^k + 1 prime
    # (the Fermat primes, A019434)
    MERSENNE = (2, 3, 5, 7, 13, 17, 19, 31, 61, 89, 107, 127)
    FERMAT = (1, 2, 4, 8, 16)

    def test_two_to_the_k_plus_minus_one(self):
        for k in range(1, 201):
            for n, prime in ((2 ** k - 1, k in self.MERSENNE), (2 ** k + 1, k in self.FERMAT)):
                if prime and n >= _MR_BOUND:
                    with pytest.raises(ValueError):
                        is_prime(n)
                else:
                    assert is_prime(n) == prime, k

    def test_a_multiple_of_a_trial_prime_takes_no_power(self, monkeypatch):
        # the trial division by 2, 3, 5, 7, 11 and 13 answers before any
        # Miller-Rabin power, however large n is
        def no_power(*args):
            raise AssertionError(f"Miller-Rabin power {args}")

        monkeypatch.setattr(numtheory, "pow", no_power, raising=False)
        for p in (2, 3, 5, 7, 11, 13):
            assert is_prime(p)
            for m in (17, 19 * 23, 10 ** 30 + 1, 2 ** 14000 + 1):
                assert not is_prime(p * m), (p, m)

    def test_matches_sieve_below_10_6(self):
        sieve = prime_sieve(10 ** 6)
        assert [n for n in range(10 ** 6) if is_prime(n) != sieve[n]] == []

    def test_valuation(self):
        assert valuation(48, 2) == 4
        assert valuation(-27, 3) == 3
        assert valuation(5, 3) == 0

    def test_squarefree_part(self):
        assert squarefree_part(12) == 3
        assert squarefree_part(-8) == -2
        assert squarefree_part(7) == 7


def _outcome(f, q):
    try:
        return f(q)
    except ValueError as exc:
        return str(exc)


PRIMES_NEAR_2E4 = [p for p in range(19_900, 20_100) if is_prime(p)]
PRIMES_NEAR_1E12 = [p for p in range(10 ** 12, 10 ** 12 + 200) if is_prime(p)]


class TestPrimePowerByRoots:
    def test_matches_factorization_below_10_5(self):
        qs = range(-3, 10 ** 5)
        assert [q for q in qs if _outcome(PrimePower.from_q, q)
                != _outcome(prime_power_by_factorization, q)] == []

    def test_error_texts(self):
        assert _outcome(PrimePower.from_q, 0) == "0 is not a positive integer"
        assert _outcome(PrimePower.from_q, -8) == "-8 is not a positive integer"
        assert _outcome(PrimePower.from_q, 1) == "1 is not a prime power"
        assert _outcome(PrimePower.from_q, 36) == "36 is not a prime power"

    def test_matches_factorization_near_2e4(self):
        qs = [p ** k * m for p in PRIMES_NEAR_2E4 for k in (1, 2, 3, 4)
              for m in (1, 2, 6, p + 2, p ** 2 + 2)]
        assert [q for q in qs if _outcome(PrimePower.from_q, q)
                != _outcome(prime_power_by_factorization, q)] == []

    def test_near_1e12(self):
        # trial division to 10^12 is out of reach; q = p^k is known by construction
        for p in PRIMES_NEAR_1E12:
            for k in (1, 2, 3, 4, 7):
                assert _outcome(PrimePower.from_q, p ** k) == PrimePower(p, k)
            for q in (2 * p, p * p * 3, (6 * p) ** 2, (6 * p) ** 3, p * (p + 2)):
                assert _outcome(PrimePower.from_q, q) == f"{q} is not a prime power"

    def test_huge_powers_of_small_primes(self):
        # a prime exponent near log2(q) would cost one integer root per prime below it
        from test_cli import deadline

        with deadline(2):
            for p, k in ((2, 14281), (3, 9001), (13, 3833), (10007, 31)):
                assert _outcome(PrimePower.from_q, p ** k) == PrimePower(p, k)
            for q in (3 * 2 ** 9973, 13 ** 2000 * 17):
                assert _outcome(PrimePower.from_q, q) == f"{q} is not a prime power"

    def test_root_is_tested_once(self, monkeypatch):
        calls = []

        def counting(n):
            calls.append(n)
            return is_prime(n)

        monkeypatch.setattr(numtheory, "is_prime", counting)
        for p, k in ((2, 5), (13, 4), (17, 1), (17, 2), (19997, 3), (10 ** 12 + 39, 2)):
            calls.clear()
            q = PrimePower.from_q(p ** k)
            assert (q.p, q.n, calls.count(p)) == (p, k, 1)

    def test_huge_q_is_bounded(self):
        # 2^14000 + 1 took seconds in integer roots and in one Miller-Rabin
        # power on the 14,000-bit root; 2^89 - 1 is prime and above the bound
        from test_cli import deadline

        refused = "{} is not a prime power p^n with p < 3317044064679887385961981"
        with deadline(2):
            for q in (2 ** 14000 + 1, 10 ** 4299 + 3, 2 ** 89 - 1, (2 ** 89 - 1) ** 7,
                      (10 ** 24 + 7) ** 49 * 10009 ** 3):
                assert _outcome(PrimePower.from_q, q) == refused.format(q)
            for p, k in ((17, 3000), (1000003, 600), (10 ** 24 + 7, 50), (19997, 997)):
                assert _outcome(PrimePower.from_q, p ** k) == PrimePower(p, k)

    @given(st.integers(17, 2 ** 300), st.sampled_from([2, 3, 5, 7, 11, 13, 101, 3571]))
    @settings(max_examples=200, deadline=None)
    def test_power_residue_sieve_keeps_every_power(self, y, l):
        assert _is_power_residue(y ** l, l)

    def test_iroot_matches_counting(self):
        assert [(x, k) for x in range(1500) for k in range(1, 13)
                if iroot(x, k) != brute_iroot(x, k)] == []

    @given(st.integers(0, 2 ** 300), st.integers(1, 70))
    @settings(max_examples=300, deadline=None)
    def test_iroot_brackets_the_root(self, x, k):
        r = iroot(x, k)
        assert r ** k <= x < (r + 1) ** k

    def test_iroot_rejects(self):
        for x, k in ((-1, 2), (8, 0)):
            with pytest.raises(ValueError):
                iroot(x, k)


class TestPolynomials:
    def test_arith(self):
        f = IntPolynomial([1, 2, 1])
        g = IntPolynomial([1, 1])
        assert g * g == f
        assert evaluate(f, 3) == 16

    def test_str(self):
        assert str(IntPolynomial([9, 0, -1, 1])) == "t^3 - t^2 + 9"
        assert str(IntPolynomial([1, -2, 0, -1])) == "-t^3 - 2t + 1"
        assert str(IntPolynomial(())) == "0"

    def test_no_assignment_or_deletion(self):
        # cyclotomic is cached, so a change in place would reach every caller
        c = cyclotomic(3)
        with pytest.raises(AttributeError):
            c.coeffs = (1,)
        with pytest.raises(AttributeError):
            del c.coeffs
        with pytest.raises(AttributeError):
            c.extra = 1
        assert str(cyclotomic(3)) == "t^2 + t + 1"

    def test_trusted_constructor_equals_the_normalized_one(self):
        f = IntPolynomial._trusted((7, -3, 1))
        assert f == IntPolynomial([7, -3, 1]) and hash(f) == hash(IntPolynomial([7, -3, 1]))
        assert str(f) == "t^2 - 3t + 7"
        with pytest.raises(AttributeError):
            f.coeffs = (1,)

    def test_format_ascending(self):
        assert IntPolynomial([9, 0, -1, 1]).format(ascending=True) == "9 - t^2 + t^3"
        assert IntPolynomial([-1, 3]).format(ascending=True) == "-1 + 3t"
        assert IntPolynomial([0, -1]).format(ascending=True) == "-t"
        assert IntPolynomial(()).format(ascending=True) == "0"


# every condition text of the paper's tables, with its meaning written out
CONDITIONS_LITERAL = {
    "any p": lambda p: True,
    "p > 2": lambda p: p > 2,
    "p > 3": lambda p: p > 3,
    "p != 2": lambda p: p != 2,
    "p = 1 mod 4": lambda p: p % 4 == 1,
    "p = 3 mod 4": lambda p: p % 4 == 3,
    "p != 1 mod 3": lambda p: p % 3 != 1,
    "p != 2 mod 3": lambda p: p % 3 != 2,
    "p != 1 mod 5": lambda p: p % 5 != 1,
    "p != 1 mod 8": lambda p: p % 8 != 1,
    "p != -1 mod 8": lambda p: p % 8 != 7,
    "p != 1 mod 12": lambda p: p % 12 != 1,
    "p != +-1 mod 5": lambda p: p % 5 not in (1, 4),
    "p != +-1 mod 8": lambda p: p % 8 not in (1, 7),
    "p != +-1 mod 12": lambda p: p % 12 not in (1, 11),
}


class TestCondition:
    @pytest.mark.parametrize("text", sorted(CONDITIONS_LITERAL))
    def test_matches_literal(self, text):
        cond = Condition(text)
        assert str(cond) == text
        for p in range(2, 5000):
            if is_prime(p):
                assert cond.holds(p) == CONDITIONS_LITERAL[text](p), (text, p)

    @pytest.mark.parametrize("text", ["", "p", "p >= 2", "p = 1 mod", "any q", "p != 1 mod 8 "])
    def test_rejects_unparsed_text(self, text):
        with pytest.raises(ValueError):
            Condition(text)

    def test_is_immutable(self):
        # the trace-table rows share their conditions: a change to one would
        # change every later table
        from gkzeta.kummer import trace_table

        cond = trace_table("even")[0].p_condition
        for field in ("text", "bound", "excluded", "modulus", "residues", "negated", "extra"):
            with pytest.raises(AttributeError):
                setattr(cond, field, 10 ** 9)
            with pytest.raises(AttributeError):
                delattr(cond, field)
        assert (repr(cond), str(cond), cond.bound) == ("Condition('p > 2')", "p > 2", 2)
        assert len(trace_table("even", 7)) == 9

    def test_equality_is_identity(self):
        cond = Condition("p > 2")
        assert cond == cond and cond != Condition("p > 2")


class TestCyclotomic:
    def test_values(self):
        assert cyclotomic(1) == IntPolynomial([-1, 1])
        assert cyclotomic(2) == IntPolynomial([1, 1])
        assert cyclotomic(4) == IntPolynomial([1, 0, 1])
        assert cyclotomic(12) == IntPolynomial([1, 0, -1, 0, 1])

    def test_degree_is_phi(self):
        for r in range(1, 121):
            assert cyclotomic(r).degree == euler_phi(r)

    def test_product_identity_spot(self):
        for r in (1, 2, 6, 12, 30, 105):
            prod = IntPolynomial([1])
            for d in divisors(r):
                prod = prod * cyclotomic(d)
            assert prod == IntPolynomial([-1] + [0] * (r - 1) + [1])

    def test_matches_recursive_division(self):
        for r in range(1, 500):
            assert cyclotomic(r).coeffs == cyclotomic_by_division(r), r

    def test_second_coefficient_is_minus_moebius(self):
        # the sum of primitive r-th roots of unity is mu(r)
        for r in range(2, 61):
            f = cyclotomic(r)
            assert f[f.degree - 1] == -moebius(r)


class TestMultiplicative:
    def test_phi(self):
        assert [euler_phi(r) for r in (1, 2, 8, 12, 240)] == [1, 1, 4, 4, 64]

    def test_moebius(self):
        assert [moebius(r) for r in (1, 2, 4, 6, 30)] == [1, -1, 0, 1, -1]

    def test_mult_order(self):
        assert mult_order(3, 8) == 2
        assert mult_order(2, 7) == 3
        assert mult_order(7, 1) == 1
        with pytest.raises(ValueError):
            mult_order(2, 8)

    def test_legendre_vs_square_enumeration(self):
        for p in PRIMES_BELOW_100[1:]:
            squares = {x * x % p for x in range(1, p)}
            for a in range(p):
                expect = 0 if a == 0 else (1 if a in squares else -1)
                assert legendre(a, p) == expect


class TestSplitting:
    def test_quadratic(self):
        assert splitting_in_quadratic(7, 2) == "split"      # 7 = +-1 mod 8
        assert splitting_in_quadratic(5, 2) == "inert"
        assert splitting_in_quadratic(2, 2) == "ramified"
        assert splitting_in_quadratic(2, -7) == "split"     # -7 = 1 mod 8
        assert splitting_in_quadratic(2, 5) == "inert"
        assert splitting_in_quadratic(3, 3) == "ramified"

    def test_quadratic_matches_legendre(self):
        for p in PRIMES_BELOW_100[1:]:
            for d in (-7, -3, -1, 2, 3, 5, 6, 10, 12):
                want = {0: "ramified", 1: "split", -1: "inert"}[legendre(d, p)]
                assert splitting_in_quadratic(p, d) == want, (p, d)

    @pytest.mark.parametrize("split, p, arg, text", [
        (splitting_in_quadratic, 9, 3, "9 is not prime"),  # p | d once answered "ramified"
        (splitting_in_quadratic, 4, 3, "4 is not prime"),
        (splitting_in_quadratic, 7, 4, "Q(sqrt(1)) is not a quadratic field"),
        (splitting_in_cyclotomic, 9, 5, "9 is not prime"),
        (splitting_in_cyclotomic, 7, 0, "m must be >= 1"),
    ])
    def test_guards(self, split, p, arg, text):
        with pytest.raises(ValueError) as info:
            split(p, arg)
        assert str(info.value) == text

    def test_cyclotomic_unramified(self):
        assert splitting_in_cyclotomic(7, 12) == (1, 2, 2)
        assert splitting_in_cyclotomic(13, 12) == (1, 1, 4)
        assert splitting_in_cyclotomic(3, 5) == (1, 4, 1)

    def test_cyclotomic_ramified(self):
        assert splitting_in_cyclotomic(5, 5) == (4, 1, 1)
        assert splitting_in_cyclotomic(2, 12) == (2, 2, 1)
        assert splitting_in_cyclotomic(3, 12) == (2, 2, 1)

    def test_efg_consistency(self):
        for p in (2, 3, 5, 7, 11, 13):
            for m in range(1, 61):
                e, f, g = splitting_in_cyclotomic(p, m)
                assert e * f * g == euler_phi(m)


class TestNewtonSlopes:
    def test_ordinary_elliptic(self):
        q = PrimePower(5, 1)
        f = IntPolynomial([5, -1, 1])
        assert newton_slopes(f, q) == (Fraction(0), Fraction(1))

    def test_supersingular_elliptic(self):
        q = PrimePower(7, 1)
        f = IntPolynomial([7, 0, 1])
        assert newton_slopes(f, q) == (Fraction(1, 2), Fraction(1, 2))

    def test_normalization_by_degree(self):
        q = PrimePower(3, 2)
        f = IntPolynomial([9, -3, 1])
        assert newton_slopes(f, q) == (Fraction(1, 2), Fraction(1, 2))

    def test_mixed_quartic(self):
        q = PrimePower(5, 1)
        f = IntPolynomial([25, 5, 5, 1, 1])
        slopes = newton_slopes(f, q)
        assert sorted(slopes) == [0, Fraction(1, 2), Fraction(1, 2), 1]

    @given(st.sampled_from([(2, 1), (2, 3), (3, 1), (3, 2), (5, 1), (7, 2)]),
           st.lists(st.integers(-500, 500), min_size=2, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_matches_direct_polygon(self, pn, tail):
        q = PrimePower(*pn)
        if tail[0] == 0:
            tail[0] = 1
        f = IntPolynomial(tail + [1])
        assert list(newton_slopes(f, q)) == direct_newton_slopes(f, q)

    def test_functional_equation_symmetry(self):
        # slopes of a Weil polynomial pair up as s and 1 - s
        for q, coeffs in [(PrimePower(5, 1), [25, 5, 2, 1, 1]),
                          (PrimePower(3, 1), [9, 3, 1, 1, 1]),
                          (PrimePower(7, 1), [49, 0, 7, 0, 1])]:
            slopes = sorted(newton_slopes(IntPolynomial(coeffs), q))
            assert slopes == sorted(1 - s for s in slopes)


class TestResultant:
    def test_linear(self):
        f = IntPolynomial([-2, 1])   # t - 2
        g = IntPolynomial([-3, 1])   # t - 3
        assert resultant(f, g) == -1  # (2 - 3) up to convention sign
        assert abs(resultant(f, g)) == 1

    def test_point_count_style(self):
        # Res(t^2 - t + 5, t - 1) = f(1) up to sign
        f = IntPolynomial([5, -1, 1])
        g = IntPolynomial([-1, 1])
        assert abs(resultant(f, g)) == abs(evaluate(f, 1))

    def test_shared_root(self):
        f = IntPolynomial([-1, 0, 1])
        g = IntPolynomial([-1, 1])
        assert resultant(f, g) == 0
