import copy
import os
import pickle
from collections import Counter
from fractions import Fraction
from math import prod
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from gkzeta import kummer, numtheory
from gkzeta.numtheory import (
    Condition,
    IntPolynomial,
    PrimePower,
    _MR_BOUND,
    _PRIMORIAL,
    _SMALL_PRIMES,
    _is_power_residue,
    iroot,
    is_prime,
)

from oracles import (
    PSI,
    brute_iroot,
    condition_by_words,
    cyclotomic_by_division,
    direct_newton_slopes,
    divisors,
    euler_phi,
    evaluate,
    legendre,
    moebius,
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
        # psi_k is the least strong pseudoprime to the first k bases: psi_1 =
        # 23 * 89 falls to the gcd, every later one below the bound to the 13
        # bases, which from 587^2 on are all tested
        assert PSI[-1] == _MR_BOUND
        for psi in PSI[:-1]:
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
        # the gcd with the product of the 106 primes below 587 answers before
        # any Miller-Rabin power, however large n is
        def no_power(*args):
            raise AssertionError(f"Miller-Rabin power {args}")

        monkeypatch.setattr(numtheory, "pow", no_power, raising=False)
        for p in sorted(_SMALL_PRIMES):
            assert is_prime(p)
            for m in (17, 19 * 23, 10 ** 30 + 1, 2 ** 14000 + 1):
                assert not is_prime(p * m), (p, m)

    def test_small_primes_are_the_primes_below_587(self):
        sieve = prime_sieve(600)
        assert _SMALL_PRIMES == {n for n in range(587) if sieve[n]} and len(_SMALL_PRIMES) == 106
        assert sieve[587] and is_prime(587)
        assert _PRIMORIAL == prod(sorted(_SMALL_PRIMES))
        assert _PRIMORIAL.bit_length() == 785

    @staticmethod
    def _counting_pow(monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return pow(*args)

        monkeypatch.setattr(numtheory, "pow", counting, raising=False)
        return calls

    def test_no_power_below_587_squared(self, monkeypatch):
        # an n < 587^2 with no prime factor below 587 is prime: the gcd decides
        calls = self._counting_pow(monkeypatch)
        for n in range(2, 587 ** 2):
            is_prime(n)
        assert calls == []

    def test_from_587_squared_bases_run_in_order_until_a_witness(self, monkeypatch):
        # 587^2 is the least composite with no prime factor below 587; from it
        # on n is tested to the 13 bases in order: base 2 witnesses that 587^2
        # is composite, and the prime 344587 takes all 13
        calls = self._counting_pow(monkeypatch)
        assert not is_prime(587 ** 2) and 587 ** 2 == 344569
        assert [(a, n) for a, _, n in calls] == [(2, 344569)]
        calls.clear()
        assert is_prime(344587)
        assert [(a, n) for a, _, n in calls] == [
            (a, 344587) for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)]

    def test_matches_sieve_below_10_6(self):
        sieve = prime_sieve(10 ** 6)
        assert [n for n in range(10 ** 6) if is_prime(n) != sieve[n]] == []

    def test_valuation(self):
        assert valuation(48, 2) == 4
        assert valuation(-27, 3) == 3
        assert valuation(5, 3) == 0


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

    def test_matches_factorization_with_a_small_prime_from_17(self):
        # q = p^k m with 17 <= p < 587: the gcd with the primorial decides q
        qs = [p ** k * m for p in sorted(_SMALL_PRIMES) if p >= 17 for k in (1, 2, 3)
              for m in (1, 2, 3, 17, p, p + 2, 577, 587, 587 ** 2, 1009)]
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
        # a root below 587 is proven by the set of small primes, with no call
        for p, k in ((2, 5), (13, 4), (17, 1), (17, 2), (577, 2)):
            calls.clear()
            q = PrimePower.from_q(p ** k)
            assert (q.p, q.n, calls) == (p, k, [])
        for p, k in ((587, 3), (19997, 3), (10 ** 12 + 39, 2)):
            calls.clear()
            q = PrimePower.from_q(p ** k)
            assert (q.p, q.n, calls.count(p)) == (p, k, 1)

    def test_huge_q_is_bounded(self):
        # 2^14000 + 1 took seconds in integer roots and in one Miller-Rabin
        # power on the 14,000-bit root. Its cofactor by 449 has no prime factor
        # below 587, so it takes the root path; 2^89 - 1 is prime and above the bound
        from test_cli import deadline

        refused = "{} is not a prime power p^n with p < 3317044064679887385961981"
        with deadline(2):
            for q in ((2 ** 14000 + 1) // 449, 2 ** 89 - 1, (2 ** 89 - 1) ** 7,
                      (10 ** 24 + 7) ** 49 * 10009 ** 3):
                assert _outcome(PrimePower.from_q, q) == refused.format(q)
            # 449 divides 2^14000 + 1 and 23 divides 10^4299 + 3: the gcd with
            # the primorial proves that neither is a prime power
            for q in (2 ** 14000 + 1, 10 ** 4299 + 3):
                assert _outcome(PrimePower.from_q, q) == f"{q} is not a prime power"
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
        # every zeta function k3_zeta builds shares its factor 1 - t, so a
        # change in place would reach every caller
        c = kummer._ONE_MINUS_T[0]
        with pytest.raises(AttributeError):
            c.coeffs = (1,)
        with pytest.raises(AttributeError):
            del c.coeffs
        with pytest.raises(AttributeError):
            c.extra = 1
        assert str(kummer._ONE_MINUS_T[0]) == "-t + 1"

    def test_trusted_constructor_equals_the_normalized_one(self):
        f = tuple.__new__(IntPolynomial, (7, -3, 1))
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
        for field in ("text", "bound", "excluded", "modulus", "accepts", "extra"):
            with pytest.raises(AttributeError):
                setattr(cond, field, 10 ** 9)
            with pytest.raises(AttributeError):
                delattr(cond, field)
        assert (repr(cond), str(cond), cond.bound) == ("Condition('p > 2')", "p > 2", 2)
        assert len(trace_table("even", 7)) == 9

    def test_equality_is_identity(self):
        cond = Condition("p > 2")
        assert cond == cond and cond != Condition("p > 2")

    @staticmethod
    def _table_conditions() -> dict:
        """Every Condition the library builds at import, by module: found by
        walking the globals of kummer, existence, brauer and weil through
        their dicts and tuples, table rows and verdicts included."""
        from gkzeta import brauer, existence, kummer, weil

        def walk(x, out):
            if isinstance(x, Condition):
                out[id(x)] = x
            elif isinstance(x, dict):
                for v in x.values():
                    walk(v, out)
            elif isinstance(x, (tuple, list, set, frozenset)):
                for v in x:
                    walk(v, out)

        found = {}
        for module in (kummer, existence, brauer, weil):
            out = found[module.__name__] = {}
            for value in vars(module).values():
                walk(value, out)
        return {name: list(out.values()) for name, out in found.items()}

    def test_every_table_condition_matches_its_words(self):
        """Each condition the tables hold reads as its text, read word by word
        (oracles.condition_by_words), at every integer -3 <= p < 10^4,
        composites included; so do its copies, which print as it does."""
        found = self._table_conditions()
        assert {name: len(conds) for name, conds in found.items()} == {
            "gkzeta.kummer": 18, "gkzeta.existence": 25, "gkzeta.brauer": 15, "gkzeta.weil": 8}
        conds = [c for cs in found.values() for c in cs]
        assert {c.text for c in conds} == set(CONDITIONS_LITERAL)
        ps = range(-3, 10 ** 4)
        want = {text: [condition_by_words(text, p) for p in ps] for text in CONDITIONS_LITERAL}
        for cond in conds:
            copies = (copy.copy(cond), copy.deepcopy(cond), pickle.loads(pickle.dumps(cond)))
            for c in (cond, *copies):
                assert type(c) is Condition
                assert (repr(c), str(c)) == (f"Condition({cond.text!r})", cond.text)
                assert [c.holds(p) for p in ps] == want[cond.text], cond.text


def _phi_r(r: int) -> IntPolynomial:
    """Phi_r, read from its row of kummer._ORDERS (which holds it reversed)."""
    return IntPolynomial(kummer._ORDERS[r][2][::-1])


class TestCyclotomic:
    """The identities of Phi_r on the 43 orders of kummer._ORDERS, the only
    cyclotomic polynomials the library builds."""

    def test_values(self):
        assert _phi_r(1) == IntPolynomial([-1, 1])
        assert _phi_r(2) == IntPolynomial([1, 1])
        assert _phi_r(4) == IntPolynomial([1, 0, 1])
        assert _phi_r(12) == IntPolynomial([1, 0, -1, 0, 1])
        assert [kummer._ORDERS[r][:2] for r in (1, 2, 4, 6, 30)] == [
            (1, 1), (-1, 1), (0, 2), (1, 2), (-1, 8)]

    def test_degree_is_phi(self):
        for r, (_, phi, _) in kummer._ORDERS.items():
            assert _phi_r(r).degree == phi == euler_phi(r), r

    def test_product_identity_spot(self):
        # every divisor of an order in the table is in the table
        for r in kummer._ORDERS:
            prod = IntPolynomial([1])
            for d in divisors(r):
                prod = prod * _phi_r(d)
            assert prod == IntPolynomial([-1] + [0] * (r - 1) + [1]), r

    def test_matches_recursive_division(self):
        for r in kummer._ORDERS:
            assert _phi_r(r).coeffs == cyclotomic_by_division(r), r

    def test_second_coefficient_is_minus_moebius(self):
        # the sum of primitive r-th roots of unity is mu(r)
        for r, (mu, _, _) in kummer._ORDERS.items():
            f = _phi_r(r)
            assert f[f.degree - 1] == -mu == -moebius(r), r


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


# ---------------------------------------------------------------------------
# per-prime answers read what was built at import

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_a_tables_sweep_answer_builds_no_condition_and_no_cyclotomic(monkeypatch):
    """Answering each prime of tables-sweep with the workload's own calls
    (bench/workloads.py) constructs no Condition, builds no cyclotomic row
    and parses no notation term by term: every condition, cyclotomic row,
    notation part and trace-table class an answer reads was built at
    import, and kummer's tables are the same, unchanged, afterwards."""
    monkeypatch.syspath_prepend(BENCH)
    import workloads

    sweep = workloads.TablesSweep(seed=7)
    api = SimpleNamespace(**{name.rsplit(".", 1)[1]: fn for name, fn in sweep.functions().items()})
    names = ("_ORDERS", "_PARTS", "_TEXTS", "_EVEN_BY_CLASS", "_ODD_BY_CLASS")
    tables = {name: getattr(kummer, name) for name in names}
    # the class tables are tuples of immutable rows: the same object is the same table
    copies = {name: copy.copy(table) for name, table in tables.items()}
    built = Counter()
    init, parse_terms = Condition.__init__, kummer._parse_terms

    def counting_init(self, text):
        built["Condition"] += 1
        init(self, text)

    def counting_parse_terms(s):
        built["_parse_terms"] += 1
        return parse_terms(s)

    monkeypatch.setattr(Condition, "__init__", counting_init)
    monkeypatch.setattr(kummer, "_parse_terms", counting_parse_terms)
    for p in sweep.inputs:
        assert sweep.check(p, sweep.op(api, p)) is None, p
    assert built == {}
    for name, table in tables.items():
        assert getattr(kummer, name) is table and table == copies[name], name
    # the counters see a construction and a term-by-term parse
    Condition("any p")
    kummer.parse_zeta_notation("1^20, 2^2")
    assert built == {"Condition": 1, "_parse_terms": 1}
