"""Differential tests of the number-theory primitives against sympy, on
seeded samples. sympy is an optional oracle: without it these tests skip,
and the library never imports it."""
import random
from math import isqrt

import pytest

from gkzeta import weil
from gkzeta.numtheory import (
    IntPolynomial,
    cyclotomic,
    factorize,
    iroot,
    is_prime,
)

from oracles import splitting_in_cyclotomic

sympy = pytest.importorskip("sympy")
T = sympy.Symbol("t")


def coeffs_of(expr) -> tuple[int, ...]:
    """Integer coefficients of a polynomial in t, constant term first."""
    return tuple(int(c) for c in reversed(sympy.Poly(expr, T).all_coeffs()))


def test_is_prime():
    rng = random.Random(6001)
    sample = [rng.randrange(2, 10 ** 6) for _ in range(2000)]
    sample += [rng.randrange(2, 10 ** k) for k in range(7, 25) for _ in range(60)]
    # odd semiprimes and Carmichael numbers, which fool weaker tests
    primes = [n for n in sample if sympy.isprime(n) and 2 < n < 10 ** 12]
    sample += [a * b for a, b in zip(primes, primes[1:])]
    sample += [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 3825123056546413051]
    for n in sample:
        assert is_prime(n) == sympy.isprime(n), n


def test_factorize():
    rng = random.Random(6002)
    sample = [rng.randrange(1, 10 ** 5) for _ in range(500)]
    sample += [rng.randrange(1, 10 ** 9) for _ in range(100)]
    for n in sample:
        assert factorize(n) == sympy.factorint(n), n


def test_iroot():
    rng = random.Random(6003)
    for _ in range(1500):
        x = rng.randrange(0, 1 << rng.randrange(1, 400))
        k = rng.randrange(1, 40)
        assert iroot(x, k) == sympy.integer_nthroot(x, k)[0], (x, k)


def test_cyclotomic():
    for r in list(range(1, 81)) + [105, 210, 240, 256]:
        assert cyclotomic(r).coeffs == coeffs_of(sympy.cyclotomic_poly(r, T)), r


def test_splitting_in_cyclotomic_by_dedekind_kummer():
    """(e, f, g) read off the factorization of Phi_m mod p: Z[zeta_m] is the
    ring of integers of Q(zeta_m), so Phi_m = prod g_i^e mod p with g
    distinct irreducible factors g_i of degree f."""
    rng = random.Random(6004)
    primes = [p for p in range(2, 30) if sympy.isprime(p)]
    cases = [(p, m) for p in primes for m in range(1, 21)]
    cases += [(rng.choice(primes), rng.randrange(21, 100)) for _ in range(30)]
    for p, m in cases:
        phi = sympy.Poly(sympy.cyclotomic_poly(m, T), T, modulus=p)
        _, factors = phi.factor_list()
        degrees = {g.degree() for g, _ in factors}
        exponents = {e for _, e in factors}
        assert len(degrees) == len(exponents) == 1, (p, m)
        want = (exponents.pop(), degrees.pop(), len(factors))
        assert splitting_in_cyclotomic(p, m) == want, (p, m)


def test_quartic_irreducibility():
    """Seeded (a1, a2) from the Weil box, half drawn uniformly and half as
    products of two Weil quadratics (t^2 - b t + q), against sympy's
    factorization over Q."""
    rng = random.Random(6005)
    qs = [2, 3, 4, 5, 7, 8, 9, 25, 27, 49, 101, 121, 997, 1009, 2187, 10007]
    reducible = 0
    for i in range(300):
        qq = rng.choice(qs)
        r = isqrt(4 * qq)
        if i % 2:
            b1, b2 = rng.randint(-r, r), rng.randint(-r, r)
            a1, a2 = -(b1 + b2), b1 * b2 + 2 * qq
        else:
            a1 = rng.randint(-isqrt(16 * qq), isqrt(16 * qq))
            lo = isqrt(4 * a1 * a1 * qq - 1) + 1 - 2 * qq if a1 else -2 * qq
            hi = (a1 * a1 + 8 * qq) // 4
            if lo > hi:
                continue
            a2 = rng.randint(lo, hi)
        f = IntPolynomial([qq * qq, a1 * qq, a2, a1, 1])
        want = sympy.Poly(list(reversed(f.coeffs)), T).is_irreducible
        assert weil._quartic_is_irreducible(qq, a1, a2) == want, (qq, a1, a2)
        reducible += not want
    assert reducible >= 150
