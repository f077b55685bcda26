"""Exact elementary number theory: prime powers, conditions on a prime,
integer polynomials, cyclotomic polynomials, residue symbols and p-adic
Newton polygons.

Everything here is pure integer/rational arithmetic; no floats anywhere.
Polynomials are dense coefficient tuples, constant term first.
"""
from __future__ import annotations

import re
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from operator import attrgetter


# ---------------------------------------------------------------------------
# primes and factorization

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_k, the least strong pseudoprime to the first k bases of _MR_BASES
# (OEIS A014233; Jaeschke, Math. Comp. 61, 1993; Sorenson-Webster, Math.
# Comp. 86, 2017). The last one, about 3.317e24, bounds is_prime.
_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 341550071728321, 3825123056546413051,
        3825123056546413051, 3825123056546413051, 318665857834031151167461,
        3317044064679887385961981)
_MR_BOUND = _PSI[-1]


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, proven for all n < 3317044064679887385961981
    (about 3.317e24).

    n is tested to the first k + 1 prime bases 2, 3, 5, ..., 41, where k
    counts the psi_j <= n: below psi_{k+1}, the least strong pseudoprime to
    the first k + 1 prime bases, those bases decide (OEIS A014233;
    Jaeschke, Math. Comp. 61, 1993; Sorenson-Webster, Math. Comp. 86, 2017).
    A False answer is a proof at any size; at or above the bound, an n that
    passes all 13 bases raises ValueError.
    """
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # n > 13 here, so every base used is below n
    for a in _MR_BASES[:bisect_right(_PSI, n) + 1]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_BOUND:
        raise ValueError(f"is_prime is only proven below {_MR_BOUND}")
    return True


def iroot(x: int, k: int) -> int:
    """The integer k-th root floor(x^(1/k)) of x >= 0, by integer Newton steps."""
    if x < 0 or k < 1:
        raise ValueError("iroot expects x >= 0 and k >= 1")
    if k == 1 or x < 2:
        return x
    if k == 2:
        return isqrt(x)
    # 2^ceil(bits/k) is above the root, and Newton steps from above fall
    # monotonically to the floor of the root
    r = 1 << -(-x.bit_length() // k)
    while True:
        s = ((k - 1) * r + x // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (inputs here are small)."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def valuation(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def squarefree_part(d: int) -> int:
    """The squarefree integer with the same square class as d."""
    if d == 0:
        raise ValueError("0 has no square class")
    sign = -1 if d < 0 else 1
    out = 1
    for p, e in factorize(abs(d)).items():
        if e % 2:
            out *= p
    return sign * out


# ---------------------------------------------------------------------------
# value types

class Value:
    """Base of the library's immutable value types.

    A subclass names its fields in order in __slots__, and its __init__
    validates them and sets them with object.__setattr__. Instances compare
    equal only within their class, hash by their fields, print as
    Name(field=value, ...), and refuse assignment and deletion, so that a
    cached instance is safe to share. (The value types are not dataclasses:
    importing dataclasses takes longer than most CLI calls spend computing.)
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, f) for f in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# prime powers

class PrimePower(Value):
    """A finite-field size q = p**n."""

    __slots__ = ("p", "n")

    def __init__(self, p: int, n: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if n < 1:
            raise ValueError("exponent must be >= 1")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "n", n)

    @property
    def q(self) -> int:
        return self.p ** self.n

    @property
    def degree_is_odd(self) -> bool:
        return self.n % 2 == 1

    @classmethod
    def from_q(cls, q: int) -> "PrimePower":
        """q = p^n read off the largest n for which q is an exact n-th power:
        q is a prime power iff that root is prime. O(log q) integer roots."""
        if q < 1:
            raise ValueError(f"{q} is not a positive integer")
        for n in range(q.bit_length() - 1, 0, -1):
            r = iroot(q, n)
            if r ** n == q:
                if is_prime(r):
                    return cls(r, n)
                break
        raise ValueError(f"{q} is not a prime power")

    def __str__(self):
        return f"{self.p}^{self.n}" if self.n > 1 else str(self.p)


# ---------------------------------------------------------------------------
# conditions on a prime

_CONDITION = re.compile(r"any p|p > (?P<gt>\d+)|p != (?P<ne>\d+)"
                        r"|p (?P<op>!?=) (?P<sign>\+-|-)?(?P<r>\d+) mod (?P<m>\d+)")


class Condition:
    """A condition on the prime p, parsed from the paper's text and printed
    as that text: 'any p', 'p > N', 'p != N', 'p = R mod M' or 'p != R mod M',
    where R may read -R or +-R (either of R and -R).

    Each form is read as p > bound, p != excluded, and p mod modulus in
    residues (negated for !=), with the parts it does not name always true.
    """

    def __init__(self, text: str):
        m = _CONDITION.fullmatch(text)
        if m is None:
            raise ValueError(f"{text!r} is not a condition on p")
        self.text = text
        self.bound = int(m["gt"] or 0)
        self.excluded = int(m["ne"] or 0)
        self.modulus = mod = int(m["m"] or 1)
        r = int(m["r"] or 0)
        self.residues = frozenset({r % mod, -r % mod} if m["sign"] == "+-"
                                  else {(-r if m["sign"] else r) % mod})
        self.negated = m["op"] == "!="

    def holds(self, p: int) -> bool:
        return (p > self.bound and p != self.excluded
                and (p % self.modulus in self.residues) != self.negated)

    def __str__(self):
        return self.text

    def __repr__(self):
        return f"Condition({self.text!r})"


# ---------------------------------------------------------------------------
# integer polynomials

class IntPolynomial:
    """Dense integer polynomial, coefficients constant-term first.

    Immutable; the coefficient tuple never has a trailing zero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(int(c) for c in cs))

    # refuses assignment and deletion, and pickles, as a Value does
    __setattr__ = Value.__setattr__
    __delattr__ = Value.__delattr__
    __reduce__ = Value.__reduce__

    # -- constructors ------------------------------------------------------

    @classmethod
    def x_pow(cls, k: int, c: int = 1) -> "IntPolynomial":
        return cls([0] * k + [c])

    @classmethod
    def _trusted(cls, coeffs: tuple) -> "IntPolynomial":
        """Wrap a tuple of ints whose last entry is nonzero, unnormalized."""
        f = object.__new__(cls)
        object.__setattr__(f, "coeffs", coeffs)
        return f

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __eq__(self, other):
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPolynomial([self[i] + other[i] for i in range(n)])

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPolynomial([self[i] - other[i] for i in range(n)])

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial([-c for c in self.coeffs])

    def __mul__(self, other) -> "IntPolynomial":
        if isinstance(other, int):
            return IntPolynomial([c * other for c in self.coeffs])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1) if self.coeffs and other.coeffs else []
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "IntPolynomial":
        out = IntPolynomial([1])
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def exact_div(self, other: "IntPolynomial") -> "IntPolynomial":
        """Exact polynomial division over Z; raises if not divisible."""
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        rem = list(self.coeffs)
        dq = self.degree - other.degree
        if dq < 0:
            if self.is_zero():
                return IntPolynomial()
            raise ValueError("not divisible")
        quot = [0] * (dq + 1)
        lead = other.coeffs[-1]
        for k in range(dq, -1, -1):
            c = rem[other.degree + k]
            if c % lead:
                raise ValueError("not divisible over Z")
            q = c // lead
            quot[k] = q
            if q:
                for j, b in enumerate(other.coeffs):
                    rem[j + k] -= q * b
        if any(rem):
            raise ValueError("not divisible (nonzero remainder)")
        return IntPolynomial(quot)

    def __call__(self, x):
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    # -- transforms --------------------------------------------------------

    def reciprocal(self) -> "IntPolynomial":
        """t^deg * f(1/t): coefficients reversed."""
        return IntPolynomial(self.coeffs[::-1])

    def scale_arg(self, c: int) -> "IntPolynomial":
        """f(c*t)."""
        return IntPolynomial([a * c ** i for i, a in enumerate(self.coeffs)])

    def format(self, ascending: bool = False) -> str:
        """The polynomial in t, highest power first, or constant term first
        (the usual zeta convention) when ascending."""
        powers = range(len(self.coeffs)) if ascending else range(self.degree, -1, -1)
        terms = []
        for i in powers:
            a = self.coeffs[i]
            if a == 0:
                continue
            mag = "" if abs(a) == 1 and i else str(abs(a))
            term = mag if i == 0 else f"{mag}t" if i == 1 else f"{mag}t^{i}"
            terms.append(("- " if a < 0 else "+ ") + term)
        if not terms:
            return "0"
        out = " ".join(terms)
        return out[2:] if out[0] == "+" else "-" + out[2:]

    def __str__(self):
        return self.format()

    def __repr__(self):
        return f"IntPolynomial({self})"


ONE = IntPolynomial([1])


# ---------------------------------------------------------------------------
# multiplicative functions

@lru_cache(maxsize=None)
def euler_phi(r: int) -> int:
    if r < 1:
        raise ValueError("euler_phi expects r >= 1")
    out = r
    for p in factorize(r):
        out = out // p * (p - 1)
    return out


@lru_cache(maxsize=None)
def moebius(r: int) -> int:
    if r < 1:
        raise ValueError("moebius expects r >= 1")
    fac = factorize(r)
    if any(e > 1 for e in fac.values()):
        return 0
    return -1 if len(fac) % 2 else 1


@lru_cache(maxsize=None)
def cyclotomic(r: int) -> IntPolynomial:
    """The r-th cyclotomic polynomial, by recursive exact division."""
    if r < 1:
        raise ValueError("cyclotomic expects r >= 1")
    f = IntPolynomial.x_pow(r) - ONE
    for d in divisors(r):
        if d < r:
            f = f.exact_div(cyclotomic(d))
    return f


def mult_order(a: int, m: int) -> int:
    """Least k >= 1 with a^k = 1 mod m."""
    if m < 1:
        raise ValueError("modulus must be positive")
    if gcd(a, m) != 1:
        raise ValueError(f"gcd({a}, {m}) != 1: no multiplicative order")
    if m == 1:
        return 1
    a %= m
    k, x = 1, a
    while x != 1:
        x = x * a % m
        k += 1
    return k


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    a %= p
    if a == 0:
        return 0
    s = pow(a, (p - 1) // 2, p)
    return 1 if s == 1 else -1


def splitting_in_quadratic(p: int, d: int) -> str:
    """Decomposition of a prime p in Q(sqrt(d)): 'split', 'inert' or 'ramified'.

    At p = 2 this is decided by d mod 8, where Legendre is undefined.
    """
    d = squarefree_part(d)
    if d == 1:
        raise ValueError("Q(sqrt(1)) is not a quadratic field")
    if p == 2:
        r = d % 8
        if r == 1:
            return "split"
        if r == 5:
            return "inert"
        return "ramified"
    if d % p == 0:
        return "ramified"
    return "split" if legendre(d, p) == 1 else "inert"


def splitting_in_cyclotomic(p: int, m: int) -> tuple[int, int, int]:
    """(e, f, g) for the primes over p in Q(zeta_m).

    Unramified case p | m excluded: e = 1, f = ord_m(p), g = phi(m)/f.
    If p | m, write m = p^a * m' and e = phi(p^a), f = ord_{m'}(p).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    a = 0
    m1 = m
    while m1 % p == 0:
        m1 //= p
        a += 1
    e = euler_phi(p ** a) if a else 1
    f = mult_order(p, m1)
    g = euler_phi(m1) // f
    return e, f, g


# ---------------------------------------------------------------------------
# Newton polygons

def newton_slopes(f: IntPolynomial, q: PrimePower) -> tuple[Fraction, ...]:
    """Slopes of the p-adic Newton polygon of f, normalized so v(q) = 1.

    Returns one entry per root (with multiplicity), sorted ascending.
    """
    if not f.is_monic():
        raise ValueError("newton_slopes expects a monic polynomial")
    if f[0] == 0:
        raise ValueError("newton_slopes expects a nonzero constant term")
    pts = [(i, valuation(c, q.p)) for i, c in enumerate(f.coeffs) if c != 0]
    hull = _lower_hull(pts)
    out: list[Fraction] = []
    for (i1, v1), (i2, v2) in zip(hull, hull[1:]):
        s = Fraction(v1 - v2, i2 - i1) / q.n
        out.extend([s] * (i2 - i1))
    return tuple(sorted(out))


def _lower_hull(pts: list[tuple[int, int]]) -> list[tuple[int, int]]:
    hull: list[tuple[int, int]] = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull
