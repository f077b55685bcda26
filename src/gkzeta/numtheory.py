"""Exact elementary number theory: prime powers, conditions on a prime,
integer polynomials and cyclotomic polynomials.

Everything here is pure integer arithmetic; no floats anywhere.
Polynomials are dense coefficient tuples, constant term first, with only the
operations the library computes with; Phi_r needs no polynomial division.
"""
from __future__ import annotations

import re
from bisect import bisect_right
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
_TRIAL = (2, 3, 5, 7, 11, 13)


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
    if gcd(n, 30030) > 1:  # 30030 = 2 * 3 * 5 * 7 * 11 * 13, the primes of _TRIAL
        return n in _TRIAL
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    # n > 13 here, so every base used is below n
    for a in _MR_BASES[:bisect_right(_PSI, n) + 1]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
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

    A subclass names its fields in order in __slots__. When the class is
    created, Value compiles from __slots__ the one function that sets them,
    cls._fill(self, *fields): like a namedtuple's constructor, it takes each
    field by position or keyword, and every field is required. A type that
    only stores its fields has _fill as its __init__; one that validates or
    normalizes writes an __init__ that ends in self._fill(...). Instances
    compare equal only within their class, hash by their fields, print as
    Name(field=value, ...), and refuse assignment and deletion, so that a
    cached instance is safe to share. (The value types are not dataclasses:
    importing dataclasses takes longer than most CLI calls spend computing.)
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls.__slots__)
        cls._fill = _constructor(cls)
        if "__init__" not in cls.__dict__:
            cls.__init__ = cls._fill

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


def _constructor(cls):
    """The _fill(self, *fields) that sets each slot of cls from the argument
    of the same name, compiled so that it costs one call and no loop. Each
    field is set by its slot's own __set__, bound once as a global of the
    function, so that no call looks the setter up on the class. Its file
    name, <Class._fill>, tells the classes apart in profiles."""
    fields = cls.__slots__
    body = "".join(f"\n _set_{f}(self, {f})" for f in fields)
    namespace = {f"_set_{f}": getattr(cls, f).__set__ for f in fields}
    source = f"def _fill(self, {', '.join(fields)}):{body}"
    exec(compile(source, f"<{cls.__qualname__}._fill>", "exec"), namespace)
    fill = namespace["_fill"]
    fill.__qualname__ = f"{cls.__qualname__}._fill"
    return fill


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
        self._fill(p, n)

    @property
    def q(self) -> int:
        return self.p ** self.n

    @property
    def degree_is_odd(self) -> bool:
        return self.n % 2 == 1

    @classmethod
    def from_q(cls, q: int) -> "PrimePower":
        """q = p^n. If a prime of _TRIAL divides q, q is a prime power iff
        it is a power of that prime. Otherwise every prime factor of q is at
        least 17, and n is found one prime exponent l at a time: for
        l = 2, 3, 5, ... below a quarter of the root's bit length, the root
        (q at first) is replaced by its l-th root while that root is exact.
        q is a prime power iff the last root is prime. That is one integer
        root per prime below log2(q) / 4, plus one per prime factor of n,
        and one is_prime; a root of more than 256 bits is first sieved
        (_is_power_residue), and a last root at or above _MR_BOUND, which
        is_prime cannot prove prime, is refused before any power."""
        if q < 1:
            raise ValueError(f"{q} is not a positive integer")
        for p in _TRIAL:
            if q % p == 0:
                root, n = q // p, 1
                while root % p == 0:
                    root, n = root // p, n + 1
                if root == 1:
                    return cls(p, n)
                raise ValueError(f"{q} is not a prime power")
        root, n, l = q, 1, 2
        # an l-th power of an integer of at least 17 has more than 4 l bits
        while 4 * l < root.bit_length():
            if root.bit_length() <= 256 or _is_power_residue(root, l):
                r = iroot(root, l)
                if r ** l == root:
                    root, n = r, n * l
                    continue
            l += 1 if l == 2 else 2
            while not is_prime(l):
                l += 2
        if root >= _MR_BOUND:
            raise ValueError(f"{q} is not a prime power p^n with p < {_MR_BOUND}")
        if not is_prime(root):
            raise ValueError(f"{q} is not a prime power")
        pp = object.__new__(cls)  # root is proven prime: __init__ would test it again
        pp._fill(root, n)
        return pp

    def __str__(self):
        return f"{self.p}^{self.n}" if self.n > 1 else str(self.p)


def _is_power_residue(x: int, l: int) -> bool:
    """False when x is proven not to be an l-th power, l prime: for four
    primes m = 1 mod l, an l-th power is 0 mod m or has x^((m - 1)/l) = 1
    mod m (Bach-Sorenson, Algorithmica 9, 1993). A non-power passes each m
    with chance about 1/l."""
    tested, m = 0, 2 * l + 1
    while tested < 4:
        if is_prime(m):
            if x % m and pow(x, (m - 1) // l, m) != 1:
                return False
            tested += 1
        m += 2 * l
    return True


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
    Immutable, since table rows share their conditions; equal only to itself.
    """

    __slots__ = ("text", "bound", "excluded", "modulus", "residues", "negated")

    def __init__(self, text: str):
        m = _CONDITION.fullmatch(text)
        if m is None:
            raise ValueError(f"{text!r} is not a condition on p")
        mod = int(m["m"] or 1)
        r = int(m["r"] or 0)
        residues = {r % mod, -r % mod} if m["sign"] == "+-" else {(-r if m["sign"] else r) % mod}
        self._fill(text=text, bound=int(m["gt"] or 0), excluded=int(m["ne"] or 0),
                   modulus=mod, residues=frozenset(residues), negated=m["op"] == "!=")

    # refuses assignment and deletion as a Value does; copies parse the text again
    __setattr__ = Value.__setattr__
    __delattr__ = Value.__delattr__

    def __reduce__(self):
        return Condition, (self.text,)

    def holds(self, p: int) -> bool:
        return (p > self.bound and p != self.excluded
                and (p % self.modulus in self.residues) != self.negated)

    def __str__(self):
        return self.text

    def __repr__(self):
        return f"Condition({self.text!r})"


Condition._fill = _constructor(Condition)


# ---------------------------------------------------------------------------
# integer polynomials

class IntPolynomial(Value):
    """Dense integer polynomial, coefficients constant-term first.

    The coefficient tuple never has a trailing zero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self._fill(tuple(int(c) for c in cs))

    # -- constructors ------------------------------------------------------

    @classmethod
    def _trusted(cls, coeffs: tuple) -> "IntPolynomial":
        """Wrap a tuple of ints whose last entry is nonzero, unnormalized."""
        f = object.__new__(cls)
        f._fill(coeffs)
        return f

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1) if self.coeffs and other.coeffs else []
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(out)

    # -- printing ----------------------------------------------------------

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
    """The r-th cyclotomic polynomial. For r > 1, Phi_r is the product of the
    (1 - t^d)^mu(r/d), d | r, as a power series cut at degree phi(r): one pass
    over the coefficients per d (Arnold-Monagan, Math. Comp. 80, 2011)."""
    if r < 1:
        raise ValueError("cyclotomic expects r >= 1")
    if r == 1:
        return IntPolynomial._trusted((-1, 1))
    n = euler_phi(r)
    c = [1] + [0] * n
    for d in divisors(r):
        mu = moebius(r // d)
        if mu == 1:  # times (1 - t^d)
            for i in range(n, d - 1, -1):
                c[i] -= c[i - d]
        elif mu == -1:  # divided by (1 - t^d), i.e. times 1 + t^d + t^2d + ...
            for i in range(d, n + 1):
                c[i] += c[i - d]
    return IntPolynomial._trusted(tuple(c))
