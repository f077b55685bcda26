"""Exact elementary number theory: primes, prime powers, conditions on a
prime and integer polynomials.

Everything here is pure integer arithmetic; no floats anywhere.
Polynomials are dense coefficient tuples, constant term first, with only the
operations the library computes with. The cyclotomic orders, with their
mu(r), phi(r) and Phi_r, are one table in kummer.
"""
from __future__ import annotations

import re
from collections import namedtuple
from math import gcd, isqrt, prod


# ---------------------------------------------------------------------------
# primes and integer roots

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to all 13 bases (Sorenson-Webster, Math. Comp.
# 86, 2017): below it, the bases decide
_MR_BOUND = 3317044064679887385961981
# the 106 primes below 587, the odd numbers less the odd multiples of each odd
# d < 25 from d^2 on, and 2; their product, a 785-bit primorial, is the
# trial division of is_prime and PrimePower.from_q in one gcd
_SMALL_PRIMES = frozenset(range(3, 587, 2)).difference(
    *(range(d * d, 587, 2 * d) for d in range(3, 25, 2))) | {2}
_PRIMORIAL = prod(_SMALL_PRIMES)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, proven for all n < 3317044064679887385961981
    (about 3.317e24).

    If gcd(n, _PRIMORIAL) > 1, n is prime iff it is one of the primes below
    587; else an n < 587^2 is prime. From 587^2 on, n is tested to the 13
    prime bases 2, 3, 5, ..., 41. A False answer is a proof at any size; at
    or above the bound, an n that passes all 13 bases raises ValueError.
    """
    if n < 2:
        return False
    if gcd(n, _PRIMORIAL) > 1:
        return n in _SMALL_PRIMES
    if n < 344569:  # 587^2
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for a in _MR_BASES:
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


# ---------------------------------------------------------------------------
# value types

class Value(tuple):
    """Base of the library's immutable value types: a value is the tuple of its
    fields, built by one tuple.__new__ call. The one exception is IntPolynomial,
    which is the tuple of its coefficients and has no named fields.

    A subclass names its fields in order in _fields and sets __slots__ = (),
    so that its instances have no __dict__. When the class is created, Value
    takes from a collections.namedtuple of the same fields the C accessor of
    each field, and, for a type that only stores its fields, its __new__:
    like a namedtuple's constructor, it takes each field by position or
    keyword, and every field is required. A type that validates or
    normalizes writes a __new__ that ends in tuple.__new__(cls, (fields...)).
    Instances compare equal only within their class, never to a bare tuple,
    hash as the tuple of their fields, are not ordered, print as
    Name(field=value, ...), and refuse assignment and deletion, so that a
    cached instance is safe to share. (The value types are not dataclasses:
    importing dataclasses takes longer than most CLI calls spend computing.)
    """

    __slots__ = ()

    def __init_subclass__(cls):
        generated = namedtuple(cls.__name__, cls._fields, module=cls.__module__).__dict__
        for f in cls._fields:
            setattr(cls, f, generated[f])
        if "__new__" not in cls.__dict__:
            cls.__new__ = generated["__new__"]

    def __eq__(self, other):
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        return other.__class__ is not self.__class__ or tuple.__ne__(self, other)

    __hash__ = tuple.__hash__

    def __lt__(self, other):
        raise TypeError(f"{self.__class__.__qualname__} values are not ordered")

    __le__ = __gt__ = __ge__ = __lt__

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self))
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple(self)


# ---------------------------------------------------------------------------
# prime powers

class PrimePower(Value):
    """A finite-field size q = p**n."""

    __slots__ = ()
    _fields = ("p", "n")

    def __new__(cls, p: int, n: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if n < 1:
            raise ValueError("exponent must be >= 1")
        return tuple.__new__(cls, (p, n))

    @property
    def q(self) -> int:
        return self.p ** self.n

    @property
    def degree_is_odd(self) -> bool:
        return self.n % 2 == 1

    @classmethod
    def from_q(cls, q: int) -> "PrimePower":
        """q = p^n. One gcd of q with the product of the primes below 587
        tries them all: if it is above 1, q is a prime power iff the gcd is one
        of those primes and q is a power of it. Otherwise every prime factor
        of q is at least 587, and n is found one prime exponent l at a time:
        for l = 2, 3, 5, ... below a ninth of the root's bit length, the root
        (q at first) is replaced by its l-th root while that root is exact.
        q is a prime power iff the last root is prime. That is one integer
        root per prime below log2(q) / 9, plus one per prime factor of n,
        and one is_prime; a root of more than 256 bits is first sieved
        (_is_power_residue), and a last root at or above _MR_BOUND, which
        is_prime cannot prove prime, is refused before any power."""
        if q < 1:
            raise ValueError(f"{q} is not a positive integer")
        p = gcd(q, _PRIMORIAL)
        if p > 1:
            if p in _SMALL_PRIMES:
                root, n = q // p, 1
                while root % p == 0:
                    root, n = root // p, n + 1
                if root == 1:
                    return tuple.__new__(cls, (p, n))
            raise ValueError(f"{q} is not a prime power")
        root, n, l = q, 1, 2
        # an l-th power of an integer of at least 587 > 2^9 has more than 9 l bits
        while 9 * l < root.bit_length():
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
        return tuple.__new__(cls, (root, n))  # root is proven prime: cls() would test it again

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

    Each form is read as p > bound, p != excluded, and accepts[p % modulus],
    a truth table over Z/modulus built once from the residues it names
    (negated for !=), with the parts it does not name always true.
    Immutable, since table rows share their conditions; equal only to itself.
    """

    __slots__ = ("text", "bound", "excluded", "modulus", "accepts")

    def __init__(self, text: str):
        m = _CONDITION.fullmatch(text)
        if m is None:
            raise ValueError(f"{text!r} is not a condition on p")
        mod = int(m["m"] or 1)
        r = int(m["r"] or 0)
        residues = {r % mod, -r % mod} if m["sign"] == "+-" else {(-r if m["sign"] else r) % mod}
        accepts = tuple((i in residues) != (m["op"] == "!=") for i in range(mod))
        values = (text, int(m["gt"] or 0), int(m["ne"] or 0), mod, accepts)
        for field, value in zip(Condition.__slots__, values):
            getattr(Condition, field).__set__(self, value)  # the slot's own setter

    def __setattr__(self, name, value=None):  # also __delattr__: table rows share conditions
        raise AttributeError(f"cannot change field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):  # copies parse the text again
        return Condition, (self.text,)

    def holds(self, p: int) -> bool:
        return p > self.bound and p != self.excluded and self.accepts[p % self.modulus]

    def __str__(self):
        return self.text

    def __repr__(self):
        return f"Condition({self.text!r})"


# ---------------------------------------------------------------------------
# integer polynomials

class IntPolynomial(Value):
    """Dense integer polynomial: the tuple of its coefficients, constant term
    first, with no trailing zero (the zero polynomial is the empty tuple). Its
    entries are not named fields: coeffs is the bare tuple, and p[i] is the
    coefficient of t^i, 0 for every i outside range(len(p)), negative i too.
    Code whose coefficients are ints with a nonzero last one builds it
    unnormalized, by tuple.__new__(IntPolynomial, coeffs).
    """

    __slots__ = ()
    _fields = ()
    coeffs = property(tuple, doc="The coefficients as a bare tuple.")

    def __new__(cls, coeffs):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        return tuple.__new__(cls, map(int, cs))

    def __repr__(self):
        return f"{self.__class__.__qualname__}(coeffs={tuple(self)!r})"

    def __reduce__(self):
        return self.__class__, (tuple(self),)

    @property
    def degree(self) -> int:
        return len(self) - 1

    def is_monic(self) -> bool:
        return self[self.degree] == 1  # the zero polynomial reads 0 at degree -1

    def __getitem__(self, i: int) -> int:
        return tuple.__getitem__(self, i) if 0 <= i < len(self) else 0

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        out = [0] * (len(self) + len(other) - 1) if self and other else []
        for i, a in enumerate(self):
            if a:
                for j, b in enumerate(other):
                    out[i + j] += a * b
        return IntPolynomial(out)

    def format(self, ascending: bool = False) -> str:
        """The polynomial in t, highest power first, or constant term first
        (the usual zeta convention) when ascending."""
        terms = []
        for i, a in enumerate(self):
            if a == 0:
                continue
            mag = "" if abs(a) == 1 and i else str(abs(a))
            term = mag if i == 0 else f"{mag}t" if i == 1 else f"{mag}t^{i}"
            terms.append(("- " if a < 0 else "+ ") + term)
        if not terms:
            return "0"
        out = " ".join(terms if ascending else reversed(terms))
        return out[2:] if out[0] == "+" else "-" + out[2:]

    def __str__(self):
        return self.format()
