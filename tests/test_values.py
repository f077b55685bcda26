"""The contract of the library's value types (subclasses of numtheory.Value,
each a tuple of its fields, except IntPolynomial, the tuple of its
coefficients): construction by position and by keyword with
every field required, a signature that lists the fields, equality and hash by
class and fields (never equal to a bare tuple), no order, no __dict__, no
assignment or deletion, literal reprs, copies and pickles, the validation that
every construction of a validating type runs (and, for the two algebra types,
which store their fields as given, the checks of the builders in oracles.py),
and one way to build a value, tuple.__new__ over its fields, with the
accessors of a collections.namedtuple."""
import ast
import copy
import gc
import glob
import inspect
import os
import pickle
import sys

import pytest

import gkzeta
from gkzeta import cli
from gkzeta.errors import Rejected
from gkzeta.existence import ExistenceVerdict, WeilOption, exists_over_odd_degree
from gkzeta.groups import CSADescriptor, FieldDesc, GroupFacts, GroupId as G, StabilizerTable
from gkzeta.kummer import (
    ADEType,
    NSCharPoly,
    SingularConfig,
    SingularOrbit,
    TraceRow,
    ZetaFunction,
    k3_zeta,
    parse_zeta_notation,
    trace_table,
)
from gkzeta.numtheory import Condition, IntPolynomial, PrimePower, Value
from gkzeta.weil import (
    WeilDescriptor,
    abelian_zeta,
    enumerate_elliptic,
    validate_elliptic,
    validate_surface_simple,
)

from oracles import make_csa, make_field

A1 = ADEType("A", 1)

# (class, fields in order, one field changed to another valid value)
CASES = [
    (PrimePower, {"p": 3, "n": 2}, ("n", 3)),
    (IntPolynomial, {"coeffs": (7, 0, 1)}, ("coeffs", (-7, 0, 1))),
    (FieldDesc, {"kind": "quad", "param": 5}, ("param", -1)),
    (CSADescriptor, {"center": FieldDesc("Q", 0), "degree": 2,
                     "ramified": (("inf", 0), ("fin", 3, 0))},
     ("degree", 4)),
    (StabilizerTable, {"case": "A", "entries": ((G.Q8, 4), (G.C2, 12))}, ("case", "B")),
    (GroupFacts, {"order": 2, "cyclic_subgroup_orders": frozenset({1, 2}),
                  "stabilizer_tables": ()}, ("order", 3)),
    (ExistenceVerdict, {"exists_rigid": True, "exists_rigid_symplectic": False,
                        "citation": "even-degree classification",
                        "conditions": (("any p", True),), "weil_options": ()},
     ("exists_rigid_symplectic", None)),
    (WeilOption, {"shape": "t^4 + q^2", "poly": IntPolynomial([9, 0, 0, 0, 1]),
                  "condition": "any p", "satisfied": True}, ("poly", None)),
    (ADEType, {"kind": "D", "m": 4}, ("m", 5)),
    (SingularOrbit, {"ade": A1, "count": 2, "degree": 2, "graph_action": "trivial"},
     ("degree", 1)),
    (SingularConfig, {"group": G.C2, "case": "",
                      "orbits": (SingularOrbit(A1, 16, 1, "unknown"),)},
     ("case", "A")),
    (NSCharPoly, {"parts": ((1, 20), (2, 2))}, ("parts", ((1, 22),))),
    (ZetaFunction, {"denominator": ((IntPolynomial([1, -1]), 1),)},
     ("denominator", ((IntPolynomial([1, -3]), 1),))),
    (TraceRow, {"trace": 22, "notation": "1^22", "group": G.C2,
                "p_condition": Condition("p > 2"), "weil_shape": "(t +- sqrt(q))^4"},
     ("trace", 20)),
    (WeilDescriptor, {"q": PrimePower(7, 1), "poly": IntPolynomial([7, 0, 1]), "case": "ss-a"},
     ("case", "ss-b")),
]

IDS = [cls.__name__ for cls, _, _ in CASES]
parametrize = pytest.mark.parametrize("cls, fields, change", CASES, ids=IDS)


def test_every_value_type_is_covered():
    def subclasses(c):
        return {c} | {s for d in c.__subclasses__() for s in subclasses(d)}

    assert subclasses(Value) - {Value} == {cls for cls, _, _ in CASES}


@parametrize
def test_construction_by_position_and_keyword(cls, fields, change):
    by_position = cls(*fields.values())
    by_keyword = cls(**fields)
    assert by_position == by_keyword
    assert {f: getattr(by_keyword, f) for f in fields} == fields


@parametrize
def test_construction_needs_exactly_the_fields(cls, fields, change):
    _, *rest = fields
    with pytest.raises(TypeError):
        cls(**{f: fields[f] for f in rest})
    with pytest.raises(TypeError):
        cls(**fields, extra=1)
    with pytest.raises(TypeError):
        cls(*fields.values(), None)


@parametrize
def test_signature_lists_the_fields(cls, fields, change):
    params = inspect.signature(cls).parameters.values()
    assert [p.name for p in params] == list(fields)
    # an IntPolynomial is the tuple of its coefficients, which are not named fields
    assert list(cls._fields) == ([] if cls is IntPolynomial else list(fields))
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    assert all(p.default is p.empty for p in params)


@parametrize
def test_equality_and_hash_by_class_and_fields(cls, fields, change):
    a, b = cls(**fields), cls(**fields)
    assert a == b and not a != b
    other = cls(**{**fields, change[0]: change[1]})
    assert a != other and not a == other
    assert a != tuple(fields.values())
    assert a != object()
    assert hash(a) == hash(b)
    assert len({a, b, other}) == 2


def test_equality_needs_the_same_class():
    assert PrimePower(3, 2) != (3, 2)
    assert (3, 2) != PrimePower(3, 2)
    assert FieldDesc("Q", 0) != StabilizerTable("Q", 0)
    assert IntPolynomial((1, 2)) != (1, 2)
    assert {PrimePower(3, 2): 1}.get((3, 2)) is None
    # an answer, not NotImplemented: the reflected tuple.__eq__ would compare the fields
    assert PrimePower(3, 2).__eq__((3, 2)) is False
    assert PrimePower(3, 2).__ne__((3, 2)) is True


@parametrize
def test_values_are_not_ordered(cls, fields, change):
    a, b = cls(**fields), cls(**{**fields, change[0]: change[1]})
    for other in (b, tuple(b)):
        for less in (lambda: a < other, lambda: a <= other, lambda: a > other,
                     lambda: a >= other, lambda: other < a):
            with pytest.raises(TypeError):
                less()


@parametrize
def test_no_instance_dict(cls, fields, change):
    """A subclass that forgot __slots__ = () would give its values a __dict__."""
    assert "__slots__" in cls.__dict__ and cls.__slots__ == ()
    assert not hasattr(cls(**fields), "__dict__")


@parametrize
def test_no_assignment_or_deletion(cls, fields, change):
    v = cls(**fields)
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(v, f, getattr(v, f))
        with pytest.raises(AttributeError):
            delattr(v, f)
    with pytest.raises(AttributeError):
        v.extra = 1
    assert {f: getattr(v, f) for f in fields} == fields


# the types that validate or normalize, whose own __new__ ends in tuple.__new__
VALIDATING = {PrimePower, IntPolynomial, ADEType, SingularOrbit, NSCharPoly}


def _builds_by_tuple_new(func):
    """func builds its value by tuple.__new__, named as such or bound to a
    global, and never reaches __setattr__."""
    names = func.__code__.co_names
    return "__setattr__" not in names and (("tuple" in names and "__new__" in names) or any(
        func.__globals__.get(n) is tuple.__new__ for n in names))


def test_one_construction_path():
    """Every value is built by one tuple.__new__ over its fields: a type that
    only stores them gets namedtuple's generated __new__, the validating types
    write a __new__ that ends in tuple.__new__, and the trusted paths call it
    directly. No class has an __init__."""
    classes = [cls for cls, _, _ in CASES]
    for cls in classes:
        assert "__new__" in cls.__dict__ and cls.__init__ is object.__init__
    written = {cls for cls in classes if cls.__new__.__code__.co_filename == inspect.getfile(cls)}
    assert written == VALIDATING
    trusted = [PrimePower.from_q.__func__, enumerate_elliptic, validate_elliptic,
               WeilDescriptor.endo.fget, abelian_zeta, exists_over_odd_degree, k3_zeta,
               cli.cmd_exists]
    for func in [cls.__new__ for cls in written] + trusted:
        assert _builds_by_tuple_new(func), func.__qualname__
    q = PrimePower(7, 1)
    assert enumerate_elliptic(q) == [validate_elliptic(q, b) for b in range(-5, 6)]
    assert tuple.__new__(IntPolynomial, (7, 0, 1)) == IntPolynomial((7, 0, 1))
    # the polynomials built unnormalized are the normalized ones
    polys = abelian_zeta(enumerate_elliptic(q)[0]) + [
        o.poly for o in exists_over_odd_degree(G.C3, PrimePower(7, 3)).weil_options if o.poly]
    assert len(polys) > 3 and all(f == IntPolynomial(f) for f in polys)
    assert PrimePower.from_q(17 ** 3) == PrimePower(17, 3)
    values = [cls(**fields) for cls, fields, _ in CASES] + [
        tuple.__new__(IntPolynomial, (7, 0, 1)), PrimePower.from_q(17 ** 3), enumerate_elliptic(q)[0]]
    for v in values:
        if type(v) is IntPolynomial:
            assert tuple(v) == v.coeffs
        else:
            assert tuple(v) == tuple(getattr(v, f) for f in v._fields)
    for v in values + [Condition("p > 2")]:
        for f in ("coeffs",) if type(v) is IntPolynomial else getattr(v, "_fields", v.__slots__):
            with pytest.raises(AttributeError):
                setattr(v, f, getattr(v, f))
            with pytest.raises(AttributeError):
                delattr(v, f)


@parametrize
def test_repr_lists_the_fields(cls, fields, change):
    body = ", ".join(f"{f}={v!r}" for f, v in fields.items())
    assert repr(cls(**fields)) == f"{cls.__name__}({body})"


def test_literal_reprs():
    assert repr(PrimePower(3, 2)) == "PrimePower(p=3, n=2)"
    assert repr(FieldDesc("quad", 5)) == "FieldDesc(kind='quad', param=5)"
    assert repr(IntPolynomial([7, 0, 1, 0])) == "IntPolynomial(coeffs=(7, 0, 1))"
    assert repr(NSCharPoly(((2, 2), (1, 20)))) == "NSCharPoly(parts=((1, 20), (2, 2)))"
    # a type without __str__ prints its repr, as in `--json` output through default=str
    assert str(ExistenceVerdict(True, None, "c", (), ())) == (
        "ExistenceVerdict(exists_rigid=True, exists_rigid_symplectic=None, citation='c', "
        "conditions=(), weil_options=())")


@parametrize
def test_copy_and_pickle_keep_the_value(cls, fields, change):
    v = cls(**fields)
    assert copy.copy(v) == v
    # by repr: a Condition field compares by identity
    for c in (copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
        assert type(c) is cls and repr(c) == repr(v)


def test_no_module_sets_a_field_through_object():
    """A value's fields are set by tuple.__new__ and a Condition's by its
    slots' own setters: no module under src/gkzeta reaches object.__setattr__."""
    uses = []
    for path in sorted(glob.glob(os.path.join(os.path.dirname(gkzeta.__file__), "*.py"))):
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read())
        uses += [(os.path.basename(path), n.lineno) for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute) and n.attr == "__setattr__"
                 and isinstance(n.value, ast.Name) and n.value.id == "object"]
    assert uses == []


def test_no_module_imports_a_private_stdlib_name():
    """Every standard-library name that src/gkzeta imports is public: the
    value types take their accessors from collections.namedtuple, not from a
    private helper such as collections._tuplegetter, which may change between
    Python versions."""
    private = []
    for path in sorted(glob.glob(os.path.join(os.path.dirname(gkzeta.__file__), "*.py"))):
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read())
        for n in ast.walk(tree):
            if isinstance(n, ast.ImportFrom) and n.level == 0:
                modules, names = [n.module], [a.name for a in n.names]
            elif isinstance(n, ast.Import):
                modules, names = [a.name for a in n.names], []
            else:
                continue
            stdlib = [m for m in modules if m.split(".")[0] in sys.stdlib_module_names]
            private += [(os.path.basename(path), n.lineno, name) for m in stdlib
                        for name in m.split(".") + names
                        if name.startswith("_") and not name.startswith("__")]
    assert private == []


def test_construction_normalizes():
    q, places = FieldDesc("Q", 0), (("fin", 3, 0), ("inf", 0))
    assert CSADescriptor(q, 2, places).ramified is places  # stored as given
    assert make_csa(q, 2, places).ramified == places[::-1]
    assert make_csa(q, 2, list(places)) == make_csa(q, 2, places)
    assert NSCharPoly(((2, 2), (1, 20))).parts == ((1, 20), (2, 2))
    assert IntPolynomial([1, True, 0, 0]).coeffs == (1, 1)


def _library_polynomials():
    """Every class of enumerate_elliptic at a prime q and at three prime
    powers, every factor of abelian_zeta over those fields, on each class and
    on some simple surfaces, and every factor of k3_zeta on each trace row."""
    for q in (99991, 2 ** 16, 3 ** 10, 313 ** 2):
        pp = PrimePower.from_q(q)
        classes = enumerate_elliptic(pp)
        for a1 in range(-3, 4):
            for a2 in range(-3, 4):
                try:
                    classes.append(validate_surface_simple(pp, a1, a2))
                except Rejected:
                    pass
        assert any(w.dim == 2 for w in classes)
        for w in classes:
            yield w.poly
            yield from abelian_zeta(w)
        for row in trace_table("even") + trace_table("odd"):
            yield from (f for f, _ in k3_zeta(pp, parse_zeta_notation(row.notation)).denominator)


def test_a_polynomial_holds_its_coefficients_directly():
    """Each polynomial the library builds is one tracked object: besides its
    class, it refers to its coefficient ints and to no inner tuple."""
    for poly in _library_polynomials():
        assert type(poly) is IntPolynomial
        held = [r for r in gc.get_referents(poly) if r is not IntPolynomial]
        assert all(type(r) is int for r in held), poly
        assert sorted(held, key=id) == sorted(poly.coeffs, key=id)


@pytest.mark.parametrize("coeffs, at", [
    ((7, 0, 1), [0, 0, 0, 7, 0, 1, 0, 0, 0, 0]),
    ((1, -1), [0, 0, 0, 1, -1, 0, 0, 0, 0, 0]),
    ((10 ** 30, 3, -2, 0, 1), [0, 0, 0, 10 ** 30, 3, -2, 0, 1, 0, 0]),
    ((), [0] * 10),
])
def test_polynomial_value_semantics(coeffs, at):
    P = IntPolynomial(coeffs)
    assert type(P.coeffs) is tuple and P.coeffs == coeffs
    assert hash(P) == hash(P.coeffs)
    assert P != P.coeffs and P.coeffs != P and not P == P.coeffs and not P.coeffs == P
    assert repr(P) == f"IntPolynomial(coeffs={coeffs!r})"
    for c in (copy.copy(P), copy.deepcopy(P), pickle.loads(pickle.dumps(P))):
        assert type(c) is IntPolynomial and c == P and repr(c) == repr(P)
    with pytest.raises(AttributeError):
        P.coeffs = coeffs
    with pytest.raises(AttributeError):
        del P.coeffs
    # p[i] is the coefficient of t^i, and 0 outside range(len(p)), negative i included
    assert [P[i] for i in range(-3, 7)] == at


def test_zero_polynomial():
    zero, t = IntPolynomial([]), IntPolynomial([0, 1])
    assert zero == IntPolynomial([0, 0]) and zero.coeffs == ()
    assert str(zero) == "0" and zero.format(ascending=True) == "0"
    assert zero.degree == -1 and not zero.is_monic()
    assert zero * t == zero and t * zero == zero


@pytest.mark.parametrize("make, exc, text", [
    (lambda: PrimePower(4, 1), ValueError, "4 is not prime"),
    (lambda: PrimePower(3, 0), ValueError, "exponent must be >= 1"),
    (lambda: make_field("Q", 2), ValueError, "Q takes no parameter"),
    (lambda: make_field("quad", 4), ValueError, "4 is not a valid squarefree discriminant base"),
    (lambda: make_field("cyc", 6), ValueError, "cyclotomic index 6 is not in canonical form"),
    (lambda: make_field("realcyc", 3), ValueError, "unknown field kind 'realcyc'"),
    (lambda: make_field("R", 0), ValueError, "unknown field kind 'R'"),
    (lambda: make_csa(make_field("Q", 0), 0, ()), ValueError, "degree must be >= 1"),
    # The id keeps the name this case had while Hilbert reciprocity raised its
    # own ReciprocityError; the check now raises ValueError with the same text.
    pytest.param(lambda: make_csa(make_field("Q", 0), 2, (("fin", 3, 0),)), ValueError,
                 "local invariants sum to 1/2, not an integer",
                 id="<lambda>-ReciprocityError-local invariants sum to 1/2, not an integer"),
    (lambda: make_csa(make_field("Q", 0), 2, (("inf", 0), ("inf", 0))), ValueError,
     "duplicate place ('inf', 0)"),
    (lambda: make_csa(make_field("cyc", 3), 2, (("inf", 0), ("fin", 3, 0))), ValueError,
     "center Q(zeta_3) has no real place #0"),
    (lambda: make_csa(make_field("Q", 0), 2, (("inf", 0), ("fin", 9, 0))), ValueError,
     "9 is not prime"),
    (lambda: ADEType("D", 3), ValueError, "invalid ADE type D3"),
    (lambda: ADEType("E", 9), ValueError, "invalid ADE type E9"),
    (lambda: SingularOrbit(A1, 3, 2, "trivial"), ValueError,
     "orbit degree must divide the point count"),
    (lambda: SingularOrbit(A1, 1, 1, "flip"), ValueError, "bad graph action 'flip'"),
    (lambda: NSCharPoly(((1, 21),)), Rejected, "total degree 21 != 22"),
    (lambda: NSCharPoly(((1, 21), (2, 1), (1, 21))), Rejected, "order 1 repeated in notation"),
    (lambda: NSCharPoly(((3, 21), (1, 1))), Rejected,
     "degree 21 at order 3 is not a multiple of phi(3)"),
])
def test_validation_on_every_construction(make, exc, text):
    with pytest.raises(exc) as info:
        make()
    assert str(info.value) == text
