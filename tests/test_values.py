"""The contract of the library's value types (subclasses of numtheory.Value):
construction by position and by keyword with defaults, equality and hash by
class and fields, no assignment or deletion, literal reprs, copies and
pickles, and the validation that every construction runs."""
import copy
import pickle
from fractions import Fraction

import pytest

from gkzeta.brauer import CSADescriptor, FieldDesc, ReciprocityError
from gkzeta.errors import Rejected
from gkzeta.existence import ExistenceVerdict, Finding, WeilOption
from gkzeta.groups import GroupFacts, GroupId as G, StabilizerTable
from gkzeta.kummer import (
    ADEType,
    NSCharPoly,
    SingularConfig,
    SingularOrbit,
    TraceRow,
    ZetaFunction,
)
from gkzeta.numtheory import Condition, IntPolynomial, PrimePower, Value
from gkzeta.weil import EndoDescriptor, NewtonType, WeilDescriptor

HALF = Fraction(1, 2)
A1 = ADEType("A", 1)

# (class, fields in order, one field changed to another valid value)
CASES = [
    (PrimePower, {"p": 3, "n": 2}, ("n", 3)),
    (FieldDesc, {"kind": "quad", "param": 5}, ("param", -1)),
    (CSADescriptor, {"center": FieldDesc("Q"), "degree": 2,
                     "invariants": ((("inf", 0), HALF), (("fin", 3, 0), HALF))},
     ("degree", 4)),
    (StabilizerTable, {"case": "A", "entries": ((G.Q8, 4), (G.C2, 12))}, ("case", "B")),
    (GroupFacts, {"group": G.C2, "order": 2, "cyclic_subgroup_orders": frozenset({1, 2}),
                  "sylow_counts": {2: 1}, "stabilizer_tables": ()}, ("order", 3)),
    (Finding, {"value": True, "citation": "even-degree classification"}, ("value", None)),
    (ExistenceVerdict, {"group": G.C3, "rigid": Finding(True, "c"),
                        "symplectic": Finding(False, "c"),
                        "conditions": (("any p", True),), "weil_options": ()},
     ("group", G.C4)),
    (WeilOption, {"shape": "t^4 + q^2", "poly": IntPolynomial([9, 0, 0, 0, 1]),
                  "condition": "any p", "satisfied": True}, ("poly", None)),
    (ADEType, {"kind": "D", "m": 4}, ("m", 5)),
    (SingularOrbit, {"ade": A1, "count": 2, "degree": 2, "graph_action": "trivial"},
     ("degree", 1)),
    (SingularConfig, {"group": G.C2, "case": "", "orbits": (SingularOrbit(A1, 16),)},
     ("case", "A")),
    (NSCharPoly, {"parts": ((1, 20), (2, 2))}, ("parts", ((1, 22),))),
    (ZetaFunction, {"q": PrimePower(3, 1), "denominator": ((IntPolynomial([1, -1]), 1),)},
     ("q", PrimePower(5, 1))),
    (TraceRow, {"trace": 22, "notation": "1^22", "group": G.C2,
                "p_condition": Condition("p > 2"), "weil_shape": "(t +- sqrt(q))^4"},
     ("trace", 20)),
    (EndoDescriptor, {"kind": "field", "detail": "Q[t]/(t^2 + 7)"}, ("detail", "")),
    (WeilDescriptor, {"q": PrimePower(7, 1), "dim": 1, "poly": IntPolynomial([7, 0, 1]),
                      "e": 1, "newton": NewtonType.SUPERSINGULAR,
                      "endo": EndoDescriptor("field", "Q[t]/(t^2 + 7)"), "case": "ss-a"},
     ("e", 2)),
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
def test_equality_and_hash_by_class_and_fields(cls, fields, change):
    a, b = cls(**fields), cls(**fields)
    assert a == b and not a != b
    other = cls(**{**fields, change[0]: change[1]})
    assert a != other and not a == other
    assert a != tuple(fields.values())
    assert a != object()
    if cls is GroupFacts:  # sylow_counts is a dict, as in a frozen dataclass
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b, other}) == 2


def test_equality_needs_the_same_class():
    assert PrimePower(3, 2) != (3, 2)
    assert (3, 2) != PrimePower(3, 2)
    assert Finding("field", "") != EndoDescriptor("field", "")
    assert {PrimePower(3, 2): 1}.get((3, 2)) is None


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


@parametrize
def test_repr_lists_the_fields(cls, fields, change):
    body = ", ".join(f"{f}={v!r}" for f, v in fields.items())
    assert repr(cls(**fields)) == f"{cls.__name__}({body})"


def test_literal_reprs():
    assert repr(PrimePower(3, 2)) == "PrimePower(p=3, n=2)"
    assert repr(FieldDesc("quad", 5)) == "FieldDesc(kind='quad', param=5)"
    assert repr(Finding(None, "x")) == "Finding(value=None, citation='x')"
    assert repr(NSCharPoly({2: 2, 1: 20})) == "NSCharPoly(parts=((1, 20), (2, 2)))"
    assert repr(EndoDescriptor("field")) == "EndoDescriptor(kind='field', detail='')"
    # a type without __str__ prints its repr, as in `--json` output through default=str
    assert str(ExistenceVerdict(G.C3, Finding(True, "c"), Finding(True, "c"), ())) == (
        "ExistenceVerdict(group=<GroupId.C3: 'C3'>, rigid=Finding(value=True, citation='c'), "
        "symplectic=Finding(value=True, citation='c'), conditions=(), weil_options=())")


@parametrize
def test_copy_and_pickle_keep_the_value(cls, fields, change):
    v = cls(**fields)
    assert copy.copy(v) == v
    # by repr: a Condition field compares by identity
    for c in (copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
        assert type(c) is cls and repr(c) == repr(v)


def test_defaults():
    assert FieldDesc("Q") == FieldDesc("Q", 0)
    assert CSADescriptor(FieldDesc("Q"), 1).invariants == ()
    assert ExistenceVerdict(G.C3, Finding(True, "c"), Finding(True, "c"), ()).weil_options == ()
    o = SingularOrbit(A1)
    assert (o.count, o.degree, o.graph_action) == (1, 1, "unknown")
    assert EndoDescriptor("field").detail == ""


def test_construction_normalizes():
    inv = ((("fin", 3, 0), HALF), (("inf", 0), HALF))
    assert CSADescriptor(FieldDesc("Q"), 2, inv).invariants == inv[::-1]
    assert CSADescriptor(FieldDesc("Q"), 2, list(inv)) == CSADescriptor(FieldDesc("Q"), 2, inv)
    assert NSCharPoly(((2, 2), (1, 20))).parts == ((1, 20), (2, 2))


@pytest.mark.parametrize("make, exc, text", [
    (lambda: PrimePower(4, 1), ValueError, "4 is not prime"),
    (lambda: PrimePower(3, 0), ValueError, "exponent must be >= 1"),
    (lambda: FieldDesc("Q", 2), ValueError, "Q takes no parameter"),
    (lambda: FieldDesc("quad", 4), ValueError, "4 is not a valid squarefree discriminant base"),
    (lambda: FieldDesc("cyc", 6), ValueError, "cyclotomic index 6 is not in canonical form"),
    (lambda: FieldDesc("realcyc", 3), ValueError, "unknown field kind 'realcyc'"),
    (lambda: FieldDesc("R"), ValueError, "unknown field kind 'R'"),
    (lambda: CSADescriptor(FieldDesc("Q"), 0), ValueError, "degree must be >= 1"),
    (lambda: CSADescriptor(FieldDesc("Q"), 2, ((("fin", 3, 0), HALF),)), ReciprocityError,
     "local invariants sum to 1/2, not an integer"),
    (lambda: ADEType("D", 3), ValueError, "invalid ADE type D3"),
    (lambda: ADEType("E", 9), ValueError, "invalid ADE type E9"),
    (lambda: SingularOrbit(A1, 3, 2), ValueError, "orbit degree must divide the point count"),
    (lambda: SingularOrbit(A1, graph_action="flip"), ValueError, "bad graph action 'flip'"),
    (lambda: NSCharPoly(((1, 21),)), Rejected, "total degree 21 != 22"),
    (lambda: NSCharPoly(((3, 21), (1, 1))), Rejected,
     "degree 21 at order 3 is not a multiple of phi(3)"),
])
def test_validation_on_every_construction(make, exc, text):
    with pytest.raises(exc) as info:
        make()
    assert str(info.value) == text
