"""The contract of the library's value types (subclasses of numtheory.Value):
construction by position and by keyword with every field required, a signature
that lists the fields, equality and hash by class and fields, no assignment or
deletion, literal reprs, copies and pickles, the validation that every
construction runs, and one way to set the fields, each class's compiled _fill."""
import ast
import copy
import glob
import inspect
import os
import pickle

import pytest

import gkzeta
from gkzeta.brauer import CSADescriptor, FieldDesc
from gkzeta.errors import Rejected
from gkzeta.existence import ExistenceVerdict, WeilOption
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
from gkzeta.weil import WeilDescriptor

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
    (GroupFacts, {"group": G.C2, "cyclic_subgroup_orders": frozenset({1, 2}),
                  "stabilizer_tables": ()}, ("group", G.C3)),
    (ExistenceVerdict, {"group": G.C3, "exists_rigid": True, "exists_rigid_symplectic": False,
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
    (ZetaFunction, {"q": PrimePower(3, 1), "denominator": ((IntPolynomial([1, -1]), 1),)},
     ("q", PrimePower(5, 1))),
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
    assert [p.name for p in params] == list(cls.__slots__) == list(fields)
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


# the types that validate or normalize, whose own __init__ ends in self._fill
VALIDATING = {PrimePower, IntPolynomial, FieldDesc, CSADescriptor, ADEType, SingularOrbit,
              NSCharPoly}


def test_generated_constructors_set_the_slots_directly():
    classes = [cls for cls, _, _ in CASES] + [Condition]
    for cls in classes:
        assert cls._fill.__code__.co_filename == f"<{cls.__qualname__}._fill>"
    generated = {cls for cls, _, _ in CASES if cls.__init__ is cls._fill}
    assert generated == {cls for cls, _, _ in CASES} - VALIDATING
    trusted, from_q = IntPolynomial._trusted.__func__, PrimePower.from_q.__func__
    for func in [cls._fill for cls in classes] + [trusted, from_q]:
        assert object.__setattr__ not in func.__globals__.values()
        assert "__setattr__" not in func.__code__.co_names
    values = [cls(**fields) for cls, fields, _ in CASES] + [
        IntPolynomial._trusted((7, 0, 1)), PrimePower.from_q(17 ** 3), Condition("p > 2")]
    for v in values:
        for f in v.__slots__:
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
    assert str(ExistenceVerdict(G.C3, True, None, "c", (), ())) == (
        "ExistenceVerdict(group=<GroupId.C3: 'C3'>, exists_rigid=True, "
        "exists_rigid_symplectic=None, citation='c', conditions=(), weil_options=())")


@parametrize
def test_copy_and_pickle_keep_the_value(cls, fields, change):
    v = cls(**fields)
    assert copy.copy(v) == v
    # by repr: a Condition field compares by identity
    for c in (copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
        assert type(c) is cls and repr(c) == repr(v)


def test_no_module_sets_a_field_through_object():
    """Every field is set by a compiled _fill: no module under src/gkzeta
    reaches object.__setattr__."""
    uses = []
    for path in sorted(glob.glob(os.path.join(os.path.dirname(gkzeta.__file__), "*.py"))):
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read())
        uses += [(os.path.basename(path), n.lineno) for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute) and n.attr == "__setattr__"
                 and isinstance(n.value, ast.Name) and n.value.id == "object"]
    assert uses == []


def test_construction_normalizes():
    q, places = FieldDesc("Q", 0), (("fin", 3, 0), ("inf", 0))
    assert CSADescriptor(q, 2, places).ramified == places[::-1]
    assert CSADescriptor(q, 2, list(places)) == CSADescriptor(q, 2, places)
    assert NSCharPoly(((2, 2), (1, 20))).parts == ((1, 20), (2, 2))
    assert IntPolynomial([1, True, 0, 0]).coeffs == (1, 1)


@pytest.mark.parametrize("make, exc, text", [
    (lambda: PrimePower(4, 1), ValueError, "4 is not prime"),
    (lambda: PrimePower(3, 0), ValueError, "exponent must be >= 1"),
    (lambda: FieldDesc("Q", 2), ValueError, "Q takes no parameter"),
    (lambda: FieldDesc("quad", 4), ValueError, "4 is not a valid squarefree discriminant base"),
    (lambda: FieldDesc("cyc", 6), ValueError, "cyclotomic index 6 is not in canonical form"),
    (lambda: FieldDesc("realcyc", 3), ValueError, "unknown field kind 'realcyc'"),
    (lambda: FieldDesc("R", 0), ValueError, "unknown field kind 'R'"),
    (lambda: CSADescriptor(FieldDesc("Q", 0), 0, ()), ValueError, "degree must be >= 1"),
    # The id keeps the name this case had while Hilbert reciprocity raised its
    # own ReciprocityError; the check now raises ValueError with the same text.
    pytest.param(lambda: CSADescriptor(FieldDesc("Q", 0), 2, (("fin", 3, 0),)), ValueError,
                 "local invariants sum to 1/2, not an integer",
                 id="<lambda>-ReciprocityError-local invariants sum to 1/2, not an integer"),
    (lambda: CSADescriptor(FieldDesc("Q", 0), 2, (("inf", 0), ("inf", 0))), ValueError,
     "duplicate place ('inf', 0)"),
    (lambda: CSADescriptor(FieldDesc("cyc", 3), 2, (("inf", 0), ("fin", 3, 0))), ValueError,
     "center Q(zeta_3) has no real place #0"),
    (lambda: CSADescriptor(FieldDesc("Q", 0), 2, (("inf", 0), ("fin", 9, 0))), ValueError,
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
