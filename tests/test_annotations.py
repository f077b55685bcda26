"""Every annotation in gkzeta resolves.

A module that loads a layer only inside a function must not name that layer
in an annotation: with `from __future__ import annotations` the text is kept
unevaluated, and only `typing.get_type_hints` finds that the name is unbound.
"""
import importlib
import inspect
import pkgutil
import typing

import pytest

import gkzeta

MODULES = sorted(f"gkzeta.{m.name}" for m in pkgutil.iter_modules(gkzeta.__path__))


def _annotated(module):
    """Each function, method and property defined in module, by name."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if isinstance(member, property):
                    funcs = (member.fget, member.fset, member.fdel)
                else:
                    funcs = (getattr(member, "__func__", member),)
                for f in funcs:
                    if inspect.isfunction(f) and f.__module__ == module.__name__:
                        yield f"{name}.{attr}", f
        elif callable(obj):
            yield name, obj


def test_every_module_is_covered():
    assert MODULES == [f"gkzeta.{m}" for m in (
        "brauer", "cli", "errors", "existence", "groups", "kummer", "numtheory", "weil")]


@pytest.mark.parametrize("name", MODULES)
def test_every_annotation_resolves(name):
    module = importlib.import_module(name)
    found = dict(_annotated(module))
    assert found
    failures = []
    for qualname, f in found.items():
        try:
            typing.get_type_hints(f)
        except NameError as exc:  # a layer loaded only on call
            failures.append(f"{qualname}: {exc!r}")
    assert failures == []
