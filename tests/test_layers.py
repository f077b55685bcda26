"""The import graph of the package's modules, read statically from every
import statement in src/gkzeta, those inside functions included: it has no
cycle, and groups, the catalog that brauer, kummer and existence read,
imports no layer but numtheory. The same walk reads the other modules each
file imports: none imports functools, since tables are built at import and
no answer is cached per call."""
import ast
import glob
import os
from graphlib import CycleError, TopologicalSorter

import pytest

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "gkzeta")


def _imported(path: str) -> tuple[set, set]:
    """The package modules that the file imports, by name, and the top-level
    names of the other modules it imports."""
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    out, other = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("gkzeta"):
                other.add(node.module.split(".")[0])
                continue
            # from . import a, b / from .a import x / from gkzeta.a import x
            module = (node.module or "").removeprefix("gkzeta").lstrip(".")
            out.update([module.split(".")[0]] if module else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("gkzeta."):
                    out.add(a.name.split(".")[1])
                else:
                    other.add(a.name.split(".")[0])
    return out, other


IMPORTS = {os.path.basename(path)[:-3]: _imported(path)
           for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py")))}
GRAPH = {name: package for name, (package, _) in IMPORTS.items()}


def test_every_import_names_a_module_of_the_package():
    assert set().union(*GRAPH.values()) <= set(GRAPH)


def test_function_level_imports_are_read():
    # cli imports every layer only inside the function that needs it
    assert {"brauer", "existence", "groups", "kummer", "weil"} <= GRAPH["cli"]


def test_the_graph_is_acyclic():
    try:
        tuple(TopologicalSorter(GRAPH).static_order())
    except CycleError as exc:
        pytest.fail(f"import cycle {' -> '.join(exc.args[1])}")


def test_groups_imports_only_numtheory():
    assert GRAPH["groups"] == {"numtheory"}


def test_no_module_imports_functools():
    # a per-call cache (lru_cache, cache) would hold again what a table built
    # at import holds; the walk reads the standard-library imports, cli's
    # function-level json included
    assert {"re", "math", "json"} <= set().union(*(other for _, other in IMPORTS.values()))
    assert [name for name, (_, other) in IMPORTS.items() if "functools" in other] == []
