"""Cold start of the CLI, each check in a fresh interpreter.

The import-graph guard keeps `import gkzeta.cli` light: it loads neither
dataclasses, inspect nor fractions, and no layer besides errors and
numtheory; each subcommand then loads only the layers it uses, and neither
dataclasses, inspect nor fractions (the value types' constructors are
compiled without the first two; brauer stores an algebra by its ramified
places, each with invariant 1/2, and weil prints its slopes as text, so no
Fraction is built). The smoke test runs one
golden argv per subcommand through `python -m gkzeta.cli`, which catches
import-order and circular-import faults that the in-process golden replay,
with every layer already imported, cannot see.
"""
import json
import os
import subprocess
import sys

import pytest

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")
LAYERS = ("brauer", "existence", "groups", "kummer", "weil")


def python(*args):
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path, COLUMNS="80")
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=60)


# prints the modules that importing gkzeta.cli adds, then those that main(argv) adds
PROBE = """
import contextlib, io, json, sys
before = set(sys.modules)
from gkzeta.cli import main
imported = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(imported - before), sorted(set(sys.modules) - imported)]))
"""


def probe(*argv):
    done = python("-c", PROBE, *argv)
    assert done.returncode == 0, done.stderr.decode()
    return json.loads(done.stdout)


def test_import_loads_no_dataclasses_and_no_layer():
    _, imported, _ = probe("weil-list", "--q", "7")
    assert "dataclasses" not in imported
    assert "inspect" not in imported
    assert "fractions" not in imported
    assert sorted(m for m in imported if m.startswith("gkzeta.")) == [
        "gkzeta.cli", "gkzeta.errors", "gkzeta.numtheory"]


# an argv per subcommand, and the layers it loads
LOADS = (
    (["weil-list", "--q", "7"], ["weil"]),
    (["weil-check", "--q", "7", "--a1", "1", "--a2", "3"], ["weil"]),
    (["sing-config", "--group", "Q8"], ["groups", "kummer"]),
    (["exists", "--group", "C8", "--p", "7"], ["existence", "groups"]),
    (["embed-check", "--group", "C8", "--p", "7"], ["brauer", "groups"]),
    (["tables", "--which", "rigidalg"], ["brauer", "groups"]),
    (["selftest"], ["brauer", "existence", "groups", "kummer"]),
)


@pytest.mark.parametrize("argv, layers", LOADS, ids=[argv[0] for argv, _ in LOADS])
def test_subcommand_loads_only_its_layers(argv, layers):
    code, imported, loaded = probe(*argv)
    assert code == 0
    assert [m for m in LAYERS if f"gkzeta.{m}" in loaded] == layers
    assert "dataclasses" not in loaded
    assert "inspect" not in loaded
    assert "fractions" not in imported + loaded


with open(os.path.join(TESTS, "golden_cli.json"), encoding="utf-8") as f:
    GOLDEN = {tuple(r["argv"]): r for r in json.load(f)}

SMOKE = (
    ["weil-list", "--q", "9"],
    ["weil-check", "--q", "7", "--a1", "0", "--a2", "7", "--json"],
    ["embed-check", "--group", "C8", "--p", "7"],
    ["exists", "--group", "Q8", "--q", "343", "--parity", "odd", "--json"],
    ["sing-config", "--group", "Q8"],
    ["zeta-assemble", "--q", "3", "--group", "Q8", "--eps", "-1",
     "--orbit", "D4,2,1,trivial", "--orbit", "A3,3,1,trivial", "--orbit", "A1,2,1,trivial"],
    ["tables", "--which", "alginj", "--p", "7"],
    ["selftest"],
)


@pytest.mark.parametrize("argv", SMOKE, ids=lambda argv: argv[0])
def test_fresh_process_matches_golden(argv):
    record = GOLDEN[tuple(argv)]
    done = python("-m", "gkzeta.cli", *argv)
    assert (done.returncode, done.stdout, done.stderr) == (
        record["code"], record["stdout"].encode(), record["stderr"].encode())
