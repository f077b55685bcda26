"""Cold start of the CLI, each check but the last in a fresh interpreter.

The import-graph guard keeps `import gkzeta.cli` light: it loads neither
dataclasses, inspect, fractions nor json, and no layer besides errors and
numtheory; each subcommand then loads only the layers it uses, and neither
dataclasses, inspect nor fractions (the value types' constructors are
compiled without the first two; groups' two algebra types store an algebra's
table row as given, its ramified places each with invariant 1/2, and weil prints
its slopes as text, so no Fraction is built), and json only for --json. The smoke test runs one
golden argv per subcommand through `python -m gkzeta.cli`, which catches
import-order and circular-import faults that the in-process golden replay,
with every layer already imported, cannot see. A reader that closes the
pipe early ends the call quietly. Last, in-process: the one subparser that
main builds for a call prints the same help as in the parser of every
command.
"""
import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")
LAYERS = ("brauer", "existence", "groups", "kummer", "weil")


def environment():
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path, COLUMNS="80")


def python(*args):
    return subprocess.run([sys.executable, *args], env=environment(), capture_output=True,
                          timeout=60)


# prints the modules that importing gkzeta.cli adds, then those that main(argv)
# adds; json is imported only after both are taken
PROBE = """
import contextlib, io, sys
before = set(sys.modules)
from gkzeta.cli import main
imported = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
loaded = set(sys.modules) - imported
import json
print(json.dumps([code, sorted(imported - before), sorted(loaded)]))
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
    assert "json" not in imported
    assert sorted(m for m in imported if m.startswith("gkzeta.")) == [
        "gkzeta.cli", "gkzeta.errors", "gkzeta.numtheory"]


@pytest.mark.parametrize("as_json", (False, True), ids=("plain", "json"))
def test_only_json_output_loads_json(as_json):
    code, _, loaded = probe("exists", "--group", "C8", "--p", "7", *["--json"] * as_json)
    assert code == 0
    assert ("json" in loaded) == as_json


# an argv per subcommand, and the layers it loads
LOADS = (
    (["weil-list", "--q", "7"], ["weil"]),
    (["weil-check", "--q", "7", "--a1", "1", "--a2", "3"], ["weil"]),
    (["sing-config", "--group", "Q8"], ["groups", "kummer"]),
    (["exists", "--group", "C8", "--p", "7"], ["existence", "groups"]),
    (["embed-check", "--group", "C8", "--p", "7"], ["brauer", "groups"]),
    (["tables", "--which", "rigidalg"], ["groups"]),
    (["selftest"], ["brauer", "existence", "groups", "kummer"]),
)

# the other branches of zeta-assemble and tables, named by their whole argv
BRANCH_LOADS = (
    (["zeta-assemble", "--q", "9", "--notation", "1^20,2^2"], ["groups", "kummer"]),
    (["zeta-assemble", "--q", "3", "--group", "Q8", "--orbit", "D4,2,1,trivial",
      "--orbit", "A3,3,1,trivial", "--orbit", "A1,2,1,trivial"], ["groups", "kummer"]),
    (["tables", "--which", "sing"], ["groups", "kummer"]),
    (["tables", "--which", "sszeta1"], ["groups", "kummer"]),
    (["tables", "--which", "sszeta2", "--p", "3"], ["groups", "kummer"]),
    (["tables", "--which", "alginj", "--p", "7"], ["brauer", "groups"]),
)


@pytest.mark.parametrize("argv, layers", LOADS + BRANCH_LOADS,
                         ids=[argv[0] for argv, _ in LOADS]
                         + [" ".join(argv) for argv, _ in BRANCH_LOADS])
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


def test_closed_pipe_ends_quietly():
    """A reader that closes the pipe early, as `| head -1` does, ends the call
    with exit 0 and nothing on stderr: weil-list at q = 9999991 writes about
    0.8 MB, more than a pipe holds, so it is still writing when the pipe closes."""
    with subprocess.Popen([sys.executable, "-m", "gkzeta.cli", "weil-list", "--q", "9999991"],
                          env=environment(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as done:
        assert done.stdout.readline() == b"isogeny classes of elliptic curves over F_9999991:\n"
        done.stdout.close()
        _, err = done.communicate(timeout=60)
    assert (done.returncode, err) == (0, b"")


COMMANDS = ("weil-list", "weil-check", "embed-check", "exists", "sing-config",
            "zeta-assemble", "tables", "selftest")


def command_help(parser, command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
        parser.parse_args([command, "--help"])
    return out.getvalue()


@pytest.mark.parametrize("command", COMMANDS)
def test_one_subparser_helps_as_the_full_parser(command, monkeypatch):
    """main builds only the subparser its argv names: it reads as the same
    subparser of the parser of every command."""
    from gkzeta.cli import build_parser

    monkeypatch.setenv("COLUMNS", "80")
    assert command_help(build_parser(command), command) == command_help(build_parser(), command)

