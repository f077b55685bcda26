"""Golden snapshot of the CLI: exit code, stdout and stderr of fixed argv,
replayed in-process through `cli.main` and compared byte for byte.

Regenerate the snapshot (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden_cli.py

which prints to stderr each record whose exit code, stdout or stderr changed,
with the parts that changed, and the number of records appended.
"""
import contextlib
import io
import json
import os
import sys

import pytest

SNAPSHOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cli.json")

PRIMES = (3, 5, 7, 11, 13)
CONFIG_GROUPS = ("C2", "C3", "C4", "C5", "C6", "C8", "C10", "C12",
                 "Q8", "Q12", "Q16", "Q20", "Q24", "SL2F3", "ESL2F3", "SL2F5")

README = (
    ["weil-list", "--q", "9"],
    ["weil-check", "--q", "7", "--b", "3"],
    ["weil-check", "--q", "7", "--a1", "0", "--a2", "7"],
    ["weil-check", "--q", "3", "--square=-3,0,1"],
    ["embed-check", "--group", "C8", "--p", "7"],
    ["exists", "--group", "SL2F5", "--p", "3", "--parity", "even"],
    ["exists", "--group", "Q8", "--q", "343", "--parity", "odd"],
    ["exists", "--group", "C8", "--q", "9", "--refine"],
    ["sing-config", "--group", "Q8"],
    ["zeta-assemble", "--q", "3", "--group", "Q8", "--eps", "-1",
     "--orbit", "D4,2,1,trivial", "--orbit", "A3,3,1,trivial", "--orbit", "A1,2,1,trivial"],
    ["zeta-assemble", "--q", "9", "--notation", "1^20,2^2"],
    ["tables", "--which", "sing"],
    ["tables", "--which", "sszeta2", "--p", "3"],
    ["tables", "--which", "alginj", "--p", "7"],
    ["selftest"],
)

TABLES = tuple(["tables", "--which", w, "--p", str(p)]
               for w in ("sing", "sszeta1", "sszeta2", "rigidalg", "alginj")
               for p in (2,) + PRIMES)

EXISTS = tuple(argv for p in PRIMES for g in CONFIG_GROUPS for argv in (
    ["exists", "--group", g, "--p", str(p), "--parity", "even"],
    ["exists", "--group", g, "--p", str(p), "--parity", "prime"],
    ["exists", "--group", g, "--q", str(p ** 3), "--parity", "odd"],
    ["exists", "--group", g, "--q", str(p ** 2), "--refine"],
    ["exists", "--group", g, "--q", str(p ** 3), "--refine"],
))

# the rejected argv of tests/test_cli.py: they pin the citation strings
REJECTED = (
    ["weil-check", "--q", "7", "--b", "7"],
    ["embed-check", "--group", "C2", "--p", "3"],
    ["exists", "--group", "C2", "--p", "5", "--parity", "even"],
    ["sing-config", "--group", "ESL2F5"],
    ["zeta-assemble", "--q", "3", "--notation", "1^22"],
)

# malformed notation (exit 2), orbits whose degrees do not sum to 22 (exit 1),
# a --q that is not a power of --p (exit 2), a q past the weil-list limit (exit 1)
# and a --q below 1 (exit 2)
MENDED = (
    ["zeta-assemble", "--q", "9", "--notation", "1^x"],
    ["zeta-assemble", "--q", "9", "--notation", "0^22"],
    ["zeta-assemble", "--q", "3", "--group", "Q8", "--orbit", "A1,1,1,trivial"],
    ["exists", "--group", "C8", "--p", "5", "--q", "9", "--parity", "even"],
    ["weil-list", "--q", "1000000007"],
    ["weil-list", "--q", "0"],
)

# every catalog group at ramified primes and at p = 1 mod 5, 8 and 12, and
# the alginj table at p = 1 mod 8 and 12; appended after MENDED so that the
# records above keep their positions
EMBED_GROUPS = ("C2", "C3", "C4", "C5", "C6", "C8", "C10", "C12",
                "Q8", "Q12", "Q16", "Q20", "Q24", "SL2F3", "ESL2F3", "SL2F5",
                "C5:C8", "C3:C8", "C3xQ8", "C3:Q16", "ESL2F5")
EMBED = tuple(["embed-check", "--group", g, "--p", str(p)]
              for g in EMBED_GROUPS for p in (2, 3, 5, 7, 13, 17, 41)) \
    + tuple(["tables", "--which", "alginj", "--p", str(p)] for p in (17, 41, 73))

# weil-check on the ordinary, mixed and supersingular-outside-the-list
# branches of the quartic, at n = 1 and n >= 3; appended after EMBED
NEWTON = tuple(["weil-check", "--q", str(q), "--a1", str(a1), "--a2", str(a2)]
               for q, a1, a2 in ((7, 1, 3), (7, 1, 7), (8, 1, 1), (8, 1, 0), (16, 1, 4),
                                 (27, 1, 9), (81, -2, 9), (125, 1, 25), (121, -11, 121)))

# weil-check reaching each supersingular case whose e, Newton type and
# endomorphism algebra no record above prints; appended after the quartics
# outside the surface Newton polygons
WEIL_CASES = (
    ["weil-check", "--q", "9", "--b", "6"],                      # ss-inseparable
    ["weil-check", "--q", "7", "--b", "0"],                      # ss-a
    ["weil-check", "--q", "9", "--b", "0"],                      # ss-b
    ["weil-check", "--q", "9", "--b", "3"],                      # ss-c
    ["weil-check", "--q", "27", "--b", "9"],                     # ss-d, p = 3
    ["weil-check", "--q", "8", "--b", "4"],                      # ss-d, p = 2
    ["weil-check", "--q", "7", "--a1", "0", "--a2", "0"],        # ss-i
    ["weil-check", "--q", "9", "--a1", "0", "--a2", "0"],        # ss-ii
    ["weil-check", "--q", "7", "--a1", "0", "--a2", "-7"],       # ss-iv
    ["weil-check", "--q", "25", "--a1", "0", "--a2", "-25"],     # ss-v
    ["weil-check", "--q", "9", "--a1", "3", "--a2", "9"],        # ss-vi
    ["weil-check", "--q", "5", "--a1", "5", "--a2", "15"],       # ss-vii
    ["weil-check", "--q", "8", "--a1", "4", "--a2", "8"],        # ss-viii
    ["weil-check", "--q", "25", "--square=25,0,1"],              # ss-square-even-b0
    ["weil-check", "--q", "49", "--square=49,-7,1"],             # ss-square-even-bsqrt
)

# zeta-assemble printing a zeta line with cyclotomic orders r >= 3 (among
# them phi(r) = 22 and 20), a C3 orbit of degree 3, and the README Q8 call
# with a chain-flip orbit; appended after WEIL_CASES
_Q8 = ["zeta-assemble", "--q", "3", "--group", "Q8"]
ZETA = (
    ["zeta-assemble", "--q", "7", "--notation", "1^6,5^4,8^4,10^4,12^4"],
    ["zeta-assemble", "--q", "9", "--notation", "23^22"],
    ["zeta-assemble", "--q", "9", "--notation", "1^2,66^20"],
    ["zeta-assemble", "--q", "25", "--group", "C3", "--orbit", "A2,9,3,trivial"],
    _Q8 + ["--eps", "-1", "--orbit", "D4,2,1,trivial", "--orbit", "A3,3,1,chain-flip",
           "--orbit", "A1,2,1,trivial"],
    _Q8 + ["--eps", "1", "--orbit", "D4,2,1,trivial", "--orbit", "A3,3,1,chain-flip",
           "--orbit", "A1,2,1,trivial"],
)

# the orbit rejections of zeta-assemble and the five rejections of
# weil-check --square, one per text; appended after ZETA
ZETA_REJECTED = (
    _Q8 + ["--eps", "-1", "--orbit", "D4,2,1,chain-flip", "--orbit", "A3,3,1,trivial",
           "--orbit", "A1,2,1,trivial"],
    _Q8 + ["--eps", "-1", "--orbit", "D4,2,1,trivial", "--orbit", "A3,3,1,trivial",
           "--orbit", "A1,2,1,unknown"],
    ["zeta-assemble", "--q", "3", "--group", "C2", "--orbit", "A1,16,1,trivial"],
    ["weil-check", "--q", "7", "--square=7,0,2"],                # not monic
    ["weil-check", "--q", "7", "--square=5,0,1"],                # constant term not +-q
    ["weil-check", "--q", "7", "--square=7,0,1"],                # odd degree, not t^2 - q
    ["weil-check", "--q", "9", "--square=-9,0,1"],               # even degree, constant -q
    ["weil-check", "--q", "9", "--square=9,1,1"],                # even degree, no class
)

# the argument combinations that the parser accepts and the command refuses
# (exit 2, one stderr text each); appended after ZETA_REJECTED
USAGE = (
    ["weil-check", "--q", "7"],
    ["tables", "--which", "alginj"],
    ["exists", "--group", "Q8", "--q", "9", "--parity", "odd"],
    ["exists", "--group", "C4"],
    ["exists", "--group", "C8", "--refine"],
    ["zeta-assemble", "--q", "3"],
)

# integers whose squares (q^22 for zeta-assemble) would have more than the
# 4,300 digits CPython prints: each is rejected with a cited reason;
# appended after USAGE
HUGE = (
    ["weil-check", "--q", "7", "--b", str(10 ** 4000)],
    ["weil-check", "--q", "7", "--a1", str(10 ** 2500), "--a2", "0"],
    ["weil-check", "--q", str(3 ** 5000), "--a1", "0", "--a2", "0"],
    ["zeta-assemble", "--q", str(3 ** 420), "--notation", "23^22"],
    ["exists", "--group", "Q8", "--q", str(3 ** 4201), "--parity", "odd"],
    ["weil-check", "--q", "7", "--b", str(-10 ** 2000)],
    ["weil-check", "--q", "7", "--a1", "0", "--a2", str(-10 ** 4000)],
    ["weil-check", "--q", str(2 ** 6644), "--square=-1,0,1"],
)

# zeta-assemble given both inputs, orbit data and a notation; appended after
# HUGE
BOTH_INPUTS = (
    ["zeta-assemble", "--q", "9", "--group", "C2", "--orbit", "A1,16,1,trivial",
     "--notation", "1^22"],
)

# an option the command would drop: --eps given with --notation, and a
# --parity that disagrees with --q (even or prime against an odd or composite
# degree, and under --refine, which reads the degree off --q); appended after
# BOTH_INPUTS
DROPPED = (
    ["zeta-assemble", "--q", "9", "--notation", "1^22", "--eps", "1"],
    ["zeta-assemble", "--q", "9", "--notation", "1^20,2^2", "--eps", "-1"],
    ["exists", "--group", "C4", "--q", "27", "--parity", "even"],
    ["exists", "--group", "C4", "--q", "25", "--parity", "prime"],
    ["exists", "--group", "Q8", "--q", "27", "--parity", "even", "--refine"],
    ["exists", "--group", "Q8", "--q", "9", "--parity", "odd", "--refine"],
)

# exists given --q and no --parity, over an odd degree and a prime field;
# appended after DROPPED
PARITY_OF_Q = (
    ["exists", "--group", "C8", "--q", "27"],
    ["exists", "--group", "C4", "--q", "7"],
)


# weil-check given more than one input form, a full one or half a pair next to
# another; appended after PARITY_OF_Q
MIXED_FORMS = (
    ["weil-check", "--q", "7", "--b", "3", "--a1", "1", "--a2", "1"],
    ["weil-check", "--q", "7", "--b", "3", "--square=7,0,1"],
    ["weil-check", "--q", "7", "--b", "3", "--a1", "1"],
    ["weil-check", "--q", "9", "--square=9,0,1", "--a1", "0", "--a2", "9"],
)

# a notation that repeats an order (exit 2); appended after MIXED_FORMS
REPEATED_ORDER = (
    ["zeta-assemble", "--q", "9", "--notation", "1^20,1^2"],
)

# weil-check given no complete form next to a huge integer: half a pair with a
# huge --a1, and a huge --q alone; appended after REPEATED_ORDER
HALF_FORMS = (
    ["weil-check", "--q", "7", "--a1", str(10 ** 2000)],
    ["weil-check", "--q", str(3 ** 5000)],
)

# a notation with an empty term (exit 2); appended after HALF_FORMS
EMPTY_TERM = (
    ["zeta-assemble", "--q", "9", "--notation", "1^20,,2^2"],
)

# --eps given with a group whose invariant part does not read it; appended
# after EMPTY_TERM
EPS_UNREAD = (
    ["zeta-assemble", "--q", "25", "--group", "C3", "--eps", "1", "--orbit", "A2,9,3,trivial"],
)

COMMANDS = ("weil-list", "weil-check", "embed-check", "exists", "sing-config",
            "zeta-assemble", "tables", "selftest")

# a whole argv of each command followed by a stray argument: argparse refuses
# it with the top-level usage line
STRAY = tuple(argv + ["extra"] for argv in (
    ["weil-list", "--q", "9"],
    ["weil-check", "--q", "7", "--b", "3"],
    ["embed-check", "--group", "C8", "--p", "7"],
    ["exists", "--group", "C8", "--p", "7"],
    ["sing-config", "--group", "Q8"],
    ["zeta-assemble", "--q", "9", "--notation", "1^20,2^2"],
    ["tables", "--which", "sing"],
    ["selftest"],
))

# the texts argparse prints itself: the top-level help, an option before any
# command, an unknown command, each command's help, a stray argument, and a
# type error inside a subcommand; appended after EPS_UNREAD
PARSER_TEXTS = (
    ["--help"], ["--json"], ["frobnicate"],
    *([command, "--help"] for command in COMMANDS),
    *STRAY,
    ["embed-check", "--group", "C8", "--p", "4"],
)

# notations whose point count 1 + q Tr + q^2 is negative; appended after
# PARSER_TEXTS
NEGATIVE_COUNT = (
    ["zeta-assemble", "--q", "9", "--notation", "2^22"],
    ["zeta-assemble", "--q", "9", "--notation", "3^22"],
    ["zeta-assemble", "--q", "3", "--notation", "1^2,2^20"],
    ["zeta-assemble", "--q", "9", "--notation", "1,2^21"],
)

# the tables that no --p filters: the rigid algebras, and each trace table
# whole (kummer.trace_table(parity)); appended after NEGATIVE_COUNT
WHOLE_TABLES = (
    ["tables", "--which", "rigidalg"],
    ["tables", "--which", "sszeta1"],
    ["tables", "--which", "sszeta2"],
)


def _with_json(argvs):
    return tuple(argv + tail for argv in argvs for tail in ([], ["--json"]))


# the README examples, the sweeps and the argv of tests/test_cli.py, in
# order: an argv that two of these lists pin (a README example that a sweep
# also reaches) is replayed once per listing, and pytest tells the two apart
# by a numeric suffix on the test id
PINNED = tuple(map(tuple, _with_json(README + TABLES + EXISTS) + REJECTED + MENDED))
# the lists appended later add only the argv not replayed already
LISTED = PINNED + tuple(argv for argv in map(tuple, (
    _with_json(EMBED + NEWTON)
    # quartics whose Newton polygon is not an abelian surface's: slopes 1/4,
    # 3/4 over F_4 and 0, 1/3, 2/3, 1 over F_8
    + (["weil-check", "--q", "4", "--a1", "-4", "--a2", "10"],
       ["weil-check", "--q", "8", "--a1", "-3", "--a2", "2"])
    + _with_json(WEIL_CASES)
    + _with_json(ZETA)
    + ZETA_REJECTED
    + _with_json(USAGE)
    + _with_json(HUGE)
    + _with_json(BOTH_INPUTS)
    + _with_json(DROPPED)
    + _with_json(PARITY_OF_Q)
    + _with_json(MIXED_FORMS)
    + _with_json(REPEATED_ORDER)
    + _with_json(HALF_FORMS)
    + _with_json(EMPTY_TERM)
    + _with_json(EPS_UNREAD)
    + PARSER_TEXTS
    + _with_json(NEGATIVE_COUNT)
    + _with_json(WHOLE_TABLES))) if argv not in PINNED)

# the snapshot records each argv once, at its first listing
ARGVS = tuple(map(list, dict.fromkeys(LISTED)))


def replay(argv):
    from gkzeta.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


RECORDS = []
if os.path.exists(SNAPSHOT):  # absent only while it is first written
    with open(SNAPSHOT, encoding="utf-8") as f:
        RECORDS = json.load(f)


RECORD_OF = {tuple(r["argv"]): r for r in RECORDS}


def _id(argv):
    """The argv joined by spaces, with a huge integer shown by its length."""
    return " ".join(a if len(a) <= 40 else f"<{len(a)} digits>" for a in argv)


@pytest.mark.parametrize("argv", LISTED, ids=_id)
def test_golden(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal width
    assert replay(argv) == RECORD_OF[argv]


@pytest.mark.parametrize("argv", STRAY, ids=_id)
def test_stray_argument_prints_every_command_at_any_width(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # wide enough for the usage on one line
    assert replay(argv)["stderr"] == (
        "usage: gkzeta [-h] {weil-list,weil-check,embed-check,exists,sing-config,"
        "zeta-assemble,tables,selftest} ...\n"
        "gkzeta: error: unrecognized arguments: extra\n")


def _values_in(payload):
    """Every numtheory.Value inside a JSON payload of dicts, lists and tuples."""
    from gkzeta.numtheory import Value

    if isinstance(payload, Value):
        return [payload]
    items = payload.values() if isinstance(payload, dict) else (
        payload if isinstance(payload, (list, tuple)) else ())
    return [v for item in items for v in _values_in(item)]


def test_json_payload_holds_no_value(monkeypatch):
    """A value is a tuple, which json.dumps would print as a list without a
    word: every --json payload that main hands to json.dumps is built of
    plain data."""
    monkeypatch.setenv("COLUMNS", "80")
    payloads = []
    dumps = json.dumps
    monkeypatch.setattr(json, "dumps", lambda obj, **kw: payloads.append(obj) or dumps(obj, **kw))
    argvs = [r["argv"] for r in RECORDS if "--json" in r["argv"]]
    for argv in argvs:
        replay(argv)
    assert len(payloads) == sum(RECORD_OF[tuple(a)]["code"] == 0 for a in argvs) > 300
    assert [v for payload in payloads for v in _values_in(payload)] == []


def test_snapshot_covers_every_argv():
    assert [r["argv"] for r in RECORDS] == [list(a) for a in ARGVS]


def test_every_command_and_table_has_an_answer():
    """Each subcommand, and tables at each --which choice, has a record that
    exits 0 in plain text and one that exits 0 with --json; --help, which
    also exits 0, answers nothing."""
    from gkzeta.cli import _COMMANDS

    def kind(argv):
        return argv[0], argv[argv.index("--which") + 1] if "--which" in argv else None

    kinds = {(command, None) for command in _COMMANDS if command != "tables"}
    kinds |= {("tables", which) for which in _COMMANDS["tables"][3]["--which"]["choices"]}
    answered = {(kind(r["argv"]), "--json" in r["argv"]) for r in RECORDS
                if r["code"] == 0 and "--help" not in r["argv"]}
    assert {(k, as_json) for k in kinds for as_json in (False, True)} - answered == set()


def test_snapshot_records_each_argv_once():
    argvs = [tuple(r["argv"]) for r in RECORDS]
    assert len(set(argvs)) == len(argvs)


# (argv prefix, option and value): an option that the golden argv with this
# prefix give and that leaves their answer as it is, so that the probe below
# does not count it as dropped
SAME_ANSWER_WITHOUT = {
    # given at their default
    (("exists",), ("--parity", "even")),  # with --p and no --q
    (("exists",), ("--parity", "odd")),  # with an odd-degree --q
    (("zeta-assemble",), ("--eps", "-1")),
    # a filter that removes no row at these p (p = 13 does)
    *((("tables", "--which", "sszeta1"), ("--p", p)) for p in ("3", "5", "7", "11")),
}


def _options(argv):
    """The (start, end) slices of argv, after the command, that each hold one
    option and its value."""
    start = 1
    while start < len(argv):
        end = start + 1
        if "=" not in argv[start] and end < len(argv) and not argv[end].startswith("--"):
            end += 1
        yield start, end
        start = end


def _answer(record):
    """A record's output, without the query that --json echoes."""
    if "--json" not in record["argv"]:
        return record["stdout"]
    body = json.loads(record["stdout"])
    del body["query"]
    return body


def test_no_option_is_dropped(monkeypatch):
    """Each option of each golden argv that exits 0, removed in turn, must
    change the outcome: a different exit code or a different answer."""
    monkeypatch.setenv("COLUMNS", "80")
    dropped, excused = [], set()
    for record in RECORDS:
        if record["code"] != 0:
            continue
        argv = record["argv"]
        for start, end in _options(argv):
            without = replay(argv[:start] + argv[end:])
            if without["code"] == 0 and _answer(without) == _answer(record):
                keys = {(prefix, option) for prefix, option in SAME_ANSWER_WITHOUT
                        if tuple(argv[:len(prefix)]) == prefix
                        and option == tuple(argv[start:end])}
                excused |= keys
                if not keys:
                    dropped.append((" ".join(argv), argv[start:end]))
    assert dropped == []
    assert excused == SAME_ANSWER_WITHOUT


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    records = [replay(argv) for argv in ARGVS]
    appended = 0
    for record in records:
        old = RECORD_OF.get(tuple(record["argv"]))
        if old is None:
            appended += 1
        elif old != record:
            parts = [k for k in ("code", "stdout", "stderr") if old[k] != record[k]]
            print(f"changed {', '.join(parts)}: {_id(record['argv'])}", file=sys.stderr)
    with open(SNAPSHOT, "w", encoding="utf-8") as f:
        json.dump(records, f, indent=1, ensure_ascii=False)
        f.write("\n")
    print(f"wrote {len(records)} records, {appended} appended, to {SNAPSHOT}", file=sys.stderr)
