"""Golden snapshot of the CLI: exit code, stdout and stderr of fixed argv,
replayed in-process through `cli.main` and compared byte for byte.

Regenerate the snapshot (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden_cli.py
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

ARGVS = tuple(argv + tail for argv in README + TABLES + EXISTS for tail in ([], ["--json"])) \
    + REJECTED + MENDED
# an argv recorded above is not recorded twice: test ids stay unique
ARGVS += tuple(argv + tail for argv in EMBED for tail in ([], ["--json"])
               if argv + tail not in ARGVS)


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


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: " ".join(r["argv"]))
def test_golden(record, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal width
    assert replay(record["argv"]) == record


def test_snapshot_covers_every_argv():
    assert [r["argv"] for r in RECORDS] == [list(a) for a in ARGVS]


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    records = [replay(argv) for argv in ARGVS]
    with open(SNAPSHOT, "w", encoding="utf-8") as f:
        json.dump(records, f, indent=1, ensure_ascii=False)
        f.write("\n")
    print(f"wrote {len(records)} records to {SNAPSHOT}", file=sys.stderr)
