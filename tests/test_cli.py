import contextlib
import io
import json
import re
import signal

import pytest
from hypothesis import given, settings, strategies as st

from gkzeta.cli import main
from gkzeta.groups import GroupId as G
from gkzeta.numtheory import is_prime


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the body once it has run for the given seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"did not end within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestWeilCommands:
    def test_weil_list(self, capsys):
        code, out, _ = run(capsys, "weil-list", "--q", "9")
        assert code == 0
        assert "b =    0" in out
        assert "supersingular" in out

    def test_weil_list_json(self, capsys):
        code, out, _ = run(capsys, "weil-list", "--q", "5", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["query"] == {"command": "weil-list", "q": 5}
        assert {row["b"] for row in data["result"]} == set(range(-4, 5))
        assert data["citations"]

    def test_weil_check_ok(self, capsys):
        code, out, _ = run(capsys, "weil-check", "--q", "7", "--b", "3")
        assert code == 0
        assert "ordinary" in out

    def test_weil_check_rejected(self, capsys):
        code, out, err = run(capsys, "weil-check", "--q", "7", "--b", "7")
        assert code == 1
        assert "rejected" in err

    def test_weil_check_surface(self, capsys):
        code, out, _ = run(capsys, "weil-check", "--q", "7", "--a1", "0", "--a2", "7")
        assert code == 0
        assert "supersingular" in out

    def test_weil_check_square(self, capsys):
        code, out, _ = run(capsys, "weil-check", "--q", "3", "--square=-3,0,1")
        assert code == 0
        assert "quaternion" in out

    def test_weil_check_malformed_square(self, capsys):
        code, _, err = run(capsys, "weil-check", "--q", "7", "--square=a,b")
        assert code == 2
        assert "Traceback" not in err

    def test_weil_list_above_limit(self, capsys):
        code, out, err = run(capsys, "weil-list", "--q", "1000000007")
        assert code == 1
        assert out == ""
        assert err == ("rejected: q = 1000000007 is above the enumeration limit 100000000 "
                       "[elliptic isogeny classification]\n")

    def test_invalid_q(self, capsys):
        code, _, _ = run(capsys, "weil-list", "--q", "12")
        assert code == 2

    def test_missing_args(self, capsys):
        code, _, _ = run(capsys, "weil-check", "--q", "7")
        assert code == 2


class TestEmbedAndExists:
    def test_embed_check(self, capsys):
        code, out, _ = run(capsys, "embed-check", "--group", "C5", "--p", "11")
        assert code == 0
        assert "does not embed" in out

    def test_embed_check_json(self, capsys):
        code, out, _ = run(capsys, "embed-check", "--group", "Q16", "--p", "3", "--json")
        data = json.loads(out)
        assert code == 0
        assert data["verdict"] is True

    def test_embed_check_pseudoprime_p(self, capsys):
        # 318665857834031151167461 = 399165290221 * 798330580441
        code, _, _ = run(capsys, "embed-check", "--group", "C8",
                         "--p", "318665857834031151167461")
        assert code == 2

    def test_embed_check_uncovered(self, capsys):
        code, _, err = run(capsys, "embed-check", "--group", "C2", "--p", "3")
        assert code == 1
        assert "rejected" in err

    def test_exists_even(self, capsys):
        code, out, _ = run(capsys, "exists", "--group", "SL2F5", "--p", "3",
                           "--parity", "even")
        assert code == 0
        assert "rigid action: yes" in out
        assert "rigid symplectic action: yes" in out

    def test_exists_even_conditions_printed(self, capsys):
        code, out, _ = run(capsys, "exists", "--group", "C8", "--p", "7",
                           "--parity", "even")
        assert code == 0
        assert "p != 1 mod 8 -> holds" in out
        assert "p != +-1 mod 8 -> fails" in out

    def test_exists_odd(self, capsys):
        code, out, _ = run(capsys, "exists", "--group", "Q8", "--q", "343",
                           "--parity", "odd", "--json")
        data = json.loads(out)
        assert code == 0
        assert data["verdict"]["rigid"] is True
        assert len(data["weil_options"]) == 2

    def test_exists_prime(self, capsys):
        code, out, _ = run(capsys, "exists", "--group", "Q12", "--p", "5",
                           "--parity", "prime")
        assert code == 0
        assert "yes" in out

    def test_exists_refine(self, capsys):
        code, out, _ = run(capsys, "exists", "--group", "C8", "--q", "9", "--refine")
        assert code == 0
        assert "yes" in out

    def test_exists_rejection(self, capsys):
        code, _, err = run(capsys, "exists", "--group", "C2", "--p", "5",
                           "--parity", "even")
        assert code == 1
        assert "rejected" in err

    def test_exists_missing_p(self, capsys):
        code, _, _ = run(capsys, "exists", "--group", "C4")
        assert code == 2

    def test_exists_p_and_q_disagree(self, capsys):
        code, out, err = run(capsys, "exists", "--group", "C8", "--p", "5", "--q", "9",
                             "--parity", "even")
        assert code == 2
        assert out == ""
        assert err == "exists: --q 9 is not a power of --p 5\n"

    def test_exists_p_and_q_agree(self, capsys):
        assert run(capsys, "exists", "--group", "Q8", "--p", "7", "--q", "343",
                   "--parity", "odd") == run(capsys, "exists", "--group", "Q8", "--q", "343",
                                             "--parity", "odd")


class TestSingAndZeta:
    def test_sing_config(self, capsys):
        code, out, _ = run(capsys, "sing-config", "--group", "C6")
        assert code == 0
        assert "A5 + 4A2 + 5A1" in out
        assert "rho >= 19" in out

    def test_sing_config_q8_two_cases(self, capsys):
        code, out, _ = run(capsys, "sing-config", "--group", "Q8", "--json")
        data = json.loads(out)
        assert code == 0
        assert len(data["result"]) == 2

    def test_sing_config_rejects(self, capsys):
        code, _, err = run(capsys, "sing-config", "--group", "ESL2F5")
        assert code == 1

    def test_zeta_assemble_orbits(self, capsys):
        code, out, _ = run(capsys, "zeta-assemble", "--q", "3", "--group", "Q8",
                           "--eps", "-1",
                           "--orbit", "D4,2,1,trivial",
                           "--orbit", "A3,3,1,trivial",
                           "--orbit", "A1,2,1,trivial")
        assert code == 0
        assert "1^21,2" in out
        assert "trace: 20" in out
        assert "|X(F_3)| = 70" in out

    def test_zeta_assemble_notation(self, capsys):
        code, out, _ = run(capsys, "zeta-assemble", "--q", "9",
                           "--notation", "1^20,2^2", "--json")
        data = json.loads(out)
        assert code == 0
        assert data["result"]["trace"] == 18
        assert data["result"]["points"] == 1 + 9 * 18 + 81

    def test_zeta_assemble_artin_rejection(self, capsys):
        code, _, err = run(capsys, "zeta-assemble", "--q", "3",
                           "--notation", "1^22")
        assert code == 1
        assert "odd degree" in err

    @pytest.mark.parametrize("notation", ["1^x", "0^22", "1^21"])
    def test_zeta_assemble_bad_notation(self, capsys, notation):
        code, _, err = run(capsys, "zeta-assemble", "--q", "9", "--notation", notation)
        assert code == 2
        assert "Traceback" not in err

    def test_zeta_assemble_orbits_not_degree_22(self, capsys):
        code, _, err = run(capsys, "zeta-assemble", "--q", "3", "--group", "Q8",
                           "--orbit", "A1,1,1,trivial")
        assert code == 1
        assert err == "rejected: total degree 4 != 22 [zeta assembly]\n"

    def test_zeta_assemble_huge_order_ends(self, capsys):
        # phi(r) > d for r > 2 d^2, so the prime r = 10^18 + 3 is never factored
        with deadline(1):
            code, _, err = run(capsys, "zeta-assemble", "--q", "9",
                               "--notation", "1^21,1000000000000000003^1")
        assert code == 2
        assert err.endswith(": degree 1 at order 1000000000000000003 is not a multiple"
                            " of phi(1000000000000000003)\n")

    def test_zeta_assemble_huge_order_and_degree_ends(self, capsys):
        # a degree above 22 fails the total, so r = 10^18 + 3 is never factored
        with deadline(1):
            code, _, err = run(capsys, "zeta-assemble", "--q", "9",
                               "--notation", "1000000000000000003^1000000000000000000")
        assert code == 2
        assert err.endswith(": total degree 1000000000000000000 != 22\n")

    def test_zeta_assemble_huge_orbit_ends(self, capsys):
        # the total degree is checked before the divisors of 10^24 are listed
        big = str(10 ** 24)
        with deadline(1):
            code, _, err = run(capsys, "zeta-assemble", "--q", "3", "--group", "Q8",
                               "--orbit", f"A1,{big},{big},trivial")
        assert code == 1
        assert err == f"rejected: total degree {10 ** 24 + 3} != 22 [zeta assembly]\n"

    def test_zeta_assemble_missing_input(self, capsys):
        code, _, _ = run(capsys, "zeta-assemble", "--q", "3")
        assert code == 2


class TestTablesAndSelftest:
    def test_tables_sing(self, capsys):
        code, out, _ = run(capsys, "tables", "--which", "sing")
        assert code == 0
        assert len(out.strip().splitlines()) == 17

    def test_tables_sszeta2_p3(self, capsys):
        code, out, _ = run(capsys, "tables", "--which", "sszeta2", "--p", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 6
        assert any("Tr =  20" in line for line in lines)

    def test_tables_sszeta1_all(self, capsys):
        code, out, _ = run(capsys, "tables", "--which", "sszeta1", "--json")
        data = json.loads(out)
        assert code == 0
        assert len(data["result"]) == 9

    def test_tables_rigidalg(self, capsys):
        code, out, _ = run(capsys, "tables", "--which", "rigidalg")
        assert code == 0
        assert "Q[Q16]^rig" in out

    def test_tables_alginj(self, capsys):
        code, out, _ = run(capsys, "tables", "--which", "alginj", "--p", "7")
        assert code == 0
        assert "Q[C4]^rig embeds" in out

    def test_tables_alginj_needs_p(self, capsys):
        code, _, _ = run(capsys, "tables", "--which", "alginj")
        assert code == 2

    def test_selftest(self, capsys):
        code, out, _ = run(capsys, "selftest")
        assert code == 0
        assert "checks passed" in out
        assert "FAIL" not in out

    def test_selftest_json(self, capsys):
        code, out, _ = run(capsys, "selftest", "--json")
        data = json.loads(out)
        assert code == 0
        assert data["query"] == {"command": "selftest"}
        assert data["passed"] == data["total"] == len(data["result"])
        assert all(r["ok"] for r in data["result"])


# ---------------------------------------------------------------------------
# the CLI contract on generated argv: exit 0, 1 with a cited rejection, or 2

SMALL = [n for n in range(2, 10 ** 4) if is_prime(n)]
PRIME_POWERS = sorted({p ** k for p in SMALL[:25] for k in range(1, 14) if p ** k < 10 ** 4}
                      | set(SMALL[:200]))
JUNK = st.sampled_from(["", "x", "-1", "0", "1", "1e3", "1^x", "0^22", "1^21", "a,b", ",",
                        "--json", "--q", "FOO", "C5:C8", "2^2,1^20", "A1,1,1,trivial"])
INT = st.integers(-50, 10 ** 4 - 1).map(str)
Q = st.one_of(st.sampled_from(PRIME_POWERS).map(str), INT, JUNK)
P = st.one_of(st.sampled_from(SMALL).map(str), INT, JUNK)
GROUP = st.one_of(st.sampled_from([g.value for g in G]), JUNK)
COEF = st.integers(-400, 400).map(str)
ORBIT = st.one_of(
    st.builds(lambda ade, n, d, act: f"{ade},{n},{d},{act}",
              st.sampled_from(["A1", "A2", "A3", "A5", "A0", "D4", "D5", "E6", "E8", "B2"]),
              st.integers(0, 20), st.integers(0, 4),
              st.sampled_from(["trivial", "chain-flip", "unknown", "x"])),
    JUNK)
NOTATION = st.one_of(
    st.lists(st.builds(lambda r, d: f"{r}^{d}", st.integers(0, 13), st.integers(0, 22)),
             min_size=1, max_size=4).map(",".join),
    JUNK)

GRAMMAR = {
    "weil-list": {"--q": Q},
    "weil-check": {"--q": Q, "--b": st.one_of(COEF, JUNK), "--a1": COEF, "--a2": INT,
                   "--square": st.one_of(st.lists(COEF, min_size=1, max_size=4).map(",".join),
                                         JUNK)},
    "embed-check": {"--group": GROUP, "--p": P},
    "exists": {"--group": GROUP, "--p": P, "--q": Q,
               "--parity": st.one_of(st.sampled_from(["even", "odd", "prime"]), JUNK),
               "--refine": None},
    "sing-config": {"--group": GROUP},
    "zeta-assemble": {"--q": Q, "--group": GROUP, "--eps": st.sampled_from(["1", "-1", "0"]),
                      "--orbit": ORBIT, "--notation": NOTATION},
    "tables": {"--which": st.one_of(
        st.sampled_from(["sing", "sszeta1", "sszeta2", "rigidalg", "alginj"]), JUNK),
        "--p": P},
    "selftest": {},
    "frobnicate": {},
}


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    options = GRAMMAR[command]
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(sorted(options) + ["--json"]), max_size=6)):
        value = options.get(flag)
        argv.append(flag)
        if value is not None:
            argv.append(draw(value))
    if draw(st.booleans()):
        argv.insert(draw(st.integers(0, len(argv))), draw(JUNK))
    return argv


REJECT_LINE = re.compile(r"^rejected: .+ \[.+\]$", re.M)


@given(cli_argv())
@settings(max_examples=400, deadline=None)
def test_cli_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    if code == 1:
        assert REJECT_LINE.search(err.getvalue()), (argv, err.getvalue())
