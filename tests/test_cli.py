import ast
import contextlib
import faulthandler
import io
import itertools
import json
import re
import signal

import conftest
import pytest
from hypothesis import given, settings, strategies as st

from gkzeta import cli, numtheory
from gkzeta.cli import main
from gkzeta.errors import Rejected
from gkzeta.existence import (
    exists_over_even_degree,
    exists_over_odd_degree,
    exists_over_prime_field,
    katsura_refinement,
)
from gkzeta.groups import GroupId as G
from gkzeta.numtheory import PrimePower, is_prime


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the body once it has run for the given seconds.

    The SIGALRM handler runs only between bytecodes, so it cannot stop one
    long C-level call that checks no signal. As a backstop, faulthandler
    dumps every thread's traceback to conftest.STDERR_FD and ends the test
    process once the body has run ten times as long."""
    def expire(signum, frame):
        raise TimeoutError(f"did not end within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    faulthandler.dump_traceback_later(10 * seconds, exit=True, file=conftest.STDERR_FD)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
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

    def test_weil_check_below_print_limit(self, capsys):
        # 3^4191 < 10^2000: f = t^4 + q^2 prints a 4,000-digit coefficient
        q = 3 ** 4191
        code, out, _ = run(capsys, "weil-check", "--q", str(q), "--a1", "0", "--a2", "0")
        assert code == 0
        assert str(q * q) in out

    def test_invalid_q(self, capsys):
        code, _, _ = run(capsys, "weil-list", "--q", "12")
        assert code == 2

    @pytest.mark.parametrize("argv", (
        ["embed-check", "--group", "C8", "--p", "x"],
        ["exists", "--group", "C8", "--p", "x"],
        ["tables", "--which", "alginj", "--p", "x"],
        ["exists", "--group", "C8", "--q", "x"],
        ["weil-list", "--q", "x"],
        ["zeta-assemble", "--q", "x", "--notation", "1^22"],
        ["weil-check", "--q", "7", "--b", "x"],
        ["weil-check", "--q", "7", "--a1", "x", "--a2", "0"],
    ), ids=" ".join)
    def test_non_integer_option(self, capsys, argv):
        # every integer option refuses a non-integer in the same words
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        option = argv[argv.index("x") - 1]
        assert err.endswith(f"error: argument {option}: invalid int value: 'x'\n")

    def test_missing_args(self, capsys):
        code, _, _ = run(capsys, "weil-check", "--q", "7")
        assert code == 2

    @pytest.mark.parametrize("given", [
        [name for k, name in enumerate(("b", "a1", "a2", "square")) if mask >> k & 1]
        for mask in range(16)], ids=lambda given: "+".join(given) or "none")
    def test_weil_check_takes_exactly_one_form(self, capsys, given):
        # each piece alone would be valid at q = 7: t^2 - 3t + 7,
        # t^4 + t^3 + t^2 + 7t + 49 and (t^2 - 7)^2
        pieces = {"b": ["--b", "3"], "a1": ["--a1", "1"], "a2": ["--a2", "1"],
                  "square": ["--square=-7,0,1"]}
        code, out, err = run(capsys, "weil-check", "--q", "7",
                             *(t for name in given for t in pieces[name]))
        forms = ("b" in given) + ("a1" in given or "a2" in given) + ("square" in given)
        if given in (["b"], ["a1", "a2"], ["square"]):
            assert (code, err) == (0, "")
        elif forms > 1:
            assert (code, out) == (2, "")
            assert err == "weil-check takes one form: --b, or --a1 and --a2, or --square\n"
        else:
            assert (code, out) == (2, "")
            assert err == "weil-check needs --b, or --a1 and --a2, or --square\n"

    @pytest.mark.parametrize("given", [["--q", "7", "--a1", str(10 ** 2000)],
                                       ["--q", "7", "--a2", str(-10 ** 2000)],
                                       ["--q", str(3 ** 5000)]],
                             ids=["huge-a1", "huge-a2", "huge-q"])
    def test_weil_check_usage_before_print_limit(self, capsys, given):
        # no complete form: the usage error, not the print-limit rejection
        code, out, err = run(capsys, "weil-check", *given)
        assert (code, out) == (2, "")
        assert err == "weil-check needs --b, or --a1 and --a2, or --square\n"


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

    @pytest.mark.parametrize("argv", (["embed-check", "--group", "C8"],
                                      ["exists", "--group", "C8", "--parity", "even"],
                                      ["tables", "--which", "alginj"]), ids=" ".join)
    def test_p_above_the_proven_bound(self, capsys, argv):
        # 2^89 - 1 is prime; 10^4299 + 3 has no factor up to 13, and its
        # Miller-Rabin powers alone take seconds
        for p in (2 ** 89 - 1, 10 ** 4299 + 3):
            with deadline(1):
                code, out, err = run(capsys, *argv, "--p", str(p))
            assert (code, out) == (2, "")
            assert err.endswith("primality is only proven below 3317044064679887385961981\n")

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

    def test_exists_parity_defaults_to_even(self, capsys):
        for argv in (["--q", "9"], ["--q", "9", "--refine"], ["--p", "7"]):
            assert run(capsys, "exists", "--group", "C8", *argv) == run(
                capsys, "exists", "--group", "C8", *argv, "--parity", "even")

    def test_exists_parity_of_odd_degree_q_is_odd(self, capsys):
        for argv in (["--q", "27"], ["--q", "7"], ["--p", "3", "--q", "27"]):
            assert run(capsys, "exists", "--group", "C8", *argv) == run(
                capsys, "exists", "--group", "C8", *argv, "--parity", "odd")

    def test_exists_p_and_q_agree(self, capsys):
        assert run(capsys, "exists", "--group", "Q8", "--p", "7", "--q", "343",
                   "--parity", "odd") == run(capsys, "exists", "--group", "Q8", "--q", "343",
                                             "--parity", "odd")


# every q that the rule test below passes, as its (p, n) with q = p^n
EXISTS_Q = {3: (3, 1), 9: (3, 2), 27: (3, 3), 81: (3, 4), 7: (7, 1), 49: (7, 2),
            343: (7, 3), 5: (5, 1), 125: (5, 3)}
NAMED_DEGREE = {"even": "an even-degree", "odd": "an odd-degree", "prime": "a prime"}


def exists_rule(group, p, q, parity, refine):
    """What README's rule makes of an exists call: (2, the usage text), or
    the exit code and the start of the output line of the classification it
    names, read over the field it names. Given both, q must be a power of p,
    and an explicit parity the degree of q: even, odd, or 1 for prime.
    Without one, an odd-degree q reads as odd and anything else as even. A
    field built from p alone is p^2 for even and p otherwise; --refine
    applies the quotient refinement over that field."""
    if p is None and q is None:
        return 2, "exists --refine needs --q or --p\n" if refine else "exists needs --p (or --q)\n"
    base, n = EXISTS_Q[q] if q is not None else (p, None)
    if p is not None and base != p:
        return 2, f"exists: --q {q} is not a power of --p {p}\n"
    if parity is None:
        parity = "odd" if n is not None and n % 2 else "even"
    elif n is not None and not (n == 1 if parity == "prime" else n % 2 == (parity == "odd")):
        return 2, f"--parity {parity} needs {NAMED_DEGREE[parity]} --q\n"
    field = PrimePower(base, n or (2 if parity == "even" else 1))
    fn, at = {"even": (exists_over_even_degree, base), "prime": (exists_over_prime_field, base),
              "odd": (exists_over_odd_degree, field)}[parity]
    if refine:
        fn, at = katsura_refinement, field
    try:
        v = fn(G(group), at)
    except Rejected as exc:
        return 1, f"rejected: {exc.reason} ["
    answer = {True: "yes", False: "no", None: "not determined"}[v.exists_rigid]
    return 0, f"  rigid action: {answer} [{v.citation}]"


def test_exists_follows_the_documented_rule(capsys):
    combinations = list(itertools.product(("Q8", "C8", "SL2F5", "C3", "C2", "C5:C8"),
                                          (None, 3, 5, 7), (None, *EXISTS_Q),
                                          (None, "even", "odd", "prime"), (False, True)))
    assert len(combinations) == 1920
    disagreements = []
    for given in combinations:
        group, p, q, parity, refine = given
        argv = ["exists", "--group", group]
        for flag, value in (("--p", p), ("--q", q), ("--parity", parity)):
            argv += [flag, str(value)] * (value is not None)
        code, out, err = run(capsys, *argv, *["--refine"] * refine)
        want, text = exists_rule(*given)
        if code != want or not {2: out == "" and err == text, 1: err.startswith(text),
                                0: text in out.splitlines()}[code]:
            disagreements.append((argv, want, text, code, out, err))
    assert disagreements == []


def test_exists_proves_p_prime_once(capsys, monkeypatch):
    """--p is proven prime while parsing; the field built from it is not
    tested again (about 0.17 ms at a 25-digit p), under either name of
    is_prime."""
    calls = []

    def counting(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(cli, "is_prime", counting)
    monkeypatch.setattr(numtheory, "is_prime", counting)
    p = "3317044064679887385961813"
    code, out, _ = run(capsys, "exists", "--group", "C8", "--p", p, "--parity", "even")
    assert code == 0 and out.startswith("group C8:")
    assert calls == [int(p)]


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

    @pytest.mark.parametrize("notation, field", [("1^2_2", "2_2"), ("1^+22", "+22"),
                                                 ("1^\u0662\u0662", "\u0662\u0662"),
                                                 ("+1^22", "+1")])
    def test_zeta_assemble_notation_takes_ascii_digits_only(self, capsys, notation, field):
        # int() reads each of these as 1^22
        code, out, err = run(capsys, "zeta-assemble", "--q", "9", "--notation", notation)
        assert (code, out) == (2, "")
        assert err.endswith(f": {notation!r} is not a notation such as 1^20,2^2: "
                            f"{field!r} is not a run of the digits 0-9\n")

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

    def test_zeta_assemble_huge_orbit_print_limit(self, capsys):
        # the total degree text would print count * index, of 4,400 digits
        nines = "9" * 2200
        code, _, err = run(capsys, "zeta-assemble", "--q", "9", "--group", "Q8",
                           "--orbit", f"A{nines},{nines},1,trivial")
        assert code == 1
        assert err == ("rejected: |count| >= 10^2000: the output would print an integer of "
                       "more than 4300 digits [zeta assembly]\n")

    def test_zeta_assemble_print_limit(self, capsys):
        # the zeta line prints q^22, so q stops at 10^195; 3^408 < 10^195 < 3^409
        code, out, _ = run(capsys, "zeta-assemble", "--q", str(3 ** 408), "--notation", "23^22")
        assert code == 0
        assert str(3 ** (408 * 22)) in out
        code, out, err = run(capsys, "zeta-assemble", "--q", str(3 ** 409),
                             "--notation", "23^22")
        assert (code, out) == (1, "")
        assert err == ("rejected: |q| >= 10^195: the output would print an integer of more "
                       "than 4300 digits [zeta assembly]\n")

    def test_zeta_assemble_eps_defaults_to_minus_one(self, capsys):
        orbits = ["--orbit", "D4,2,1,trivial", "--orbit", "A3,3,1,trivial",
                  "--orbit", "A1,2,1,trivial"]
        assert run(capsys, "zeta-assemble", "--q", "3", "--group", "Q8", *orbits) == run(
            capsys, "zeta-assemble", "--q", "3", "--group", "Q8", "--eps", "-1", *orbits)

    @pytest.mark.parametrize("g", list(G), ids=str)
    def test_zeta_assemble_eps_only_where_read(self, capsys, g):
        # an explicit --eps must change the invariant part, or exit 2; a group
        # with no recorded invariant part stays rejected. The orbit fills the
        # degree up to 22 next to an invariant part of degree 3 or 4
        reads_eps = g in (G.Q8, G.Q12, G.SL2F3)
        base = ["zeta-assemble", "--q", "25", "--group", str(g),
                "--orbit", f"A1,{19 if reads_eps else 18},1,trivial"]
        without = run(capsys, *base)
        with_eps = {eps: run(capsys, *base, "--eps", eps) for eps in ("1", "-1")}
        if reads_eps:
            assert with_eps["-1"] == without
            assert with_eps["1"][0] == 0 and with_eps["1"] != without
        elif g in (G.C3, G.C4, G.C6):
            assert without[0] == 0
            assert with_eps["1"] == with_eps["-1"] == (2, "", (
                f"zeta-assemble takes no --eps with --group {g}: its invariant part "
                "is the same for both signs\n"))
        else:
            assert with_eps["1"] == with_eps["-1"] == without == (1, "", (
                f"rejected: no invariant-part polynomial recorded for {g} [zeta assembly]\n"))

    def test_zeta_assemble_missing_input(self, capsys):
        code, _, _ = run(capsys, "zeta-assemble", "--q", "3")
        assert code == 2

    @pytest.mark.parametrize("inputs", (["--group", "C2", "--orbit", "A1,16,1,trivial"],
                                        ["--group", "C2"], ["--orbit", "A1,16,1,trivial"]),
                             ids=" ".join)
    @pytest.mark.parametrize("as_json", ([], ["--json"]), ids=("plain", "json"))
    def test_zeta_assemble_notation_with_orbit_data(self, capsys, inputs, as_json):
        # the orbit data must not be dropped in silence
        code, out, err = run(capsys, "zeta-assemble", "--q", "9", *inputs,
                             "--notation", "1^22", *as_json)
        assert (code, out) == (2, "")
        assert err == "zeta-assemble takes --notation or --group (with --orbit), not both\n"


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

    @pytest.mark.parametrize("which", ["sing", "rigidalg"])
    def test_tables_without_p_refuse_p(self, capsys, which):
        code, out, err = run(capsys, "tables", "--which", which, "--p", "7")
        assert (code, out, err) == (2, "", f"tables --which {which} takes no --p\n")

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

    def test_selftest_reports_a_wrong_trace(self, capsys, monkeypatch):
        from gkzeta import kummer

        row = kummer._EVEN_ROWS[0]
        wrong = kummer.TraceRow(row.trace + 1, row.notation, row.group, row.p_condition,
                                row.weil_shape)
        monkeypatch.setattr(kummer, "_EVEN_ROWS", (wrong,) + kummer._EVEN_ROWS[1:])
        code, out, _ = run(capsys, "selftest")
        assert code == 1
        assert f"FAIL  trace row even/{row.notation}\n" in out
        code, out, _ = run(capsys, "selftest", "--json")
        data = json.loads(out)
        assert code == 1
        assert data["passed"] == data["total"] - 1
        assert [r["check"] for r in data["result"] if not r["ok"]] == [
            f"trace row even/{row.notation}"]

    def test_selftest_reports_a_configuration_of_21_nodes(self, capsys, monkeypatch):
        # kummer.ns_rank_bound rejects more than 20 exceptional nodes: the
        # check fails, and the other checks still run and print
        from gkzeta import kummer

        configs = kummer.singular_configs
        c2 = configs(G.C2)[0]
        wide = kummer.SingularConfig(G.C2, c2.case, (
            kummer.SingularOrbit(kummer.ADEType("A", 1), 21, 1, "unknown"),))
        monkeypatch.setattr(kummer, "singular_configs",
                            lambda g: (wide,) if g == G.C2 else configs(g))
        name = f"config C2 case {c2.case or '-'}"
        code, out, err = run(capsys, "selftest")
        assert (code, err) == (1, "")
        assert f"FAIL  {name}\n" in out
        passed, total = map(int, out.splitlines()[-1].removesuffix(" checks passed").split("/"))
        assert passed == total - 1 and out.count("FAIL") == 1
        code, out, err = run(capsys, "selftest", "--json")
        data = json.loads(out)
        assert (code, err) == (1, "")
        assert data["passed"] == data["total"] - 1
        assert [r for r in data["result"] if not r["ok"]] == [{"check": name, "ok": False}]
        assert '"ok": false' in out


# ---------------------------------------------------------------------------
# the CLI contract on generated argv: exit 0, 1 with a cited rejection, or 2

SMALL = [n for n in range(2, 10 ** 4) if is_prime(n)]
PRIME_POWERS = sorted({p ** k for p in SMALL[:25] for k in range(1, 14) if p ** k < 10 ** 4}
                      | set(SMALL[:200]))
JUNK = st.sampled_from(["", "x", "-1", "0", "1", "1e3", "1^x", "0^22", "1^21", "a,b", ",",
                        "--json", "--q", "FOO", "C5:C8", "2^2,1^20", "A1,1,1,trivial"])
INT = st.integers(-50, 10 ** 4 - 1).map(str)


def digits(lo, hi):
    """Positive integers of lo to hi decimal digits."""
    return st.integers(lo, hi).flatmap(lambda n: st.integers(10 ** (n - 1), 10 ** n - 1))


# integers of 20 to 4,300 digits (int() reads no more), either sign. A --q
# that long is a power of 2, 3, 5 or 7, or any integer: PrimePower.from_q
# sieves the roots of a huge q and refuses a last root it cannot prove prime.
# A --p that long is refused before any Miller-Rabin power
HUGE = st.one_of(digits(20, 4300), digits(20, 4300).map(lambda n: -n)).map(str)
HUGE_Q = st.one_of(st.integers(64, 14_284).map(lambda n: 2 ** n),
                   st.sampled_from([(3, 9012), (5, 6151), (7, 5088)]).flatmap(
                       lambda bk: st.integers(40, bk[1]).map(lambda k: bk[0] ** k)),
                   digits(20, 4300)).map(str)
Q = st.one_of(st.sampled_from(PRIME_POWERS).map(str), INT, HUGE_Q, JUNK)
P = st.one_of(st.sampled_from(SMALL).map(str), INT, digits(26, 4300).map(str), JUNK)
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
    "weil-check": {"--q": Q, "--b": st.one_of(COEF, HUGE, JUNK), "--a1": st.one_of(COEF, HUGE),
                   "--a2": st.one_of(INT, HUGE),
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


def test_grammar_fuzzes_every_flag():
    # an option added to a command and not here would go unfuzzed; frobnicate
    # stands for an unknown command
    assert {name: set(GRAMMAR[name]) for name in cli._COMMANDS} == {
        name: set(row[3]) for name, row in cli._COMMANDS.items()}
    assert set(GRAMMAR) - set(cli._COMMANDS) == {"frobnicate"}


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


def check_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), deadline(2):
        code = main(argv)
    assert code in (0, 1, 2), argv
    if code == 1:
        assert REJECT_LINE.search(err.getvalue()), (argv, err.getvalue())


@given(cli_argv())
@settings(max_examples=400, deadline=None)
def test_cli_contract(argv):
    check_contract(argv)


def tokens(*parts):
    """An argv strategy from literal tokens and token strategies, in order."""
    return st.tuples(*(part if isinstance(part, st.SearchStrategy) else st.just(part)
                       for part in parts)).map(list)


# well-formed argv of the commands that print powers of their integers, so
# that most draws reach the texts (the grammar above rarely draws a valid --q
# together with a huge coefficient)
BIG_Q = st.one_of(HUGE_Q, st.sampled_from(PRIME_POWERS).map(str))
# an ADE index or point count; two of 2,200 digits or more multiply to one
# that CPython cannot print
ORBIT_INT = st.one_of(COEF, HUGE, digits(2200, 4300).map(str))
HUGE_ARGV = st.one_of(
    tokens("weil-check", "--q", BIG_Q, "--b", st.one_of(COEF, HUGE)),
    tokens("weil-check", "--q", BIG_Q, "--a1", st.one_of(COEF, HUGE),
           "--a2", st.one_of(INT, HUGE)),
    tokens("exists", "--group", st.sampled_from(["Q8", "C4", "SL2F3"]), "--q", BIG_Q,
           "--parity", "odd"),
    tokens("zeta-assemble", "--q", BIG_Q,
           "--notation", st.sampled_from(["23^22", "1^20,2^2", "1^2,66^20"])),
    tokens("zeta-assemble", "--q", BIG_Q, "--group", "Q8", "--orbit",
           st.builds("A{},{},1,trivial".format, ORBIT_INT, ORBIT_INT)))


@given(HUGE_ARGV, st.booleans())
@settings(max_examples=200, deadline=None)
def test_cli_contract_on_huge_integers(argv, as_json):
    check_contract(argv + ["--json"] * as_json)


# ---------------------------------------------------------------------------
# one rendering path: the commands return their answer and only main prints

def _output_calls(node):
    """The print and json.dumps calls under node, and its uses of sys.stdout
    and sys.stderr."""
    return [n for n in ast.walk(node)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "print"
            or isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
            and (n.value.id, n.attr) in {("json", "dumps"), ("sys", "stdout"), ("sys", "stderr")}]


def _rejections(node):
    """The Rejected(...) calls under node."""
    return [n for n in ast.walk(node) if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Name) and n.func.id == "Rejected"]


def test_only_printable_constructs_a_rejection():
    # every other rejection, with its text and citation, comes from the library
    with open(cli.__file__, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    printable, = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                  and node.name == "_printable"]
    assert _rejections(tree) == _rejections(printable) != []


def test_only_main_prints():
    with open(cli.__file__, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    mains = [node for node in tree.body if isinstance(node, ast.FunctionDef)
             and node.name == "main"]
    assert len(mains) == 1
    assert _output_calls(tree) == _output_calls(mains[0])
    assert [ast.unparse(n) for n in _output_calls(tree)].count("json.dumps") == 1
