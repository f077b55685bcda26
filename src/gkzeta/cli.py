"""Command-line interface.

Exit codes: 0 on success, 1 when the query is rejected on mathematical
grounds (with a one-line cited reason), 2 on invalid arguments.

Each subcommand returns its query fields and its answer, built once in the
form --json selects: lines, or the body of the JSON envelope, which `main`
alone prints with the command, the query and args.citation. A command may
rebind args.citation from the registered one (None: no citations).

Each subcommand and argument type imports the layers it uses when it runs,
so a one-shot call loads only those (see README, "Start-up").
"""
from __future__ import annotations

import argparse
import os
import sys

from .errors import Rejected
from .numtheory import _MR_BOUND, IntPolynomial, PrimePower, is_prime


class UsageError(Exception):
    """Arguments that parse but do not combine (exit 2, message printed as is)."""


def _int(s: str) -> int:
    try:
        return int(s)
    except ValueError:  # in the words argparse uses for type=int
        raise argparse.ArgumentTypeError(f"invalid int value: {s!r}")


def _prime_power(s: str) -> PrimePower:
    q = _int(s)
    try:
        return PrimePower.from_q(q)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _prime(s: str) -> int:
    p = _int(s)
    if p >= _MR_BOUND:  # is_prime cannot prove it prime: refused before any power
        raise argparse.ArgumentTypeError(f"primality is only proven below {_MR_BOUND}")
    if not is_prime(p):
        raise argparse.ArgumentTypeError(f"{p} is not prime")
    return p


def _quadratic(s: str) -> IntPolynomial:
    try:
        return IntPolynomial(int(c) for c in s.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{s!r} is not a comma-separated list of integers")


def _notation(s: str):  # a kummer.NSCharPoly
    from . import kummer

    try:
        return kummer.parse_zeta_notation(s)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{s!r} is not a notation such as 1^20,2^2: {exc}")


def _group(s: str):  # a groups.GroupId
    from . import groups

    try:
        return groups.parse_group(s)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _printable(digits: int, **ints) -> None:
    """Reject an integer of absolute value 10^digits or more before a text
    prints its square (zeta-assemble: q^22); CPython prints no int of more
    than 4,300 digits."""
    for name, x in ints.items():
        if x is not None and abs(x) >= 10 ** digits:
            raise Rejected(f"|{name}| >= 10^{digits}: the output would print an integer of "
                           "more than 4300 digits")


# ---------------------------------------------------------------------------
# subcommands

def cmd_weil_list(args):
    from . import weil

    q = args.q
    descs = weil.enumerate_elliptic(q)
    # only the selected output is built: each polynomial is formatted once
    if args.json:
        return {"q": q.q}, {"result": [
            {"b": -w.poly[1], "poly": str(w.poly), "newton": w.newton.value, "case": w.case}
            for w in descs]}
    return {"q": q.q}, [f"isogeny classes of elliptic curves over F_{q.q}:"] + [
        f"  b = {-w.poly[1]:4d}  f = {w.poly}  {w.newton.value:14s} [{w.case}]" for w in descs]


def cmd_weil_check(args):
    from . import weil

    q = args.q
    pair = args.a1 is not None or args.a2 is not None
    if (args.b is not None) + pair + (args.square is not None) > 1:
        raise UsageError("weil-check takes one form: --b, or --a1 and --a2, or --square")
    if args.b is None and args.square is None and (args.a1 is None or args.a2 is None):
        raise UsageError("weil-check needs --b, or --a1 and --a2, or --square")
    _printable(2000, q=q.q, b=args.b, a1=args.a1, a2=args.a2)
    if args.b is not None:
        w = weil.validate_elliptic(q, args.b)
    elif args.square is not None:
        w = weil.validate_surface_square(q, args.square)
    else:
        w = weil.validate_surface_simple(q, args.a1, args.a2)
    # only the selected output is built: the slopes are printed, not sent
    if args.json:
        return {"q": q.q}, {"verdict": {
            "valid": True, "poly": str(w.poly), "e": w.e, "newton": w.newton.value,
            "endo": w.endo, "case": w.case}}
    return {"q": q.q}, [
        f"valid: f = {w.poly} over F_{q.q} (dim {w.dim}, e = {w.e})",
        f"newton: {w.newton.value} (slopes {','.join(w.slopes())})",
        f"endomorphism algebra: {w.endo}",
        f"case: {w.case}",
    ]


_EMBEDS = {True: "embeds", False: "does not embed"}


def cmd_embed_check(args):
    from . import brauer, groups

    g, p = args.group, args.p
    ok, alg = brauer.rigid_embeds_in_m2hp(g, p), groups.rigid_algebra(g)
    if args.json:
        return {"group": str(g), "p": p}, {"verdict": ok, "algebra": str(alg)}
    return {"group": str(g), "p": p}, [
        f"Q[{g}]^rig = {alg} {_EMBEDS[ok]} in M(2, H_{p}) [embedding table]"]


_ANSWER = {True: "yes", False: "no", None: "not determined"}
_DEGREE = {"even": "an even-degree", "odd": "an odd-degree", "prime": "a prime"}
_HOLDS = {True: "holds", False: "fails", None: "undetermined"}
_AVAILABLE = {True: "available", False: "excluded", None: "undetermined"}


def cmd_exists(args):
    from . import existence

    g, p, q = args.group, args.p, args.q
    if p is None and q is None:
        raise UsageError("exists --refine needs --q or --p" if args.refine
                         else "exists needs --p (or --q)")
    if p is not None and q is not None and q.p != p:
        raise UsageError(f"exists: --q {q.q} is not a power of --p {p}")
    # without --parity, --q names it by its degree (q = p is odd); else even
    parity = args.parity or ("odd" if q is not None and q.degree_is_odd else "even")
    q = q or tuple.__new__(PrimePower, (p, 2 if parity == "even" else 1))  # _prime proved p prime
    # --parity names q's degree, even, odd or 1 (prime), as a q built from --p does
    if not (q.n == 1 if parity == "prime" else q.degree_is_odd == (parity == "odd")):
        raise UsageError(f"--parity {parity} needs {_DEGREE[parity]} --q")
    if args.refine:
        v = existence.katsura_refinement(g, q)
        query = {"q": q.q, "refine": True}
    elif parity == "odd":
        _printable(2000, q=q.q)  # the JSON options print q^2
        v = existence.exists_over_odd_degree(g, q)
        query = {"q": q.q, "parity": "odd"}
    else:
        v = (existence.exists_over_even_degree if parity == "even"
             else existence.exists_over_prime_field)(g, q.p)
        query = {"p": q.p, "parity": parity}
    query = {"group": str(g), **query}
    args.citation = v.citation
    if args.json:
        return query, {
            "verdict": {"rigid": v.exists_rigid, "symplectic": v.exists_rigid_symplectic},
            "conditions": [{"condition": t, "holds": val} for t, val in v.conditions],
            "weil_options": [{"shape": o.shape, "poly": str(o.poly) if o.poly is not None else None,
                              "condition": o.condition, "satisfied": o.satisfied}
                             for o in v.weil_options]}
    return query, [
        f"group {g}:",
        f"  rigid action: {_ANSWER[v.exists_rigid]} [{v.citation}]",
        f"  rigid symplectic action: {_ANSWER[v.exists_rigid_symplectic]} [{v.citation}]",
        *(f"  condition: {t} -> {_HOLDS[val]}" for t, val in v.conditions),
        *(f"  weil option {o.shape}: {o.condition} -> {_AVAILABLE[o.satisfied]}"
          for o in v.weil_options),
    ]


def _rho(cfg) -> str:  # cfg: a kummer.SingularConfig
    from . import kummer

    bound, exact = kummer.ns_rank_bound(cfg)
    return f"rho {'=' if exact else '>='} {bound}"


def cmd_sing_config(args):
    from . import kummer

    query, cfgs = {"group": str(args.group)}, kummer.singular_configs(args.group)
    if not args.json:
        return query, [f"{cfg}   [{cfg.total_nodes} nodes, {_rho(cfg)}]" for cfg in cfgs]
    rows = []
    for cfg in cfgs:
        bound, exact = kummer.ns_rank_bound(cfg)
        rows.append({"case": cfg.case,
                     "orbits": [{"ade": str(o.ade), "count": o.count} for o in cfg.orbits],
                     "nodes": cfg.total_nodes, "rank_bound": bound, "rank_exact": exact})
    return query, {"result": rows}


def _parse_orbit(spec: str):  # a kummer.SingularOrbit
    # format: ADE,count,degree,action  e.g.  A3,2,2,trivial
    from . import kummer

    try:
        ade_s, count_s, deg_s, action = spec.split(",")
        ade = kummer.ADEType(ade_s[0].upper(), int(ade_s[1:]))
        return kummer.SingularOrbit(ade, int(count_s), int(deg_s), action)
    except (ValueError, IndexError) as exc:
        raise argparse.ArgumentTypeError(f"bad orbit spec {spec!r}: {exc}")


def cmd_zeta_assemble(args):
    from . import kummer

    q = args.q
    if args.notation:
        if args.group is not None or args.orbit:
            raise UsageError("zeta-assemble takes --notation or --group (with --orbit), not both")
        if args.eps is not None:
            raise UsageError("zeta-assemble takes --eps only with --group")
        cp = args.notation
    elif args.group is None:
        raise UsageError("zeta-assemble needs --group (with --orbit) or --notation")
    else:
        if args.eps is not None and (kummer.invariant_h_poly(args.group, 1)
                                     == kummer.invariant_h_poly(args.group, -1)):
            raise UsageError(f"zeta-assemble takes no --eps with --group {args.group}: "
                             "its invariant part is the same for both signs")
        for orbit in args.orbit or ():  # the total degree text prints count * index
            _printable(2000, count=orbit.count, index=orbit.ade.m)
        eps = -1 if args.eps is None else args.eps
        cp = kummer.assemble_ns(args.orbit or (), kummer.invariant_h_poly(args.group, eps))
    _printable(195, q=q.q)
    if not kummer.artin_check(q, cp):
        raise Rejected(f"{cp} is impossible over a field of odd degree",
                       "odd-degree trace constraint")
    tr, n1, z = kummer.trace_of(cp), kummer.k3_point_count(q, cp), kummer.k3_zeta(q, cp)
    if args.json:
        return {"q": q.q}, {"result": {
            "notation": str(cp), "trace": tr, "points": n1, "zeta": str(z)}}
    return {"q": q.q}, [
        f"characteristic polynomial: {cp}",
        f"trace: {tr}",
        f"|X(F_{q.q})| = {n1}",
        f"zeta: {z}",
    ]


def _table(which: str, p: int | None):
    """The rows of a table, each as its (line, JSON record) pair."""
    if which == "sing":
        from . import groups, kummer

        for g in groups.CONFIG_GROUPS:
            for cfg in kummer.singular_configs(g):
                yield (f"{cfg}   [{_rho(cfg)}]",
                       {"group": str(g), "case": cfg.case, "config": str(cfg)})
    elif which == "rigidalg":
        from . import groups

        for g in groups.GroupId:
            alg = groups.rigid_algebra(g)
            yield f"Q[{g}]^rig = {alg}", {"group": str(g), "algebra": str(alg)}
    elif which == "alginj":
        from . import brauer, groups

        for g in groups.GroupId:
            try:
                ok = brauer.rigid_embeds_in_m2hp(g, p)
            except Rejected:  # no embedding row for g
                continue
            yield f"Q[{g}]^rig {_EMBEDS[ok]} in M(2, H_{p})", {"group": str(g), "embeds": ok}
    else:
        from . import kummer

        for row in kummer.trace_table("even" if which == "sszeta1" else "odd", p):
            yield (f"Tr = {row.trace:3d}  Z = {row.notation:18s} G = {row.group}  "
                   f"({row.p_condition})  f = {row.weil_shape}",
                   {"trace": row.trace, "notation": row.notation, "group": str(row.group),
                    "p_condition": str(row.p_condition), "weil_shape": row.weil_shape})


def cmd_tables(args):
    if args.which == "alginj" and args.p is None:
        raise UsageError("tables --which alginj needs --p")
    if args.which in ("sing", "rigidalg") and args.p is not None:
        raise UsageError(f"tables --which {args.which} takes no --p")
    rows = list(_table(args.which, args.p))
    args.citation = args.which
    if args.json:
        return {"which": args.which, "p": args.p}, {"result": [record for _, record in rows]}
    if args.which in ("sszeta1", "sszeta2") and args.p == 2:  # kummer.trace_table: no rows
        return {"which": args.which, "p": 2}, ["no row holds at p = 2: every row needs an odd p"]
    return {"which": args.which, "p": args.p}, [line for line, _ in rows]


def cmd_selftest(args):
    from . import brauer, existence, groups, kummer

    checks = []

    # every singularity configuration is orbit-consistent and within rank 22
    for g in groups.CONFIG_GROUPS:
        for cfg in kummer.singular_configs(g):
            bound, _ = kummer.ns_rank_bound(cfg)
            checks.append((f"config {g} case {cfg.case or '-'}", bound <= 22))

    # trace tables are internally consistent
    for parity in ("even", "odd"):
        for row in kummer.trace_table(parity):
            cp = kummer.parse_zeta_notation(row.notation)
            checks.append((f"trace row {parity}/{row.notation}",
                           kummer.trace_of(cp) == row.trace))

    # local-degree test agrees with column I of the even-degree table
    checks.append(("embedding cross-check p < 50", all(
        brauer.rigid_embeds_in_m2hp(g, p) == existence.exists_over_even_degree(g, p).exists_rigid
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
        for g in existence.EVEN_DEGREE_GROUPS)))

    passed = sum(good for _, good in checks)
    args.status = 0 if passed == len(checks) else 1
    if args.json:
        return {}, {"result": [{"check": name, "ok": good} for name, good in checks],
                    "passed": passed, "total": len(checks)}
    return {}, [f"{'ok' if good else 'FAIL'}  {name}" for name, good in checks] + [
        f"{passed}/{len(checks)} checks passed"]


# ---------------------------------------------------------------------------
# parser

_NEEDED_Q = {"type": _prime_power, "required": True}
_NEEDED_GROUP = {"type": _group, "required": True}

# name: (help, function, citation, {flag: keywords of add_argument})
_COMMANDS = {
    "weil-list": ("enumerate elliptic isogeny classes over F_q", cmd_weil_list,
                  "elliptic isogeny classification", {"--q": _NEEDED_Q}),
    "weil-check": ("validate a Weil polynomial", cmd_weil_check,
                   "Weil polynomial classification", {
        "--q": _NEEDED_Q,
        "--b": {"type": int, "help": "elliptic trace of Frobenius"},
        "--a1": {"type": int, "help": "quartic coefficient a1"},
        "--a2": {"type": int, "help": "quartic coefficient a2"},
        "--square": {"type": _quadratic,
                     "help": "monic quadratic P (coefficients c0,c1,1) for f = P^2"}}),
    "embed-check": ("rigid group algebra into M(2, H_p)", cmd_embed_check, "embedding table",
                    {"--group": _NEEDED_GROUP, "--p": {"type": _prime, "required": True}}),
    "exists": ("existence of rigid/symplectic actions", cmd_exists, "existence classification", {
        "--group": _NEEDED_GROUP, "--p": {"type": _prime}, "--q": {"type": _prime_power},
        "--parity": {"choices": ("even", "odd", "prime"),
                     "help": "default: odd for an odd-degree --q (q = p too), else even"},
        "--refine": {"action": "store_true", "help": "apply the quotient-surface refinement"}}),
    "sing-config": ("singularity configuration of the quotient", cmd_sing_config,
                    "singularity configuration table", {"--group": _NEEDED_GROUP}),
    "zeta-assemble": ("assemble the NS characteristic polynomial", cmd_zeta_assemble,
                      "zeta assembly", {
        "--q": _NEEDED_Q, "--group": {"type": _group},
        "--eps": {"type": int, "choices": (1, -1), "help": "default: -1"},
        "--orbit": {"type": _parse_orbit, "action": "append",
                    "help": "orbit spec ADE,count,degree,action (repeatable)"},
        "--notation": {"type": _notation, "help": "direct notation such as 1^20,2^2"}}),
    "tables": ("print a stored or derived table", cmd_tables, "reference tables", {
        "--which": {"choices": ("sing", "sszeta1", "sszeta2", "rigidalg", "alginj"),
                    "required": True},
        "--p": {"type": _prime, "help": "for alginj (needed), sszeta1 and sszeta2"}}),
    "selftest": ("run internal consistency checks", cmd_selftest, None, {}),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or with only `command`'s subparser
    built: the one a call that names it parses with (see main)."""
    parser = argparse.ArgumentParser(
        prog="gkzeta",
        description="exact arithmetic for supersingular quotient surfaces")
    parser.set_defaults(status=0)
    # one subparser still lists every command in the top-level usage; the full
    # parser names none, since its errors name the argument by its metavar
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (summary, func, citation, arguments) in _COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=summary)
            for flag, keywords in arguments.items():
                p.add_argument(flag, **keywords)
            # last, so that every usage line ends in [--json]
            p.add_argument("--json", action="store_true", help="machine-readable output")
            p.set_defaults(func=func, citation=citation)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        query, out = args.func(args)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 2
    except Rejected as exc:
        print(f"rejected: {exc.reason} [{exc.citation or args.citation}]", file=sys.stderr)
        return 1
    try:
        if args.json:
            import json

            cited = {"citations": [args.citation]} if args.citation else {}
            print(json.dumps({"query": {"command": args.command, **query}, **out, **cited},
                             indent=2))
        else:
            for line in out:
                print(line)
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
    except BrokenPipeError:  # the reader stopped reading: the answer stands, silently
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())  # the flush at exit writes there
        os.close(devnull)
    return args.status


if __name__ == "__main__":
    sys.exit(main())
