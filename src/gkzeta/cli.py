"""Command-line interface.

Exit codes: 0 on success, 1 when the query is rejected on mathematical
grounds (with a one-line cited reason), 2 on invalid arguments.

Each subcommand and argument type imports the layers it uses when it runs,
so a one-shot call loads only those (see README, "Start-up").
"""
from __future__ import annotations

import argparse
import json
import sys

from .errors import Rejected
from .numtheory import IntPolynomial, PrimePower, is_prime


def _emit(args, human_lines, payload):
    if args.json:
        print(json.dumps(payload, indent=2, default=str))
    else:
        for line in human_lines:
            print(line)


def _prime_power(s: str) -> PrimePower:
    try:
        return PrimePower.from_q(int(s))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _prime(s: str) -> int:
    p = int(s)
    if not is_prime(p):
        raise argparse.ArgumentTypeError(f"{p} is not prime")
    return p


def _quadratic(s: str) -> IntPolynomial:
    try:
        return IntPolynomial(int(c) for c in s.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{s!r} is not a comma-separated list of integers")


def _notation(s: str) -> kummer.NSCharPoly:
    from . import kummer

    try:
        return kummer.parse_zeta_notation(s)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{s!r} is not a notation such as 1^20,2^2: {exc}")


def _group(s: str) -> groups.GroupId:
    from . import groups

    try:
        return groups.parse_group(s)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


# ---------------------------------------------------------------------------
# subcommands

def cmd_weil_list(args) -> int:
    from . import weil

    q = args.q
    descs = weil.enumerate_elliptic(q)
    # only the selected output is built: each polynomial is formatted once
    lines = payload = None
    if args.json:
        rows = [{"b": -w.poly[1], "poly": str(w.poly), "newton": w.newton.value, "case": w.case}
                for w in descs]
        payload = {"query": {"command": "weil-list", "q": q.q},
                   "result": rows,
                   "citations": ["elliptic isogeny classification"]}
    else:
        lines = [f"isogeny classes of elliptic curves over F_{q.q}:"]
        lines += [f"  b = {-w.poly[1]:4d}  f = {w.poly}  {w.newton.value:14s} [{w.case}]"
                  for w in descs]
    _emit(args, lines, payload)
    return 0


def cmd_weil_check(args) -> int:
    from . import weil

    q = args.q
    if args.b is not None:
        w = weil.validate_elliptic(q, args.b)
    elif args.square is not None:
        w = weil.validate_surface_simple(q, square_of=args.square)
    elif args.a1 is not None and args.a2 is not None:
        w = weil.validate_surface_simple(q, a1=args.a1, a2=args.a2)
    else:
        print("weil-check needs --b, or --a1 and --a2, or --square", file=sys.stderr)
        return 2
    # only the selected output is built: the slopes are printed, not sent
    lines = payload = None
    if args.json:
        payload = {"query": {"command": "weil-check", "q": q.q},
                   "verdict": {"valid": True, "poly": str(w.poly), "e": w.e,
                               "newton": w.newton.value, "endo": str(w.endo), "case": w.case},
                   "citations": ["Weil polynomial classification"]}
    else:
        slopes = ",".join(w.slopes())
        lines = [
            f"valid: f = {w.poly} over F_{q.q} (dim {w.dim}, e = {w.e})",
            f"newton: {w.newton.value} (slopes {slopes})",
            f"endomorphism algebra: {w.endo}",
            f"case: {w.case}",
        ]
    _emit(args, lines, payload)
    return 0


def cmd_embed_check(args) -> int:
    from . import brauer, groups

    ok = brauer.rigid_embeds_in_m2hp(args.group, args.p)
    alg = groups.rigid_algebra(args.group)
    verdict = "embeds" if ok else "does not embed"
    lines = [f"Q[{args.group}]^rig = {alg} {verdict} in M(2, H_{args.p}) [embedding table]"]
    payload = {"query": {"command": "embed-check", "group": str(args.group), "p": args.p},
               "verdict": ok,
               "algebra": str(alg),
               "citations": ["embedding table"]}
    _emit(args, lines, payload)
    return 0


_ANSWER = {True: "yes", False: "no", None: "not determined"}


def _verdict_lines(v: existence.ExistenceVerdict) -> list[str]:
    lines = [f"group {v.group}:",
             f"  rigid action: {_ANSWER[v.exists_rigid]} [{v.citation}]",
             f"  rigid symplectic action: {_ANSWER[v.exists_rigid_symplectic]} [{v.citation}]"]
    for text, val in v.conditions:
        mark = {True: "holds", False: "fails", None: "undetermined"}[val]
        lines.append(f"  condition: {text} -> {mark}")
    for opt in v.weil_options:
        mark = {True: "available", False: "excluded", None: "undetermined"}[opt.satisfied]
        lines.append(f"  weil option {opt.shape}: {opt.condition} -> {mark}")
    return lines


def _verdict_payload(cmd: str, v: existence.ExistenceVerdict, extra: dict) -> dict:
    return {
        "query": {"command": cmd, "group": str(v.group), **extra},
        "verdict": {"rigid": v.exists_rigid, "symplectic": v.exists_rigid_symplectic},
        "conditions": [{"condition": t, "holds": val} for t, val in v.conditions],
        "weil_options": [
            {"shape": o.shape, "poly": str(o.poly) if o.poly else None,
             "condition": o.condition, "satisfied": o.satisfied}
            for o in v.weil_options],
        "citations": [v.citation],
    }


def cmd_exists(args) -> int:
    from . import existence

    g = args.group
    if args.refine:
        q = args.q if args.q else PrimePower(args.p, 2 if args.parity == "even" else 1)
        v = existence.katsura_refinement(g, q)
        extra = {"q": q.q, "refine": True}
    elif args.parity == "even":
        v = existence.exists_over_even_degree(g, args.p)
        extra = {"p": args.p, "parity": "even"}
    elif args.parity == "prime":
        v = existence.exists_over_prime_field(g, args.p)
        extra = {"p": args.p, "parity": "prime"}
    else:
        q = args.q if args.q else PrimePower(args.p, 1)
        if not q.degree_is_odd:
            print("--parity odd needs an odd-degree --q", file=sys.stderr)
            return 2
        v = existence.exists_over_odd_degree(g, q)
        extra = {"q": q.q, "parity": "odd"}
    _emit(args, _verdict_lines(v), _verdict_payload("exists", v, extra))
    return 0


def cmd_sing_config(args) -> int:
    from . import kummer

    cfgs = kummer.singular_configs(args.group)
    lines, rows = [], []
    for cfg in cfgs:
        bound, exact = kummer.ns_rank_bound(cfg)
        rel = "=" if exact else ">="
        lines.append(f"{cfg}   [{cfg.total_nodes} nodes, rho {rel} {bound}]")
        rows.append({"case": cfg.case,
                     "orbits": [{"ade": str(o.ade), "count": o.count} for o in cfg.orbits],
                     "nodes": cfg.total_nodes,
                     "rank_bound": bound, "rank_exact": exact})
    payload = {"query": {"command": "sing-config", "group": str(args.group)},
               "result": rows,
               "citations": ["singularity configuration table"]}
    _emit(args, lines, payload)
    return 0


def _parse_orbit(spec: str) -> kummer.SingularOrbit:
    # format: ADE,count,degree,action  e.g.  A3,2,2,trivial
    from . import kummer

    try:
        ade_s, count_s, deg_s, action = spec.split(",")
        ade = kummer.ADEType(ade_s[0].upper(), int(ade_s[1:]))
        return kummer.SingularOrbit(ade, int(count_s), int(deg_s), action)
    except (ValueError, IndexError) as exc:
        raise argparse.ArgumentTypeError(f"bad orbit spec {spec!r}: {exc}")


def cmd_zeta_assemble(args) -> int:
    from . import kummer

    q = args.q
    if args.notation:
        cp = args.notation
    else:
        cp = kummer.assemble_ns(args.orbit or (), kummer.invariant_h_poly(args.group, args.eps))
    if not kummer.artin_check(q, cp):
        raise Rejected(f"{cp} is impossible over a field of odd degree",
                       "odd-degree trace constraint")
    tr = kummer.trace_of(cp)
    n1 = kummer.k3_point_count(q, cp)
    z = kummer.k3_zeta(q, cp)
    lines = [
        f"characteristic polynomial: {cp}",
        f"trace: {tr}",
        f"|X(F_{q.q})| = {n1}",
        f"zeta: {z}",
    ]
    payload = {"query": {"command": "zeta-assemble", "q": q.q},
               "result": {"notation": str(cp), "trace": tr, "points": n1, "zeta": str(z)},
               "citations": ["zeta assembly"]}
    _emit(args, lines, payload)
    return 0


def cmd_tables(args) -> int:
    lines, rows = [], []
    if args.which == "sing":
        from . import groups, kummer

        for g in groups.CONFIG_GROUPS:
            for cfg in kummer.singular_configs(g):
                bound, exact = kummer.ns_rank_bound(cfg)
                rel = "=" if exact else ">="
                lines.append(f"{cfg}   [rho {rel} {bound}]")
                rows.append({"group": str(g), "case": cfg.case, "config": str(cfg)})
    elif args.which in ("sszeta1", "sszeta2"):
        from . import kummer

        parity = "even" if args.which == "sszeta1" else "odd"
        for row in kummer.trace_table(parity, args.p):
            lines.append(f"Tr = {row.trace:3d}  Z = {row.notation:18s} G = {row.group}  "
                         f"({row.p_condition})  f = {row.weil_shape}")
            rows.append({"trace": row.trace, "notation": row.notation,
                         "group": str(row.group), "p_condition": str(row.p_condition),
                         "weil_shape": row.weil_shape})
    elif args.which == "rigidalg":
        from . import groups

        for g in groups.GroupId:
            alg = groups.rigid_algebra(g)
            lines.append(f"Q[{g}]^rig = {alg}")
            rows.append({"group": str(g), "algebra": str(alg)})
    elif args.which == "alginj":
        if args.p is None:
            print("tables --which alginj needs --p", file=sys.stderr)
            return 2
        from . import brauer, existence, groups

        for g in groups.GroupId:
            if g not in existence.EVEN_DEGREE_GROUPS:
                continue
            ok = brauer.rigid_embeds_in_m2hp(g, args.p)
            verdict = "embeds" if ok else "does not embed"
            lines.append(f"Q[{g}]^rig {verdict} in M(2, H_{args.p})")
            rows.append({"group": str(g), "embeds": ok})
    payload = {"query": {"command": "tables", "which": args.which, "p": args.p},
               "result": rows,
               "citations": [args.which]}
    _emit(args, lines, payload)
    return 0


def cmd_selftest(args) -> int:
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
    lines = [f"{'ok' if good else 'FAIL'}  {name}" for name, good in checks]
    lines.append(f"{passed}/{len(checks)} checks passed")
    payload = {"query": {"command": "selftest"},
               "result": [{"check": name, "ok": good} for name, good in checks],
               "passed": passed, "total": len(checks)}
    _emit(args, lines, payload)
    return 0 if passed == len(checks) else 1


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gkzeta",
        description="exact arithmetic for supersingular quotient surfaces")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("weil-list", help="enumerate elliptic isogeny classes over F_q")
    p.add_argument("--q", type=_prime_power, required=True)
    add_json(p)
    p.set_defaults(func=cmd_weil_list, citation="elliptic isogeny classification")

    p = sub.add_parser("weil-check", help="validate a Weil polynomial")
    p.add_argument("--q", type=_prime_power, required=True)
    p.add_argument("--b", type=int, help="elliptic trace of Frobenius")
    p.add_argument("--a1", type=int, help="quartic coefficient a1")
    p.add_argument("--a2", type=int, help="quartic coefficient a2")
    p.add_argument("--square", type=_quadratic,
                   help="monic quadratic P (coefficients c0,c1,1) for f = P^2")
    add_json(p)
    p.set_defaults(func=cmd_weil_check, citation="Weil polynomial classification")

    p = sub.add_parser("embed-check", help="rigid group algebra into M(2, H_p)")
    p.add_argument("--group", type=_group, required=True)
    p.add_argument("--p", type=_prime, required=True)
    add_json(p)
    p.set_defaults(func=cmd_embed_check, citation="embedding table")

    p = sub.add_parser("exists", help="existence of rigid/symplectic actions")
    p.add_argument("--group", type=_group, required=True)
    p.add_argument("--p", type=_prime)
    p.add_argument("--q", type=_prime_power)
    p.add_argument("--parity", choices=("even", "odd", "prime"), default="even")
    p.add_argument("--refine", action="store_true",
                   help="apply the quotient-surface refinement")
    add_json(p)
    p.set_defaults(func=cmd_exists, citation="existence classification")

    p = sub.add_parser("sing-config", help="singularity configuration of the quotient")
    p.add_argument("--group", type=_group, required=True)
    add_json(p)
    p.set_defaults(func=cmd_sing_config, citation="singularity configuration table")

    p = sub.add_parser("zeta-assemble", help="assemble the NS characteristic polynomial")
    p.add_argument("--q", type=_prime_power, required=True)
    p.add_argument("--group", type=_group)
    p.add_argument("--eps", type=int, choices=(1, -1), default=-1)
    p.add_argument("--orbit", type=_parse_orbit, action="append",
                   help="orbit spec ADE,count,degree,action (repeatable)")
    p.add_argument("--notation", type=_notation, help="direct notation such as 1^20,2^2")
    add_json(p)
    p.set_defaults(func=cmd_zeta_assemble, citation="zeta assembly")

    p = sub.add_parser("tables", help="print a stored or derived table")
    p.add_argument("--which", choices=("sing", "sszeta1", "sszeta2", "rigidalg", "alginj"),
                   required=True)
    p.add_argument("--p", type=_prime)
    add_json(p)
    p.set_defaults(func=cmd_tables, citation="reference tables")

    p = sub.add_parser("selftest", help="run internal consistency checks")
    add_json(p)
    p.set_defaults(func=cmd_selftest, citation="selftest")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    # argument cross-requirements
    if args.command == "exists":
        if args.p is None and args.q is None:
            print("exists --refine needs --q or --p" if args.refine
                  else "exists needs --p (or --q)", file=sys.stderr)
            return 2
        if args.p is None:
            args.p = args.q.p
        elif args.q is not None and args.q.p != args.p:
            print(f"exists: --q {args.q.q} is not a power of --p {args.p}", file=sys.stderr)
            return 2
    if args.command == "zeta-assemble" and not args.notation and args.group is None:
        print("zeta-assemble needs --group (with --orbit) or --notation", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except Rejected as exc:
        print(f"rejected: {exc.reason} [{exc.citation or args.citation}]", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
