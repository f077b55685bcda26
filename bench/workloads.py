"""The three benchmark workloads.

Each workload turns a seed into a fixed list of inputs, runs one operation
per input through the library functions it is given (by layer name, so the
runner can trace them), and checks each answer against `checks`, outside
the timed region. A check returns None when the answer is right and a short
reason when it is not.
"""
from __future__ import annotations

import bisect
import json
import math
import os
import random
import re
import subprocess
import sys
from math import isqrt

import checks as C

# A rejection is any ValueError: every rejection class of the library
# (Rejected, UnsupportedGroup, ReciprocityError) derives from it.
REJECTED = "rejected"


def _try(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return REJECTED


def _value(verdict):
    return REJECTED if verdict == REJECTED else verdict.exists_rigid


# ---------------------------------------------------------------------------
# tables-sweep

class TablesSweep:
    """Every table of the paper for one prime p per operation."""

    name = "tables-sweep"
    in_process = True
    block = 1
    PRIMES = 750
    PRIME_BOUND = 20000

    def __init__(self, seed: int):
        pool = C.primes_below(self.PRIME_BOUND)
        self.inputs = random.Random(seed).sample(pool, self.PRIMES)
        self.params = {"primes": self.PRIMES, "prime_bound": self.PRIME_BOUND,
                       "groups": len(C.ALL_GROUPS), "config_groups": len(C.CONFIG_GROUPS)}

    def functions(self) -> dict:
        from gkzeta import brauer, existence, groups, kummer, numtheory

        self.groups = [(name, groups.parse_group(name)) for name in C.ALL_GROUPS]
        self.config = self.groups[:len(C.CONFIG_GROUPS)]
        return {
            "numtheory.is_prime": numtheory.is_prime,
            "numtheory.PrimePower.from_q": numtheory.PrimePower.from_q,
            "groups.rigid_algebra": groups.rigid_algebra,
            "brauer.rigid_embeds_in_m2hp": brauer.rigid_embeds_in_m2hp,
            "existence.exists_over_even_degree": existence.exists_over_even_degree,
            "existence.exists_over_prime_field": existence.exists_over_prime_field,
            "existence.katsura_refinement": existence.katsura_refinement,
            "kummer.trace_table": kummer.trace_table,
            "kummer.parse_zeta_notation": kummer.parse_zeta_notation,
            "kummer.trace_of": kummer.trace_of,
            "kummer.k3_point_count": kummer.k3_point_count,
            "kummer.k3_zeta": kummer.k3_zeta,
        }

    def op(self, api, p: int):
        prime = api.is_prime(p)
        # q = p^2 and p^3 arrive as text, the way the CLI reads --q
        q2 = api.from_q(int(str(p * p)))
        q3 = api.from_q(int(str(p ** 3)))
        algebras = [api.rigid_algebra(g) for _, g in self.groups]
        embeds = [_try(api.rigid_embeds_in_m2hp, g, p) for _, g in self.groups]
        existence = [(_try(api.exists_over_even_degree, g, p),
                      _try(api.exists_over_prime_field, g, p),
                      _try(api.katsura_refinement, g, q2),
                      _try(api.katsura_refinement, g, q3)) for _, g in self.config]
        zeta = []
        for parity, q in (("even", q2), ("odd", q3)):
            for row in api.trace_table(parity, p):
                cp = api.parse_zeta_notation(row.notation)
                zeta.append((parity, q, row, api.trace_of(cp),
                             api.k3_point_count(q, cp), api.k3_zeta(q, cp)))
        return prime, q2, q3, algebras, embeds, existence, zeta

    def check(self, p: int, out) -> str | None:
        prime, q2, q3, algebras, embeds, existence, zeta = out
        if prime is not True:
            return "is_prime rejected a prime"
        if (q2.p, q2.n, q3.p, q3.n) != (p, 2, p, 3):
            return "from_q factored p^2 or p^3 wrongly"
        for (name, _), alg, emb in zip(self.groups, algebras, embeds):
            if C.algebra_shape(alg) != C.RIGID_ALGEBRA[name]:
                return f"rigid algebra of {name}"
            want = C.embeds(name, p)
            if emb != (REJECTED if want is None else want):
                return f"embedding of {name} in M(2, H_{p})"
        for (name, _), (even, prime_f, ref2, ref3) in zip(self.config, existence):
            want = C.even_exists(name, p)
            got = REJECTED if even == REJECTED else (even.exists_rigid,
                                                     even.exists_rigid_symplectic)
            if got != (REJECTED if want is None else want):
                return f"even-degree existence of {name} at p = {p}"
            if prime_f.exists_rigid != C.prime_field_exists(name, p):
                return f"prime-field existence of {name} at p = {p}"
            for ref, odd in ((ref2, False), (ref3, True)):
                want = C.refined_exists(name, p, odd)
                if _value(ref) != (REJECTED if want is None else want):
                    return f"refinement of {name} at p = {p}, odd degree {odd}"
        got_rows = [(parity, row.trace, row.notation, str(row.group))
                    for parity, _, row, _, _, _ in zeta]
        want_rows = [(parity, *row) for parity in ("even", "odd")
                     for row in C.trace_rows(parity, p)]
        if got_rows != want_rows:
            return f"trace table rows at p = {p}"
        for _, q, row, tr, count, z in zeta:
            qq = q.q
            if tr != row.trace or tr != C.notation_trace(row.notation):
                return f"trace of {row.notation}"
            if count != 1 + qq * tr + qq * qq:
                return f"|X(F_q)| for {row.notation} at q = {qq}"
            factors = [(tuple(f.coeffs), m) for f, m in z.denominator]
            if sum(m * (len(c) - 1) for c, m in factors) != 24:
                return f"zeta degree for {row.notation}"
            if lefschetz(factors, 1) != count:
                return f"zeta of {row.notation} at q = {qq} disagrees with |X(F_q)|"
        return None


def lefschetz(factors, r: int, signs=None) -> int:
    """Sum of (+-) traces of F^r read off factors prod(1 - gamma t)^m."""
    total = 0
    for i, (coeffs, m) in enumerate(factors):
        s = C.power_sums(tuple(reversed(coeffs)), r)[r]
        total += (signs[i] if signs else 1) * m * s
    return total


# ---------------------------------------------------------------------------
# weil-scan

class WeilScan:
    """Elliptic enumeration and abelian-surface validation, counts and zeta
    functions for one q per operation."""

    name = "weil-scan"
    in_process = True
    block = 1
    Q_RANGE = (100, 100000)
    PRIMES, SQUARES, HIGHER = 200, 40, 30
    CANDIDATES = 3
    R_MAX = 100
    R_BAND = 20

    def __init__(self, seed: int):
        rng = random.Random(seed)
        lo, hi = self.Q_RANGE
        plist = C.primes_below(hi + 1)
        # primes: one per interval of equal width in log q
        qs = []
        step = math.log(hi / lo) / self.PRIMES
        for i in range(self.PRIMES):
            x = lo * math.exp(step * (i + rng.random()))
            qs.append((plist[min(bisect.bisect_left(plist, x), len(plist) - 1)], 1))
        squares = [(p, 2) for p in plist if lo <= p * p <= hi]
        higher = sorted(((p, k) for p in plist if p ** 3 <= hi
                         for k in range(3, 17) if lo <= p ** k <= hi),
                        key=lambda pk: pk[0] ** pk[1])
        qs += _spread(rng, squares, self.SQUARES) + _spread(rng, higher, self.HIGHER)
        # Two q in three, in ascending order, get one candidate inside the Weil
        # region and two outside; the rest get three outside. Each band of
        # R_BAND consecutive inside candidates takes its r values from a
        # jittered grid over [2, R_MAX]. Fixing the mix this way keeps the
        # latency distribution the same from seed to seed.
        qs.sort(key=lambda pn: pn[0] ** pn[1])
        with_inside = [i % 3 != 0 for i in range(len(qs))]
        rs = []
        for _ in range(sum(with_inside) // self.R_BAND):
            band = [2 + int((j + rng.random()) * (self.R_MAX - 1) / self.R_BAND)
                    for j in range(self.R_BAND)]
            rng.shuffle(band)
            rs += band
        self.inputs = []
        for (p, n), has_inside in zip(qs, with_inside):
            q = p ** n
            inside = rng.randrange(self.CANDIDATES) if has_inside else None
            cands = tuple(self._candidate(rng, q, j == inside, rs.pop() if j == inside else 1)
                          for j in range(self.CANDIDATES))
            self.inputs.append((q, p, n, cands))
        rng.shuffle(self.inputs)
        self.params = {"q_range": list(self.Q_RANGE), "primes": self.PRIMES,
                       "prime_squares": self.SQUARES, "higher_powers": self.HIGHER,
                       "max_exponent": max(n for _, n in qs),
                       "candidates_per_q": self.CANDIDATES,
                       "candidate_box": "|a1| <= 4 sqrt(q), -2q <= a2 <= 6q",
                       "inside_weil_region": "one candidate for two q in three",
                       "r_range": [2, self.R_MAX]}

    @staticmethod
    def _candidate(rng, q, inside, r):
        box = isqrt(16 * q)
        while True:
            a1, a2 = rng.randint(-box, box), rng.randint(-2 * q, 6 * q)
            if C.in_weil_box(q, a1, a2) == inside:
                return a1, a2, r

    def functions(self) -> dict:
        from gkzeta import numtheory, weil

        return {
            "numtheory.PrimePower.from_q": numtheory.PrimePower.from_q,
            "weil.enumerate_elliptic": weil.enumerate_elliptic,
            "weil.validate_surface_simple": weil.validate_surface_simple,
            "weil.abelian_point_count": weil.abelian_point_count,
            "weil.abelian_zeta": weil.abelian_zeta,
        }

    def op(self, api, x):
        q, _, _, cands = x
        pp = api.from_q(q)
        elliptic = api.enumerate_elliptic(pp)
        surfaces = []
        for a1, a2, r in cands:
            try:
                w = api.validate_surface_simple(pp, a1=a1, a2=a2)
            except ValueError:
                surfaces.append(REJECTED)
                continue
            surfaces.append((w, api.abelian_point_count(w, 1),
                             api.abelian_point_count(w, r), api.abelian_zeta(w)))
        return pp, elliptic, surfaces

    def check(self, x, out) -> str | None:
        q, p, n, cands = x
        pp, elliptic, surfaces = out
        if (pp.p, pp.n) != (p, n):
            return f"from_q({q})"
        if [-w.poly[1] for w in elliptic] != C.elliptic_traces(p, n):
            return f"elliptic classes over F_{q}"
        for (a1, a2, r), s in zip(cands, surfaces):
            where = f"(a1, a2) = ({a1}, {a2}) over F_{q}"
            if s == REJECTED:
                continue
            w, n1, nr, zeta = s
            coeffs = (q * q, a1 * q, a2, a1, 1)
            if not C.in_weil_box(q, a1, a2) or C.splits_through_trace(q, a1, a2):
                return f"accepted {where}, which is outside the Weil box or reducible"
            if tuple(w.poly.coeffs) != coeffs:
                return f"polynomial of {where}"
            if w.newton.value != C.newton_type(coeffs, p, n):
                return f"Newton type of {where}"
            if n1 != C.point_count(coeffs, 1) or nr != C.point_count(coeffs, r):
                return f"point count of {where} at r = 1 or {r}"
            factors = [(tuple(f.coeffs), 1) for f in zeta]
            if [len(c) - 1 for c, _ in factors] != [1, 4, 6, 4, 1]:
                return f"zeta factor degrees of {where}"
            for k in range(1, 7):
                if lefschetz(factors, k, (1, -1, 1, -1, 1)) != C.point_count(coeffs, k):
                    return f"zeta of {where} disagrees with |A(F_q^{k})|"
        return None


def _spread(rng, pool, k):
    """k draws from a sorted pool, one from each of k equal slices."""
    return [rng.choice(pool[i * len(pool) // k:(i + 1) * len(pool) // k]) for i in range(k)]


# ---------------------------------------------------------------------------
# cli-session

_REJECT_LINE = re.compile(r"^rejected: .+ \[.+\]$", re.M)
SMALL_PRIMES = [p for p in C.primes_below(100) if p >= 5]
SMALL_PRIME_POWERS = [(p, k) for p in C.primes_below(50) for k in (1, 2, 3) if p ** k <= 2000]
ODD_POWERS = [(p, k) for p in C.primes_below(50) for k in (1, 3) if p ** k <= 2000]
NON_CONFIG = [g for g in C.ALL_GROUPS if g not in C.CONFIG_GROUPS]

# The known defects: each argv below has a contract-conforming outcome, which
# the library does not reach yet.
KNOWN_DEFECTS = (
    (["weil-check", "--q", "7", "--square=a,b"], {2}),
    (["zeta-assemble", "--q", "9", "--notation", "1^x"], {2}),
    (["zeta-assemble", "--q", "9", "--notation", "0^22"], {1, 2}),
    # 318665857834031151167461 = 399165290221 * 798330580441
    (["embed-check", "--group", "C8", "--p", "318665857834031151167461"], {2}),
    (["selftest", "--json"], {0}),
)


def _json(argv):
    return argv + ["--json"]


def _pick_pp(rng, pool=SMALL_PRIME_POWERS):
    p, k = rng.choice(pool)
    return p, k, p ** k


def _tmpl_weil_list(rng, as_json):
    p, k, q = _pick_pp(rng)
    want = C.elliptic_traces(p, k)
    if as_json:
        return _json(["weil-list", "--q", str(q)]), {0}, \
            lambda out: [row["b"] for row in out["result"]] == want
    return ["weil-list", "--q", str(q)], {0}, lambda out: out.count("\n") == len(want) + 1


def _tmpl_weil_b(rng, as_json):
    p, k, q = _pick_pp(rng)
    traces = C.elliptic_traces(p, k)
    if not as_json:
        return ["weil-check", "--q", str(q), "--b", str(rng.choice(traces))], {0}, None
    b = rng.randint(-isqrt(4 * q), isqrt(4 * q))
    code = 0 if b in traces else 1
    return _json(["weil-check", "--q", str(q), "--b", str(b)]), {code}, \
        lambda out: out["verdict"]["valid"] is True


def _tmpl_ss_quartic(rng, as_json):
    p = rng.choice(SMALL_PRIMES)
    if as_json:
        return _json(["weil-check", "--q", str(p), "--a1", "0", "--a2", "0"]), {0}, \
            lambda out: out["verdict"]["case"] == "ss-i"
    return ["weil-check", "--q", str(p), "--a1", "0", "--a2", str(p)], {0}, \
        lambda out: "supersingular" in out


def _tmpl_square(rng, _):
    p, k, q = _pick_pp(rng, ODD_POWERS)
    return _json(["weil-check", "--q", str(q), f"--square=-{q},0,1"]), {0}, \
        lambda out: out["verdict"]["case"] == "ss-square-odd"


def _tmpl_embed(rng, as_json):
    g, p = rng.choice(C.ALL_GROUPS), rng.choice(C.primes_below(200))
    want = C.embeds(g, p)
    argv = ["embed-check", "--group", g, "--p", str(p)]
    if want is None:
        return argv, {1}, None
    if as_json:
        return _json(argv), {0}, lambda out: out["verdict"] is want
    return argv, {0}, lambda out: ("does not embed" in out) is (not want)


def _tmpl_exists_even(rng, as_json):
    g, p = rng.choice(C.CONFIG_GROUPS), rng.choice(C.primes_below(200))
    want = C.even_exists(g, p)
    argv = ["exists", "--group", g, "--p", str(p)]
    if want is None:
        return argv, {1}, None
    if as_json:
        return _json(argv + ["--parity", "even"]), {0}, \
            lambda out: (out["verdict"]["rigid"], out["verdict"]["symplectic"]) == want
    word = {True: "yes", False: "no"}
    return argv, {0}, lambda out: f"rigid action: {word[want[0]]}" in out


def _tmpl_exists_prime(rng, _):
    g, p = rng.choice(C.CONFIG_GROUPS), rng.choice(C.primes_below(200))
    want = C.prime_field_exists(g, p)
    return _json(["exists", "--group", g, "--p", str(p), "--parity", "prime"]), {0}, \
        lambda out: out["verdict"]["rigid"] is want


def _tmpl_exists_odd(rng, _):
    g = rng.choice(sorted(C.ODD_SQUARE_SHAPES))
    p = rng.choice([p for p in SMALL_PRIMES if p ** 3 <= 200000])
    minus, plus = (cond(p) for cond in C.ODD_SQUARE_SHAPES[g])

    def check(out):
        shapes = {o["shape"]: o["satisfied"] for o in out["weil_options"]}
        return (shapes["(t^2 - q)^2"], shapes["(t^2 + q)^2"]) == (minus, plus)
    return _json(["exists", "--group", g, "--q", str(p ** 3), "--parity", "odd"]), {0}, check


def _tmpl_refine(rng, _):
    g = rng.choice(C.CONFIG_GROUPS)
    p, k, q = _pick_pp(rng)
    want = C.refined_exists(g, p, k % 2 == 1)
    argv = _json(["exists", "--group", g, "--q", str(q), "--refine"])
    if want is None:
        return argv, {1}, None
    return argv, {0}, lambda out: out["verdict"]["rigid"] is want


def _tmpl_sing(rng, as_json):
    g = rng.choice(C.CONFIG_GROUPS)
    if as_json:
        return _json(["sing-config", "--group", g]), {0}, \
            lambda out: tuple(row["nodes"] for row in out["result"]) == C.CONFIG_NODES[g]
    return ["sing-config", "--group", g], {0}, \
        lambda out: out.count("\n") == len(C.CONFIG_NODES[g])


def _tmpl_notation(rng, as_json):
    p, k, q = _pick_pp(rng)
    _, notation, _, _ = rng.choice(C.EVEN_TRACE_ROWS + C.ODD_TRACE_ROWS)
    argv = ["zeta-assemble", "--q", str(q), "--notation", notation]
    if k % 2 and C.odd_degree_impossible(notation):
        return argv, {1}, None
    tr = C.notation_trace(notation)
    if as_json:
        return _json(argv), {0}, \
            lambda out: (out["result"]["trace"], out["result"]["points"]) == (tr, 1 + q * tr + q * q)
    return argv, {0}, lambda out: f"trace: {tr}\n" in out


def _tmpl_orbits(rng, _):
    p, k, q = _pick_pp(rng)
    argv = ["zeta-assemble", "--q", str(q), "--group", "Q8", "--eps", "-1",
            "--orbit", "D4,2,1,trivial", "--orbit", "A3,3,1,trivial", "--orbit", "A1,2,1,trivial"]
    return _json(argv), {0}, lambda out: out["result"]["notation"] == "1^21,2" and \
        (out["result"]["trace"], out["result"]["points"]) == (20, 1 + 20 * q + q * q)


def _tmpl_table(which):
    def make(rng, _):
        p = rng.choice(SMALL_PRIMES)
        with_p = which not in ("sing", "rigidalg")
        argv = _json(["tables", "--which", which] + (["--p", str(p)] if with_p else []))
        if which == "sing":
            check = lambda out: len(out["result"]) == sum(len(v) for v in C.CONFIG_NODES.values())
        elif which == "rigidalg":
            check = lambda out: [row["group"] for row in out["result"]] == list(C.ALL_GROUPS)
        elif which == "alginj":
            want = [(g, C.embeds(g, p)) for g in C.ALL_GROUPS if C.EMBEDS[g] is not None]
            check = lambda out: [(row["group"], row["embeds"]) for row in out["result"]] == want
        else:
            want = [tuple(row) for row in C.trace_rows("even" if which == "sszeta1" else "odd", p)]
            check = lambda out: [(row["trace"], row["notation"], row["group"])
                                 for row in out["result"]] == want
        return argv, {0}, check
    return make


def _tmpl_selftest(rng, _):
    return ["selftest"], {0}, lambda out: re.search(r"^(\d+)/\1 checks passed$", out, re.M) is not None


def _tmpl_malformed(kind):
    def make(rng, _):
        p = rng.choice(SMALL_PRIMES)
        if kind == "subcommand":
            argv = ["frobnicate", "--q", str(p)]
        elif kind == "q":
            argv = ["weil-list", "--q", str(2 * p)]
        elif kind == "group":
            argv = ["embed-check", "--group", "FOO", "--p", str(p)]
        elif kind == "p":
            argv = ["embed-check", "--group", rng.choice(C.ALL_GROUPS), "--p", str(p * p)]
        elif kind == "weil-args":
            argv = ["weil-check", "--q", str(p)]
        else:
            argv = ["exists", "--group", rng.choice(C.CONFIG_GROUPS), "--parity", "even"]
        return argv, {2}, None
    return make


def _tmpl_rejected(kind):
    def make(rng, _):
        p, k, q = _pick_pp(rng, ODD_POWERS)
        if kind == "weil-bound":
            b = isqrt(4 * q) + rng.randint(1, 5)
            argv = ["weil-check", "--q", str(q), "--b", str(rng.choice((b, -b)))]
        elif kind == "sing":
            argv = ["sing-config", "--group", rng.choice(NON_CONFIG)]
        elif kind == "artin":
            argv = ["zeta-assemble", "--q", str(q), "--notation", "1^22"]
        else:
            argv = ["exists", "--group", "C6", "--q", str(3 ** k), "--refine"]
        return argv, {1}, None
    return make


CLI_TEMPLATES = (
    [(t, False) for t in (_tmpl_weil_list, _tmpl_weil_b, _tmpl_ss_quartic, _tmpl_embed,
                          _tmpl_exists_even, _tmpl_sing, _tmpl_notation, _tmpl_selftest)]
    + [(t, True) for t in (_tmpl_weil_list, _tmpl_weil_b, _tmpl_ss_quartic, _tmpl_square,
                           _tmpl_embed, _tmpl_exists_even, _tmpl_exists_prime, _tmpl_exists_odd,
                           _tmpl_refine, _tmpl_sing, _tmpl_notation, _tmpl_orbits)]
    + [(_tmpl_table(w), True) for w in ("sing", "sszeta1", "sszeta2", "rigidalg", "alginj")]
    + [(_tmpl_malformed(k), False) for k in ("subcommand", "q", "group", "p", "weil-args", "exists")]
    + [(_tmpl_rejected(k), False) for k in ("weil-bound", "sing", "artin", "refine")]
)


class CliSession:
    """One-shot `python -m gkzeta.cli` processes, one per operation."""

    name = "cli-session"
    in_process = False
    TIMEOUT_S = 20.0

    def __init__(self, seed: int):
        rng = random.Random(seed)
        calls = [make(rng, as_json) + (False,) for make, as_json in CLI_TEMPLATES]
        rng.shuffle(calls)
        per_block = len(calls) // len(KNOWN_DEFECTS)
        self.inputs = []
        for i, (argv, codes) in enumerate(KNOWN_DEFECTS):
            block = calls[i * per_block:(i + 1) * per_block] + [(argv, codes, None, True)]
            rng.shuffle(block)
            self.inputs += block
        # the deadline is checked only between blocks, so every run attempts
        # the known defects at exactly the same share
        self.block = per_block + 1
        self.params = {"calls_per_session": len(self.inputs), "blocks": len(KNOWN_DEFECTS),
                       "known_defects": len(KNOWN_DEFECTS),
                       "known_defect_share": len(KNOWN_DEFECTS) / len(self.inputs),
                       "timeout_s": self.TIMEOUT_S}

    def functions(self) -> dict:
        from gkzeta import cli

        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)

        def process(argv):
            return subprocess.run([sys.executable, "-m", "gkzeta.cli", *argv], env=env,
                                  capture_output=True, text=True, timeout=self.TIMEOUT_S)

        return {"cli.process": process, "cli.main": cli.main}

    def op(self, api, x):
        try:
            done = api.process(x[0])
        except subprocess.TimeoutExpired:
            return None
        return done.returncode, done.stdout, done.stderr

    def check(self, x, out) -> str | None:
        argv, codes, content, _ = x
        if out is None:
            return f"timed out after {self.TIMEOUT_S} s"
        code, stdout, stderr = out
        if "Traceback (most recent call last)" in stderr:
            return "traceback"
        if code not in codes:
            return f"exit {code}, expected {sorted(codes)}"
        if code == 1 and not _REJECT_LINE.search(stderr):
            return "exit 1 without a 'rejected: ... [citation]' line"
        if code == 0:
            if "--json" in argv:
                try:
                    stdout = json.loads(stdout)
                except ValueError:
                    return "--json output does not parse"
            if content is not None and not content(stdout):
                return "wrong answer"
        return None

    @staticmethod
    def known_defect(x) -> bool:
        return x[3]


WORKLOADS = {w.name: w for w in (TablesSweep, WeilScan, CliSession)}
