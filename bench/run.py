"""gkzeta benchmark.

    python3 bench/run.py --workload {tables-sweep,weil-scan,cli-session} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from its `src/`.
With --trace 0 the workload runs untraced in a closed loop (one client, no
threads) for S seconds and the last line of standard output is a JSON object
with the end-to-end metrics. With --trace 1 whole passes over the workload's
inputs alternate untraced and traced, one span per call into a layer is kept
in memory and written to bench/out/, and the per-layer metrics are derived
from that file. The line before the result holds the environment record.
End-to-end times are scaled by a yardstick timed next to them (class
Yardstick). See bench/README.md for the metric definitions.
"""
from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from array import array
from types import SimpleNamespace

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "bench", "out")
LAYERS = ("numtheory", "weil", "brauer", "groups", "kummer", "existence", "cli")
SETUP_REPEATS = 15
OP_LIMIT_S = 5.0        # in-process operations longer than this fail
TRACE_HARD_LIMIT_S = 150.0
TRACE_MAX_SPANS = 200_000  # no further traced pass once this many are held
YARDSTICK_NOMINAL_S = 0.0005  # the yardstick's time at the speed times are reported at
YARDSTICK_WINDOW = 8          # yardstick samples on each side of a timed event
IMPORT_PROBE = ("import time; t = time.perf_counter(); import gkzeta.cli; "
                "print(time.perf_counter() - t)")


class OpTimeout(Exception):
    """An in-process operation ran past OP_LIMIT_S."""


def _alarm(signum, frame):
    raise OpTimeout()


# ---------------------------------------------------------------------------
# environment and set-up

def loc() -> dict:
    lines = {}
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        with open(path, encoding="utf-8") as f:
            lines[os.path.relpath(path, SRC)] = sum(1 for _ in f)
    out = {f"{layer}.loc": lines.get(os.path.join("gkzeta", f"{layer}.py"), 0)
           for layer in LAYERS}
    out["src.loc"] = sum(lines.values())
    return out


def git_commit():
    """HEAD of the checkout, read without running git; None outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        h.update(os.path.relpath(path, SRC).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def environment(args, workload) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 client, 1 process, no threads",
        "generator": workload.params,
        "loc": loc(),
    }


_YARD_X, _YARD_M = 3 ** 400 + 12345, 10 ** 150 + 7


def _yardstick_work():
    """Fixed pure-Python work: an interpreter loop on small integers and
    modular products of 400-digit integers, about 0.5 ms."""
    s = 0
    for i in range(6000):
        s += (i * i) % 7
    acc = 1
    for i in range(40):
        acc = (acc * _YARD_X + i) % _YARD_M
    return s, acc


class Yardstick:
    """The speed of the machine, measured next to every timed event.

    The benchmark shares a few cores of a host with other tenants, and those
    change how fast the same code runs by up to 1.7x, in spells of seconds to
    minutes that can cover a whole run. A fixed piece of the benchmark's own
    code, which never calls the library, is timed right before each timed
    event. An event's time is scaled by YARDSTICK_NOMINAL_S over the median
    yardstick time of the window around it, so end-to-end times read as if
    the yardstick took YARDSTICK_NOMINAL_S. A change to the library moves the
    event, not the yardstick, so it shows in full."""

    def __init__(self):
        self.times: list[float] = []

    def tick(self) -> int:
        """Time the yardstick once; returns the index of that sample."""
        t0 = time.perf_counter()
        _yardstick_work()
        self.times.append(time.perf_counter() - t0)
        return len(self.times) - 1

    def scale(self, j: int) -> float:
        window = self.times[max(0, j - YARDSTICK_WINDOW):j + YARDSTICK_WINDOW + 1]
        return YARDSTICK_NOMINAL_S / statistics.median(window)


class Setup:
    """Set-up time: fresh interpreters importing gkzeta.cli, spread over the
    run so that a short slow spell of the machine hits few of them.

    The first spawn compiles the byte code, which an installed package ships
    with, so it is not timed."""

    def __init__(self, seconds: float, yardstick: Yardstick):
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.yardstick = yardstick
        self.walls: list[float] = []
        self.ticks: list[int] = []
        self.imports: list[float] = []
        self.interval = seconds / SETUP_REPEATS
        self.spawn()
        self.walls.clear()
        self.ticks.clear()
        self.imports.clear()
        self.due = time.perf_counter()

    def spawn(self):
        self.ticks.append(self.yardstick.tick())
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=self.env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        wall = time.perf_counter() - t0
        if done.returncode != 0:
            raise RuntimeError(f"importing gkzeta.cli failed:\n{done.stderr}")
        self.walls.append(wall)
        self.imports.append(float(done.stdout))

    def tick(self):
        if len(self.walls) < SETUP_REPEATS and time.perf_counter() >= self.due:
            self.spawn()
            self.due += self.interval

    def finish(self):
        while len(self.walls) < SETUP_REPEATS:
            self.spawn()
        # the window of the last spawns reaches past the last tick
        for _ in range(YARDSTICK_WINDOW):
            self.yardstick.tick()

    def scaled_s(self) -> list[float]:
        return [w * self.yardstick.scale(j) for w, j in zip(self.walls, self.ticks)]


# ---------------------------------------------------------------------------
# tracing

class Spans:
    """One span per call into a layer: op id, name, start, end (ns), ok.

    Spans of one operation share its op id; the operation's own span is named
    'op.<workload>' and is the parent of the others."""

    COLUMNS = (("op", "l"), ("name", "l"), ("start_ns", "q"), ("end_ns", "q"), ("ok", "b"))

    def __init__(self):
        self.names: list[str] = []
        self.cols = {c: array(t) for c, t in self.COLUMNS}
        self.op_id = -1

    def name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def add(self, idx, t0, t1, ok):
        c = self.cols
        c["op"].append(self.op_id)
        c["name"].append(idx)
        c["start_ns"].append(t0)
        c["end_ns"].append(t1)
        c["ok"].append(ok)

    def wrap(self, name, fn):
        idx, add, clock = self.name_index(name), self.add, time.perf_counter_ns

        def traced(*args, **kwargs):
            t0, ok = clock(), 0
            try:
                out = fn(*args, **kwargs)
                ok = 1
                return out
            finally:
                add(idx, t0, clock(), ok)
        return traced

    def write(self, path, extra):
        with open(path, "w") as f:
            f.write('{"names": ' + json.dumps(self.names) + ', "spans": {')
            for i, (col, _) in enumerate(self.COLUMNS):
                f.write(("" if i == 0 else ", ") + json.dumps(col) + ": ")
                json.dump(self.cols[col].tolist(), f)
            f.write("}, " + json.dumps(extra)[1:])


def make_api(functions: dict, spans: Spans | None):
    """The workload's library functions by short name, wrapped when tracing."""
    return SimpleNamespace(**{
        name.rsplit(".", 1)[1]: fn if spans is None else spans.wrap(name, fn)
        for name, fn in functions.items()})


# ---------------------------------------------------------------------------
# running operations

class Loop:
    """Runs and checks operations, keeping per-input latencies and failures."""

    def __init__(self, workload, setup: Setup):
        self.w = workload
        self.setup = setup
        self.yardstick = setup.yardstick
        self.samples = [[] for _ in workload.inputs]  # (latency s, yardstick index)
        self.attempted = self.failed = 0
        self.unexpected: list[str] = []
        self.known_defect = getattr(workload, "known_defect", lambda x: False)
        if workload.in_process:
            signal.signal(signal.SIGALRM, _alarm)

    def run(self, api, i: int, spans: Spans | None = None) -> tuple[float, int]:
        """One operation on input i; returns its latency in seconds and the
        index of the yardstick sample timed before it."""
        x = self.w.inputs[i]
        if i % self.w.block == 0:
            self.setup.tick()
        tick = self.yardstick.tick()
        if spans is not None:
            spans.op_id += 1
            t0_ns = time.perf_counter_ns()
        if self.w.in_process:
            signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
        t0 = time.perf_counter()
        try:
            out, err = self.w.op(api, x), None
        except OpTimeout:
            err = f"over the {OP_LIMIT_S} s limit"
        except Exception as exc:  # a crashing operation is a failed operation
            err = f"{type(exc).__name__}: {exc}"
        finally:
            if self.w.in_process:
                signal.setitimer(signal.ITIMER_REAL, 0)
        dt = time.perf_counter() - t0
        if spans is not None:
            spans.add(spans.name_index(f"op.{self.w.name}"), t0_ns, time.perf_counter_ns(),
                      int(err is None))
        if err is None:
            try:
                err = self.w.check(x, out)
            except Exception as exc:  # a malformed answer is a wrong answer
                err = f"check raised {type(exc).__name__}: {exc}"
        self.samples[i].append((dt, tick))
        self.attempted += 1
        if err is not None:
            self.failed += 1
            if not self.known_defect(x):
                self.unexpected.append(f"input {x!r}: {err}")
        return dt, tick

    def timed(self, api, seconds: float):
        """Cycle through the inputs until the deadline, checked between blocks."""
        n, deadline, i = len(self.w.inputs), time.perf_counter() + seconds, 0
        while i % self.w.block or time.perf_counter() < deadline or not self.attempted:
            self.run(api, i % n)
            i += 1

    def latencies_ms(self, scaled: bool = True) -> list[float]:
        """Each input's latency: the lower quartile of its repeats, each
        scaled by the yardstick unless `scaled` is false. Slow spells that
        are too short for the yardstick's window only ever add time; the
        lower quartile keeps most of them out."""
        out = []
        for s in self.samples:
            if s:
                v = sorted(dt * (self.yardstick.scale(j) if scaled else 1.0) for dt, j in s)
                out.append(v[len(v) // 4] * 1e3)
        return out


def tail(values: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with at least ten samples beyond it."""
    v = sorted(values)
    k = len(v) - 11 if len(v) > 10 else len(v) - 1  # too few samples: the maximum
    return v[k], 100.0 * (k + 1) / len(v), len(v)


# ---------------------------------------------------------------------------
# the two kinds of run

def untraced_run(args, workload, functions, setup) -> tuple[dict, Loop, dict]:
    loop = Loop(workload, setup)
    loop.timed(make_api(functions, None), args.seconds)
    setup.finish()
    lat = loop.latencies_ms()
    tail_ms, tail_pct, n = tail(lat)
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    metrics = {
        "setup_s": (statistics.median(setup.scaled_s()), "s"),
        "ops_per_s": (1e3 * len(lat) / sum(lat), "1/s"),
        "op_ms_p50": (statistics.median(lat), "ms"),
        "op_ms_tail": (tail_ms, "ms"),
        "ok_ratio": ((loop.attempted - loop.failed) / loop.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }
    raw = loop.latencies_ms(scaled=False)
    details = {"tail_percentile": tail_pct, "latency_samples": n,
               "operations": loop.attempted, "fail_ratio": loop.failed / loop.attempted,
               "yardstick_ms_p50": statistics.median(loop.yardstick.times) * 1e3,
               "unscaled": {"setup_s": statistics.median(setup.walls),
                            "ops_per_s": 1e3 * len(raw) / sum(raw),
                            "op_ms_p50": statistics.median(raw), "op_ms_tail": tail(raw)[0]}}
    return metrics, loop, details


def traced_run(args, workload, functions, setup) -> tuple[dict, Loop, dict]:
    """Alternate untraced and traced passes over all inputs, then derive the
    per-layer metrics from the written span file."""
    loop = Loop(workload, setup)
    plain = make_api(functions, None)
    spans = Spans()
    traced = make_api(functions, spans)
    n = len(workload.inputs)
    start = time.perf_counter()
    untraced, traced_ops, passes = [], [], []
    while True:
        t0 = time.perf_counter()
        untraced.append([loop.run(plain, i) for i in range(n)])
        first = spans.op_id + 1
        traced_ops.append([loop.run(traced, i, spans) for i in range(n)])
        passes.append([first, spans.op_id])
        took = time.perf_counter() - t0
        now = time.perf_counter()
        if (now + took > start + args.seconds or now - start > TRACE_HARD_LIMIT_S
                or len(spans.cols["op"]) > TRACE_MAX_SPANS):
            break
    setup.finish()
    scale = loop.yardstick.scale
    untraced_s, traced_s = ([sum(dt * scale(j) for dt, j in ops) for ops in side]
                            for side in (untraced, traced_ops))
    main_ms = []
    if "cli.main" in functions:
        main_ms = cli_main_probe(workload, traced, spans)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{workload.name}.json")
    spans.write(path, {"workload": workload.name, "seed": args.seed, "traced_passes": passes,
                       "untraced_pass_s": untraced_s, "traced_pass_s": traced_s})
    metrics = per_layer(path, loop, setup.imports, main_ms)
    return metrics, loop, {"trace_file": os.path.relpath(path, ROOT), "passes": len(passes),
                           "spans": len(spans.cols["op"])}


def cli_main_probe(workload, api, spans, repeats=3) -> list[float]:
    """In-process cli.main on each argv of the session: median ms per argv."""
    out = []
    for argv, *_ in workload.inputs:
        times = []
        for _ in range(repeats):
            spans.op_id += 1
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                try:
                    api.main(list(argv))
                except Exception:  # the known defects raise in-process; only time matters here
                    pass
            times.append(time.perf_counter() - t0)
        out.append(statistics.median(times) * 1e3)
    return out


def per_layer(path, loop, setup_imports, main_ms) -> dict:
    with open(path) as f:
        trace = json.load(f)
    names, cols = trace["names"], trace["spans"]
    passes = trace["traced_passes"]
    op_pass = {}
    for k, (a, b) in enumerate(passes):
        for op in range(a, b + 1):
            op_pass[op] = k
    busy = {layer: [0.0] * len(passes) for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    durations = {layer: [] for layer in LAYERS}
    op_time = [0.0] * len(passes)
    validated = accepted = 0
    for op, name, t0, t1, ok in zip(*(cols[c] for c, _ in Spans.COLUMNS)):
        layer, fn = names[name].split(".", 1)
        dt = (t1 - t0) * 1e-9
        k = op_pass.get(op)
        if layer == "op":
            if k is not None:
                op_time[k] += dt
            continue
        durations[layer].append(dt)
        if k is not None:
            busy[layer][k] += dt
        if k == 0 or (k is None and layer == "cli"):
            calls[layer] += 1
            if fn == "validate_surface_simple":
                validated += 1
                accepted += ok  # a rejection raises, so its span is not ok
    total = statistics.median(op_time)
    m = {}
    for layer in LAYERS:
        b = statistics.median(busy[layer])
        m[f"{layer}.calls"] = (calls[layer], "count")
        m[f"{layer}.busy_s"] = (b, "s")
        m[f"{layer}.call_us_p50"] = (statistics.median(durations[layer]) * 1e6
                                     if durations[layer] else 0.0, "us")
        m[f"{layer}.share"] = (b / total, "ratio")
    for key, value in loc().items():
        m[key] = (value, "lines")
    m["weil.accept_ratio"] = (accepted / validated if validated else 0.0, "ratio")
    import_ms = statistics.median(setup_imports) * 1e3
    m["cli.import_ms"] = (import_ms, "ms")
    if main_ms:
        lat = loop.latencies_ms(scaled=False)
        m["cli.main_ms_p50"] = (statistics.median(main_ms), "ms")
        m["cli.spawn_ms_p50"] = (statistics.median(
            c - import_ms - mm for c, mm in zip(lat, main_ms)), "ms")
    else:
        m["cli.main_ms_p50"] = (0.0, "ms")
        m["cli.spawn_ms_p50"] = (0.0, "ms")
    ratios = [t / u for t, u in zip(trace["traced_pass_s"], trace["untraced_pass_s"])]
    m["trace.overhead_ratio"] = (statistics.median(ratios) - 1.0, "ratio")
    return m


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gkzeta", "cli.py")):
        print(f"bench: no gkzeta sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if hasattr(os, "sched_setaffinity"):
        # one CPU for the benchmark and its children, so that the yardstick
        # runs where the timed code runs; one client never needs two
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    workload = workloads.WORKLOADS[args.workload](args.seed)
    functions = workload.functions()
    setup = Setup(args.seconds, Yardstick())
    run = traced_run if args.trace else untraced_run
    metrics, loop, details = run(args, workload, functions, setup)
    for line in loop.unexpected[:10]:
        print(f"bench: failed {line}", file=sys.stderr)
    env = environment(args, workload)
    env["setup_s_samples"] = setup.walls
    print(json.dumps({"environment": env, "details": details}))
    print(json.dumps({
        "correct": not loop.unexpected,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
