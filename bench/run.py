"""Benchmark for polyderive: four workloads, end-to-end metrics, per-layer traces.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is driven only from outside: ``cli-cold`` runs
``python -m polyderive.cli`` as one child process at a time, the other
workloads call ``polyderive.cli.main(argv)`` in this process with stdout
captured. Every run is a closed loop with one client. It runs whole rounds
of the same operations until ``--seconds`` have passed and at least
``MIN_OPS`` operations are done, and checks every output with
``checks.py``. The last line of stdout is one JSON object: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Raw results and trace files go to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import random
import resource
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import inputs
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
FIXTURES = (
    "quadrangle", "pentagon", "pentagon_flat_support",
    "hexagon_regular", "hexagon_strongly_regular",
)

MIN_OPS = 100             # so that ten samples lie beyond the 90th percentile
MAX_STRETCH = 4           # stop after this many times --seconds even below MIN_OPS
SETUP_REPEATS = 7         # setup_s is the median of this many set-ups
CHILD_TIMEOUT_S = 60
CORPUS_PER_CLASS = 24     # report-corpus: quadrangles, pentagons, hexagons
VERIFY_ROUND = 128        # verify-rounds: derived seeds per round
ODD_N = 21
ODD_CORPUS = 16
SUITE_SAMPLES = 20        # per-suite microbenchmark in the traced run
MICRO_REPEATS = 5


@dataclass
class Call:
    """One CLI invocation and the check its output must pass."""

    argv: list
    check: object  # callable taking the parsed report


@dataclass
class Op:
    calls: list


@dataclass
class Workload:
    ops: list
    polygons: list  # point lists, for the microbenchmarks of the traced run


@dataclass
class Tally:
    latencies: list = field(default_factory=list)
    child_rss_kb: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    errors: list = field(default_factory=list)
    verified: dict = field(default_factory=dict)


# --- workloads -----------------------------------------------------------


def write_polygon(workdir: Path, name: str, points) -> str:
    path = workdir / f"{name}.json"
    path.write_text(inputs.polygon_json(points), encoding="utf-8")
    return str(path.relative_to(ROOT))


def _derivable_even(rng, make):
    """A fresh even polygon from ``make`` and a scale it derives at."""
    while True:
        points = make()
        alpha = rng.choice(inputs.ALPHAS)
        if inputs.derivable_at(points, alpha):
            return points, alpha


def _derive_call(path, points, rng, float_check: bool, alpha=None) -> Call:
    argv = ["derive", path]
    negative_root = False
    if len(points) % 2 == 0:
        argv += ["--alpha", str(alpha)]
    else:
        negative_root = rng.random() < 0.5
        argv += ["--negative-root"] if negative_root else []
    if float_check:
        argv.append("--float-check")
    return Call(argv, functools.partial(
        checks.check_derive, points=points, alpha=alpha,
        negative_root=negative_root, float_check=float_check,
    ))


def build_cli_cold(seed: int, workdir: Path) -> Workload:
    """Five fixtures plus one generated n = 4, 5 and 6 polygon, each run
    through check, derive and analyze as a fresh process."""
    rng = random.Random(f"cli-cold:{seed}")
    files = []
    for name in FIXTURES:
        path = f"fixtures/{name}.json"
        points = checks.parse_polygon((ROOT / path).read_text(encoding="utf-8"))
        alpha = rng.choice(inputs.scales(points)) if len(points) % 2 == 0 else None
        files.append((path, points, alpha))
    quad, quad_alpha = _derivable_even(rng, lambda: inputs.generic_polygon(rng, 4))
    hexagon, hex_alpha = _derivable_even(rng, lambda: inputs.lifted_hexagon(rng))
    pentagon = inputs.regular_odd_polygon(rng, 5)
    for name, points, alpha in (
        ("quad", quad, quad_alpha), ("pentagon", pentagon, None), ("hexagon", hexagon, hex_alpha)
    ):
        files.append((write_polygon(workdir, name, points), points, alpha))
    ops = []
    for path, points, alpha in files:
        ops.append(Op([Call(["check", path], functools.partial(checks.check_check, points=points))]))
        ops.append(Op([_derive_call(path, points, rng, False, alpha)]))
        ops.append(Op([Call(["analyze", path], functools.partial(checks.check_analyze, points=points))]))
    rng.shuffle(ops)
    return Workload(ops, [points for _, points, _ in files])


def build_report_corpus(seed: int, workdir: Path) -> Workload:
    """Equal thirds of quadrangles, regular pentagons and lifted hexagons;
    one operation is check, derive --float-check and analyze on one file."""
    rng = random.Random(f"report-corpus:{seed}")
    ops, polygons = [], []
    for i in range(CORPUS_PER_CLASS):
        quad = _derivable_even(rng, lambda: inputs.generic_polygon(rng, 4))
        pentagon = (inputs.regular_odd_polygon(rng, 5), None)
        hexagon = _derivable_even(rng, lambda: inputs.lifted_hexagon(rng))
        for kind, (points, alpha) in (("quad", quad), ("pent", pentagon), ("hex", hexagon)):
            path = write_polygon(workdir, f"{kind}{i}", points)
            polygons.append(points)
            ops.append(Op([
                Call(["check", path], functools.partial(checks.check_check, points=points)),
                _derive_call(path, points, rng, True, alpha),
                Call(["analyze", path], functools.partial(checks.check_analyze, points=points)),
            ]))
    rng.shuffle(ops)
    return Workload(ops, polygons)


def build_verify_rounds(seed: int, workdir: Path) -> Workload:
    """One draw of each of the eight suites per operation, a new seed each."""
    rng = random.Random(f"verify-rounds:{seed}")
    check = functools.partial(checks.check_verify, samples=1)
    ops = [
        Op([Call(["verify", "--suite", "all", "--samples", "1", "--seed", str(rng.randrange(2**31))], check)])
        for _ in range(VERIFY_ROUND)
    ]
    fixtures = [
        checks.parse_polygon((ROOT / f"fixtures/{name}.json").read_text(encoding="utf-8"))
        for name in FIXTURES
    ]
    return Workload(ops, fixtures)


def build_large_odd_n(seed: int, workdir: Path) -> Workload:
    """Regular odd n-gons of one fixed n, derived at the canonical root."""
    rng = random.Random(f"large-odd-n:{seed}")
    ops, polygons = [], []
    for i in range(ODD_CORPUS):
        points = inputs.regular_odd_polygon(rng, ODD_N)
        path = write_polygon(workdir, f"odd{i}", points)
        polygons.append(points)
        ops.append(Op([Call(["derive", path], functools.partial(checks.check_derive, points=points))]))
    return Workload(ops, polygons)


WORKLOADS = {
    "cli-cold": build_cli_cold,
    "report-corpus": build_report_corpus,
    "verify-rounds": build_verify_rounds,
    "large-odd-n": build_large_odd_n,
}


# --- running the CLI -----------------------------------------------------


def child_env() -> dict:
    """The environment of every child: polyderive from ``src/``, and Python's
    default bytecode cache, as a user's shell has it, whatever the caller set."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list, env: dict):
    """Run one child to its end: (seconds, exit code, stdout, peak RSS in KB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env, cwd=ROOT)
    chunks = []
    try:
        with selectors.DefaultSelector() as selector:
            selector.register(proc.stdout, selectors.EVENT_READ)
            deadline = start + CHILD_TIMEOUT_S
            while True:
                remaining = deadline - time.perf_counter()
                if remaining <= 0 or not selector.select(remaining):
                    raise TimeoutError(f"{argv[1:]} ran longer than {CHILD_TIMEOUT_S} s")
                chunk = os.read(proc.stdout.fileno(), 1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
    except BaseException:
        proc.kill()
        raise
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    elapsed = time.perf_counter() - start
    return elapsed, proc.returncode, b"".join(chunks).decode("utf-8"), usage.ru_maxrss


class ColdRunner:
    """Each call is a fresh ``python -m polyderive.cli`` process.

    With a ``trace_dir`` the child runs ``trace_child.py`` instead, and its
    aggregates and spans are merged here.
    """

    def __init__(self, trace_dir: Path | None = None) -> None:
        self.env = child_env()
        self.trace_dir = trace_dir
        self.table: dict = {}
        self.names: list = []
        self.spans: list = []
        self.op = 0

    def __call__(self, argv):
        if self.trace_dir is None:
            return spawn([sys.executable, "-m", "polyderive.cli", *argv], self.env)
        out = self.trace_dir / "child.trace.json"
        result = spawn([sys.executable, str(BENCH / "trace_child.py"), str(out), *argv], self.env)
        payload = json.loads(out.read_text(encoding="utf-8"))
        tracing.merge(self.table, payload["aggregates"])
        self.names = payload["names"]
        room = max(tracing.MAX_SPANS - len(self.spans), 0)
        self.spans.extend(span[:5] + [self.op] for span in payload["spans"][:room])
        return result


class InProcessRunner:
    """Each call is ``polyderive.cli.main(argv)`` with stdout captured."""

    def __init__(self, cli_module) -> None:
        self.cli = cli_module

    def __call__(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # an uncaught error is a failed operation
                code = f"uncaught {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        return elapsed, code, out.getvalue(), None


def run_op(op: Op, runner, tally: Tally, verified: dict) -> None:
    """Run one operation and check its outputs.

    An output identical to one already checked for the same argv passes
    without a second check; any other output is checked in full.
    """
    tally.attempted += 1
    total = 0.0
    problem = None
    wrong = False
    for call in op.calls:
        elapsed, code, text, rss_kb = runner(call.argv)
        total += elapsed
        if rss_kb is not None:
            tally.child_rss_kb.append(rss_kb)
        key = tuple(call.argv)
        if problem is not None:
            continue
        if code != 0:
            problem = f"{' '.join(call.argv)}: exit {code}"
        elif verified.get(key) != text:
            try:
                call.check(json.loads(text))
                verified[key] = text
            except (checks.CheckError, AttributeError, LookupError, TypeError, ValueError) as exc:
                problem = f"{' '.join(call.argv)}: {type(exc).__name__}: {exc}"
                wrong = True
    tally.latencies.append(total)
    if problem is not None:
        tally.failed += 1
        tally.wrong += wrong
        if len(tally.errors) < 10:
            tally.errors.append(problem)
            print(f"operation failed: {problem}", file=sys.stderr)


def measure(ops, runner, seconds: float, setups: SetUps) -> Tally:
    """Closed loop over whole rounds of ``ops`` for at least ``seconds`` and
    ``MIN_OPS`` operations.

    ``setups`` is called between operations at evenly spaced times, so that
    ``setup_s`` samples the machine across the run as the timings do.
    """
    tally = Tally()
    due = [seconds * k / SETUP_REPEATS for k in range(1, SETUP_REPEATS)]
    start = time.perf_counter()
    while True:
        for op in ops:
            run_op(op, runner, tally, tally.verified)
            if due and time.perf_counter() - start >= due[0]:
                due.pop(0)
                setups()
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (tally.attempted >= MIN_OPS or elapsed >= MAX_STRETCH * seconds):
            for _ in due:
                setups()
            return tally


# --- set-up and microbenchmarks ------------------------------------------


def fresh_import_seconds(module: str, env: dict) -> float:
    elapsed, code, _, _ = spawn([sys.executable, "-c", f"import {module}"], env)
    if code != 0:
        raise RuntimeError(f"a fresh interpreter cannot import {module} (exit {code})")
    return elapsed


class SetUps:
    """Repeated set-ups: a fresh interpreter imports polyderive, then the
    workload's inputs are built and written. Each call records its time."""

    def __init__(self, name: str, seed: int, workdir: Path) -> None:
        self.name, self.seed, self.workdir = name, seed, workdir
        self.env = child_env()
        self.times: list = []
        self.imports: list = []

    def __call__(self) -> Workload:
        start = time.perf_counter()
        self.imports.append(fresh_import_seconds("polyderive.cli", self.env))
        workload = WORKLOADS[self.name](self.seed, self.workdir)
        self.times.append(time.perf_counter() - start)
        return workload


def import_in_process():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import polyderive.cli

    if Path(polyderive.cli.__file__).resolve().parent != SRC / "polyderive":
        raise RuntimeError(f"imported polyderive from {polyderive.cli.__file__}, not {SRC}")
    return polyderive.cli


def _per_call_us(fn, argument_lists) -> float:
    """Median over repeats of the mean time of one call, in microseconds."""
    samples = []
    for _ in range(MICRO_REPEATS):
        start = time.perf_counter()
        for arguments in argument_lists:
            fn(*arguments)
        samples.append((time.perf_counter() - start) / len(argument_lists) * 1e6)
    return statistics.median(samples)


def microbenchmarks(workload: Workload, tally: Tally, seed: int, imports: list) -> dict:
    """Layer timings taken from the benchmark's side, with tracing off."""
    import_in_process()
    from polyderive.regularity import build_support_system
    from polyderive.scalars import QuadExt
    from polyderive.suites import run_suite
    from polyderive.vectors import Vec3, cross, mixed

    env = child_env()
    micro = {
        "cli.import.ms": statistics.median(imports) * 1e3,
        "oracle.numpy_import.ms": statistics.median(
            fresh_import_seconds("numpy", env) for _ in range(SETUP_REPEATS)
        ) * 1e3,
    }
    edge_lists = [[Vec3(*e) for e in checks.edges_of(points)] for points in workload.polygons]
    triples = [
        (edges[i], edges[(i + 1) % len(edges)], edges[(i + 2) % len(edges)])
        for edges in edge_lists for i in range(len(edges))
    ]
    micro["vectors.cross.us"] = _per_call_us(cross, [t[:2] for t in triples])
    micro["vectors.mixed.us"] = _per_call_us(mixed, triples)

    odd = [edges for edges in edge_lists if len(edges) % 2 == 1][:3]
    pairs = []
    for edges in odd:
        values = [c for u in build_support_system(edges).vectors for c in u]
        values = [v for v in values if isinstance(v, QuadExt) and not v.is_rational]
        pairs += list(zip(values, values[1:]))
    micro["scalars.quadext_mul.us"] = _per_call_us(QuadExt.__mul__, pairs)

    reports = [json.loads(text) for text in tally.verified.values()]
    dumps = []
    for _ in range(MICRO_REPEATS):
        start = time.perf_counter()
        for report in reports:
            json.dumps(report, indent=2)
        dumps.append((time.perf_counter() - start) / len(reports) * 1e3)
    micro["reports.json_dumps.ms"] = statistics.median(dumps)
    micro["scalars.max_bits"] = max(checks.max_bits(report) for report in reports)

    for suite in checks.SUITE_IDS:
        start = time.perf_counter()
        result = run_suite(suite, SUITE_SAMPLES, seed)
        micro[f"suites.{suite}.ms_per_sample"] = (time.perf_counter() - start) / SUITE_SAMPLES * 1e3
        if not result.passed:
            raise RuntimeError(f"suite {suite} failed in the microbenchmark")
    return micro


# --- metrics -------------------------------------------------------------


def end_to_end(tally: Tally, setup_times: list) -> dict:
    latencies_ms = [s * 1e3 for s in tally.latencies]
    if tally.child_rss_kb:
        rss_kb = statistics.median(tally.child_rss_kb)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(tally.latencies) / sum(tally.latencies),
        "latency_ms_p50": statistics.median(latencies_ms),
        "latency_ms_p90": statistics.quantiles(latencies_ms, n=10)[8],
        "peak_rss_mb": rss_kb / 1024,
    }


def per_layer(names: list, table: dict, ops: int, micro: dict) -> dict:
    """Per-operation calls and self time from the trace, plus the micro figures."""
    values = {}
    for name in names:
        if name in micro:
            values[name] = micro[name]
        elif name.startswith("layer.") and name.endswith(".self_ms"):
            module = name[len("layer."):-len(".self_ms")] + "."
            total = sum(ns for fn, (_, ns) in table.items() if fn.startswith(module))
            values[name] = total / ops / 1e6
        elif name.endswith(".calls") or name.endswith(".self_ms"):
            fn, _, kind = name.rpartition(".")
            if fn not in table:
                print(f"note: {fn} was not traced; reporting 0 for {name}", file=sys.stderr)
            calls, ns = table.get(fn, (0, 0))
            values[name] = calls / ops if kind == "calls" else ns / ops / 1e6
        else:
            raise KeyError(f"no measurement for per-layer metric {name}")
    return values


def emit(result: dict, metrics: dict, units: dict, raw_path: Path, raw: dict) -> None:
    result["metrics"] = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    raw["result"] = result
    raw_path.write_text(json.dumps(raw, indent=1) + "\n", encoding="utf-8")
    for name, entry in result["metrics"].items():
        print(f"{name:40s} {entry['value']:14.6g} {entry['unit']}")
    print(json.dumps(result))


# --- main ----------------------------------------------------------------


def run_round(ops, runner, tally: Tally, tracer=None) -> None:
    for op in ops:
        if tracer is not None:
            tracer.op = tally.attempted
        run_op(op, runner, tally, tally.verified)


def traced_run(workload: Workload, cold: bool, cli, args, setups: SetUps, workdir: Path,
               names: list):
    """Untraced and traced rounds in turn for ``--seconds``, then the
    microbenchmarks.

    Returns the combined tally, the per-layer metrics and the trace. The
    drop in throughput from the untraced to the traced rounds is the
    tracing overhead; alternating round by round keeps the machine's speed
    drift out of that difference.
    """
    for _ in range(SETUP_REPEATS - 1):
        setups()
    untraced, traced = Tally(), Tally()
    if cold:
        plain, tracer = ColdRunner(), ColdRunner(trace_dir=workdir)
        traced_runner = tracer
    else:
        plain = traced_runner = InProcessRunner(cli)
        tracer = tracing.Tracer()
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        run_round(workload.ops, plain, untraced)
        if not cold:
            tracer.install()
        try:
            run_round(workload.ops, traced_runner, traced, tracer)
        finally:
            if not cold:
                tracer.uninstall()
    if cold:
        table, trace = tracer.table, {"names": tracer.names, "spans": tracer.spans}
    else:
        table, trace = tracer.aggregates(), tracer.dump()
    untraced_rate = len(untraced.latencies) / sum(untraced.latencies)
    traced_rate = len(traced.latencies) / sum(traced.latencies)
    micro = microbenchmarks(workload, untraced, args.seed, setups.imports)
    micro["trace.ops_per_s_untraced"] = untraced_rate
    micro["trace.ops_per_s_traced"] = traced_rate
    micro["trace.overhead_pct"] = (untraced_rate - traced_rate) / untraced_rate * 100
    trace.update(span_fields=tracing.SPAN_FIELDS, aggregates=table, ops=traced.attempted)
    untraced.attempted += traced.attempted
    untraced.failed += traced.failed
    untraced.wrong += traced.wrong
    untraced.errors += traced.errors
    return untraced, per_layer(names, table, traced.attempted, micro), trace


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "polyderive" / "cli.py").is_file():
        print(f"error: no polyderive sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {e["name"]: e["unit"] for e in spec["per_layer" if args.trace else "end_to_end"]}

    os.chdir(ROOT)
    RESULTS.mkdir(exist_ok=True)
    workdir = RESULTS / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    tag = f"{args.workload}-seed{args.seed}"
    try:
        setups = SetUps(args.workload, args.seed, workdir)
        workload = setups()
        cold = args.workload == "cli-cold"
        cli = None if cold else import_in_process()
        raw = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "cores": os.cpu_count()}
        if args.trace:
            tally, metrics, trace = traced_run(workload, cold, cli, args, setups, workdir, list(units))
            tracing.write(RESULTS / f"{tag}.trace.json", trace)
        else:
            runner = ColdRunner() if cold else InProcessRunner(cli)
            tally = measure(workload.ops, runner, args.seconds, setups)
            metrics = end_to_end(tally, setups.times)
            raw["latencies_s"] = tally.latencies
        raw["setup_s"] = setups.times
        raw["errors"] = tally.errors
        result = {"correct": tally.wrong == 0, "attempted": tally.attempted, "failed": tally.failed}
        emit(result, metrics, units, RESULTS / f"{tag}-trace{args.trace}.json", raw)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
