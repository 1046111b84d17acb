"""cwlattice benchmark: one seeded workload, timed end to end, outputs checked.

Run from the repository root:

    python3 perfbench/run.py --workload census-sweep --seed 1 --seconds 20 --trace 0

The package is imported from ./src, single-threaded; each op goes through
cwlattice.cli.main(argv) or a public library function.  With --trace 0 the
run is split over WORKERS fresh worker processes, one after another, and
the last stdout line is a JSON object holding the end-to-end metrics; with
--trace 1 a traced run in this process gives the per-layer metrics.  A
readable summary goes to stderr.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import random
import resource
import subprocess
import sys
import time
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import measure
import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = Path(__file__).resolve().parent / "_work"
THREADS_ENV_VAR = "CW_CENSUS_THREADS"
# A CPython process keeps a speed bias of a few percent for its whole life
# (memory layout), so the timed work is spread over several processes.
WORKERS = 2
# Each worker sets up at least SETUPS_MIN times, and more (up to SETUPS_MAX)
# until SETUP_SECONDS have gone into set-up; setup_s is the median over the
# set-ups of all workers.
SETUPS_MIN = 3
SETUPS_MAX = 10
SETUP_SECONDS = 1.0
RESERVOIR = 200_000


class SetupError(RuntimeError):
    """The package could not be imported from this checkout."""


# ---------------------------------------------------------------------------
# environment and set-up
# ---------------------------------------------------------------------------

def capture_environment() -> dict:
    """Machine facts at start.  CW_CENSUS_THREADS is removed: a thread pool
    over pure-Python work measures slower than serial, so a stray setting
    would change what is measured."""
    threads = os.environ.pop(THREADS_ENV_VAR, None)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "loadavg_at_start": os.getloadavg(),
        THREADS_ENV_VAR: "unset" if threads is None else f"was {threads!r}, removed",
    }


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def import_package() -> SimpleNamespace:
    """Import cwlattice afresh from ./src (dropping any earlier import)."""
    for name in [m for m in sys.modules if m == "cwlattice" or m.startswith("cwlattice.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        package = importlib.import_module("cwlattice")
        modules = {layer: importlib.import_module(f"cwlattice.{layer}")
                   for layer in tracing.LAYERS}
    except ImportError as exc:
        raise SetupError(f"cannot import cwlattice from {SRC}: {exc}") from exc
    origin = Path(package.__file__).resolve()
    if SRC not in origin.parents:
        raise SetupError(f"cwlattice was imported from {origin}, not from {SRC}")
    return SimpleNamespace(package=package, modules=modules, **modules)


def set_up(workload: str, seed: int):
    """Import the package and generate the seeded inputs; return
    (seconds at the reference speed, package namespace, the round of ops)."""
    scale = measure.SpeedScale()
    start = time.perf_counter()
    pkg = import_package()
    ops = WORKLOADS[workload](pkg, random.Random(seed), str(WORKDIR / workload))
    scale.add(time.perf_counter() - start)
    seconds, = scale.flush()
    return seconds, pkg, ops


# ---------------------------------------------------------------------------
# running ops
# ---------------------------------------------------------------------------

def _cli_call(main, argvs):
    results = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        results.append((rc, out.getvalue()))
    return results


def bind(ops, pkg) -> list:
    """Zero-argument callables for the ops, looking every function up now,
    so a traced phase binds the wrappers and an untraced one the originals."""
    calls = []
    for op in ops:
        if op.argvs:
            calls.append(partial(_cli_call, pkg.cli.main, op.argvs))
        else:
            calls.append(partial(getattr(pkg.modules[op.module], op.func), *op.args))
    return calls


class Phase:
    """Closed-loop measurement of whole rounds, so every run times the same
    mix of ops: at least one, ending at the round boundary nearest to
    `seconds`.  Op times are kept at the reference speed (see
    measure.SpeedScale); the raw wall time is kept as well."""

    def __init__(self, seed: int):
        self.latencies = measure.Reservoir(RESERVOIR, seed)
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.out_bytes = 0
        self.op_seconds = 0.0
        self.scaled_seconds = 0.0
        self.probes: list[float] = []
        self.errors: list[str] = []

    def run(self, ops, calls, seconds: float, wrap=None) -> None:
        clock = time.perf_counter
        # The collector leaves the benchmark's own objects (the round, its
        # expected outputs) alone from here on: the ops see a heap like the
        # program's own, and the collection before each command stays cheap.
        gc.collect()
        gc.freeze()
        scale = measure.SpeedScale()
        deadline = clock() + seconds
        while True:
            round_start = clock()
            for op, call in zip(ops, calls):
                if op.argvs:
                    # A command starts as it would in a fresh process, with no
                    # garbage left by earlier ops for the collector to walk.
                    gc.collect()
                if scale.due():
                    self._keep(scale.flush())
                start = clock()
                try:
                    result = call() if wrap is None else wrap(call)
                    raised = None
                except Exception as exc:  # a crashing op is a failed op
                    raised = exc
                elapsed = clock() - start
                self.op_seconds += elapsed
                scale.add(elapsed)
                self.attempted += 1
                if raised is None and op.argvs:
                    self.out_bytes += sum(len(out) for _, out in result)
                if raised is not None or not _passes(op, result):
                    self.failed += 1
                    if len(self.errors) < 5:
                        why = repr(raised) if raised is not None else "wrong output"
                        self.errors.append(f"{op.kind} {op.argvs or (op.func, op.args)}: {why}")
            self.rounds += 1
            now = clock()
            if now + (now - round_start) / 2 >= deadline:
                break
        self._keep(scale.flush())
        self.probes += scale.probes

    def _keep(self, scaled: list[float]) -> None:
        for seconds in scaled:
            self.latencies.add(seconds)
            self.scaled_seconds += seconds

    @property
    def ops_per_s(self) -> float:
        return self.attempted / self.scaled_seconds


def _passes(op, result) -> bool:
    try:
        return bool(op.check(result))
    except (ValueError, KeyError, TypeError, IndexError, AttributeError):
        return False


def worker_result(phase: Phase, setups: list[float]) -> dict:
    """What a worker process reports to the parent: raw samples and counts."""
    return {
        "latencies": list(phase.latencies.values),
        "ops_timed": phase.latencies.seen,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "op_seconds": phase.op_seconds,
        "scaled_seconds": phase.scaled_seconds,
        "probe_median_s": measure.median(phase.probes),
        "rounds": phase.rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setups,
        "errors": phase.errors,
    }


def end_to_end(workers: list[dict]) -> tuple[dict, dict]:
    """Pool the workers' samples into the end-to-end metrics."""
    ordered = sorted(x for w in workers for x in w["latencies"])
    tail = measure.tail_percentile(len(ordered))
    setups = [s for w in workers for s in w["setup_s"]]
    attempted = sum(w["attempted"] for w in workers)
    metrics = {
        "ops_per_s": (attempted / sum(w["scaled_seconds"] for w in workers), "1/s"),
        "op_p50_ms": (measure.percentile(ordered, 50.0) * 1e3, "ms"),
        "op_tail_ms": ((measure.percentile(ordered, tail) if tail else ordered[-1]) * 1e3, "ms"),
        "peak_rss_mb": (max(w["peak_rss_mb"] for w in workers), "MB"),
        "setup_s": (measure.median(setups), "s"),
    }
    notes = {
        "workers": len(workers),
        "samples": len(ordered),
        "ops_timed": sum(w["ops_timed"] for w in workers),
        "rounds": [w["rounds"] for w in workers],
        "worker_ops_per_s": [w["attempted"] / w["scaled_seconds"] for w in workers],
        "wall_ops_per_s": attempted / sum(w["op_seconds"] for w in workers),
        "probe_median_s": [w["probe_median_s"] for w in workers],
        "tail_percentile": tail if tail else "max",
        "fail_ratio": sum(w["failed"] for w in workers) / attempted,
        "setup_s_each": setups,
    }
    return metrics, notes


def run_workers(args) -> list[dict]:
    """Run the timed part in WORKERS fresh processes, one at a time."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds / WORKERS), "--worker"]
    results = []
    for _ in range(WORKERS):
        try:
            proc = subprocess.run(command, capture_output=True, text=True, timeout=170)
        except subprocess.TimeoutExpired as exc:
            raise SetupError("worker timed out") from exc
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SetupError(f"worker exited with code {proc.returncode}")
        results.append(json.loads(proc.stdout.splitlines()[-1]))
    return results


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def traced_run(workload_name, seed, seconds, pkg, ops) -> tuple[dict, dict, bool, tuple]:
    """Untraced phase, traced phase, traced set-up and a memory pass.

    Returns the per-layer metrics, notes, whether the layer self-times add
    up to the traced op time, and the three measured phases.
    """
    plain = Phase(seed)
    plain.run(ops, bind(ops, pkg), seconds / 2)

    tracer = tracing.Tracer()
    patches = tracing.instrument(pkg.package, pkg.modules, tracer.wrap)
    try:
        traced = Phase(seed)
        traced.run(ops, bind(ops, pkg), seconds / 2, wrap=tracer.run)
        setup_first = len(tracer.spans)
        tracer.run(lambda: WORKLOADS[workload_name](
            pkg, random.Random(seed), str(WORKDIR / workload_name)), name="bench.setup")
    finally:
        patches.restore()

    peaks: list[int] = []
    patches = tracing.instrument(pkg.package, pkg.modules, tracing.alloc_wrapper(peaks),
                                 layers=("census",))
    memory = Phase(seed)
    try:
        memory.run(ops, bind(ops, pkg), 0.0)
    finally:
        patches.restore()

    op_spans = tracer.spans[:setup_first]
    layer = tracing.layer_metrics(op_spans, traced.attempted)
    layer_sum = sum(layer[f"{name}.self_s"] for name in ("bench",) + tracing.LAYERS)
    adds_up = abs(layer_sum - layer["trace.op_s"]) <= 1e-9 * max(1.0, layer["trace.op_s"])
    traced_rate, plain_rate = traced.ops_per_s, plain.ops_per_s
    per_layer = {
        **{name: (value, _layer_unit(name)) for name, value in layer.items()},
        "census.peak_alloc_mb": (max(peaks, default=0) / 2 ** 20, "MB"),
        "cli.out_bytes": (traced.out_bytes / traced.attempted, "B/op"),
        "graphs.realize_build.s": (tracing.realize_build_seconds(tracer.spans, setup_first), "s/setup"),
        "trace.overhead_ratio": (traced_rate / plain_rate, "ratio"),
    }
    notes = {
        "untraced_ops_per_s": plain_rate,
        "traced_ops_per_s": traced_rate,
        "traced_ops": traced.attempted,
        "spans": len(op_spans),
        "self_times_sum_s_per_op": layer_sum,
    }
    return per_layer, notes, adds_up, (plain, traced, memory)


def _layer_unit(name: str) -> str:
    if name == "graphs.edges_per_graph":
        return "edges"
    if name.endswith((".calls", ".calls_per_op")):
        return "count/op"
    if name.endswith(".points"):
        return "points/op"
    return "s/op"


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    env = capture_environment()
    try:
        if args.worker:
            setups: list[float] = []
            while len(setups) < SETUPS_MIN or (
                    sum(setups) < SETUP_SECONDS and len(setups) < SETUPS_MAX):
                pkg = ops = None  # let the previous set-up's inputs go first
                seconds, pkg, ops = set_up(args.workload, args.seed)
                setups.append(seconds)
            phase = Phase(args.seed)
            phase.run(ops, bind(ops, pkg), args.seconds)
            print(json.dumps(worker_result(phase, setups)))
            return 0
        if args.trace:
            _, pkg, ops = set_up(args.workload, args.seed)
        else:
            workers = run_workers(args)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        metrics, notes, adds_up, phases = traced_run(
            args.workload, args.seed, args.seconds, pkg, ops)
        attempted = sum(p.attempted for p in phases)
        failed = sum(p.failed for p in phases)
        errors = [e for p in phases for e in p.errors]
        correct = failed == 0 and adds_up
    else:
        metrics, notes = end_to_end(workers)
        attempted = sum(w["attempted"] for w in workers)
        failed = sum(w["failed"] for w in workers)
        errors = [e for w in workers for e in w["errors"]]
        correct = failed == 0

    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               **notes, **env}
    print(json.dumps(summary), file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:16.6f} {unit}", file=sys.stderr)
    for error in errors:
        print(f"  failed: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
