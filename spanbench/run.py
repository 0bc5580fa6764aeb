"""Span-engine benchmark: four seeded workloads over the engine's entry points.

    python3 spanbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the engine is imported from
``src/``.  Each workload run is one fresh process and a closed loop
with one caller: the next query starts when the previous one returns.
Every query's input also goes through a plain-loop reference
(``reference.py``), timed next to it; the engine's output is checked
against the reference's outside the timed region, and a query that
raises or differs counts as an error while the run goes on.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports
the per-layer metrics: it first measures the untraced engine and the
reference, then wraps the engine's entry points (``tracer.py``) for one
traced set-up and a fixed pass of queries, writes the spans to
``.bench_out/trace-*.jsonl`` and derives self times from that file.
``--workload all`` runs each workload in its own process and prints
one row per workload.

Human-readable rows go to stdout first; the last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A result file with the same metrics, the wall times and
the run's environment goes to ``.bench_out/``.
"""

from __future__ import annotations

import os

# One BLAS thread: the benchmark is one caller on a shared machine.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import ctypes
import gc
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("sssp-sparse", "apsp-dense", "gnn-sparse", "gnn-triple")

ROUND_QUERIES = 50  # queries after each set-up; setup_s is the median set-up
MIN_QUERIES = 100  # so that p90 has at least ten samples beyond it
TRACE_QUERIES = 40  # the fixed traced pass: the first inputs, in order
REF_MIN_S = 0.002  # a reference timing repeats the reference for at least this long
WALL_LIMIT_S = 120.0  # stop timing queries after this, whatever --seconds says


def _blas_threads():
    import numpy
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        cdll = ctypes.CDLL(str(lib))
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(cdll, fn):
                return getattr(cdll, fn)()
    return os.environ.get("OPENBLAS_NUM_THREADS")


def environment() -> dict:
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "platform": platform.platform(),
    }


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Loop:
    """Outcome of a closed loop of queries, possibly run in several parts."""

    def __init__(self):
        self.latencies = []
        self.ref_latencies = []
        self.busy = 0.0
        self.raised = 0
        self.wrong = 0

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def errors(self):
        return self.raised + self.wrong

    def qps(self, first=None):
        """Queries per second of query time, over the first ``first`` queries."""
        lat = self.latencies[:first]
        return len(lat) / sum(lat)


def run_queries(w, ctx, queries, reference, loop, busy_until=0.0, at_least=0, deadline=None,
                root=None):
    """Run queries one after another, continuing over the inputs in
    order, until ``loop`` holds ``busy_until`` seconds of query time and
    ``at_least`` queries, or until the wall-clock ``deadline``.

    Each query's input first goes through the plain-loop reference,
    timed on its own (repeated up to REF_MIN_S, so that a short
    reference still reads steadily); then the engine runs it, timed;
    its output is compared with the reference's after the clock stops."""
    while (loop.busy < busy_until or loop.attempted < at_least) and (
            deadline is None or time.perf_counter() < deadline):
        i = loop.attempted
        q = queries[i % len(queries)]
        gc.disable()  # the engine's garbage is collected on the engine's clock
        try:
            t0 = time.perf_counter()
            expected = reference(q)
            repeats = 1
            while (elapsed := time.perf_counter() - t0) < REF_MIN_S:
                reference(q)
                repeats += 1
        finally:
            gc.enable()
        loop.ref_latencies.append(elapsed / repeats)
        out = exc = None
        scope = root("query", i) if root else nullcontext()
        t0 = time.perf_counter()
        try:
            with scope:
                out = w.query(ctx, q)
        except Exception as e:  # a failing query is counted, not fatal
            exc = e
        dt = time.perf_counter() - t0
        loop.latencies.append(dt)
        loop.busy += dt
        if exc is not None:
            if not loop.raised:
                traceback.print_exception(exc, file=sys.stderr)
            loop.raised += 1
        elif not w.matches(out, expected):
            if not loop.wrong:
                print(f"{w.name}: output of query {i} differs from the reference", file=sys.stderr)
            loop.wrong += 1
    return loop


def _setup_once(workloads, w, inputs):
    workloads.clear_caches()
    gc.collect()
    t0 = time.perf_counter()
    ctx = w.setup(inputs)
    return ctx, time.perf_counter() - t0


def _p90(values):
    return statistics.quantiles(values, n=10)[8]


def end_to_end(workloads, w, seed: int, seconds: float):
    """Rounds of a set-up and then ROUND_QUERIES queries, until the
    queries have taken ``seconds`` and number at least MIN_QUERIES.

    Latency and throughput are reported relative to the reference run
    on the same inputs in the same moments: on a shared machine whose
    speed changes up to twofold for minutes at a time, the ratio repeats
    far better than the wall time does.  The wall times are in the row and
    in the result file."""
    inputs = w.make_inputs(seed)
    reference = w.reference(inputs)
    setups, loop = [], Loop()
    deadline = time.perf_counter() + WALL_LIMIT_S
    while (loop.busy < seconds or loop.attempted < MIN_QUERIES) and time.perf_counter() < deadline:
        ctx, dt = _setup_once(workloads, w, inputs)
        setups.append(dt)
        run_queries(w, ctx, inputs["queries"], reference, loop,
                    at_least=loop.attempted + ROUND_QUERIES, deadline=deadline)
    lat, ref = loop.latencies, loop.ref_latencies
    qps = (loop.attempted - loop.raised) / loop.busy
    wall = {
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_p90_s": (_p90(lat), "s"),
        "throughput_qps": (qps, "1/s"),
        "reference_p50_s": (statistics.median(ref), "s"),
        "error_ratio": (loop.errors / loop.attempted, "ratio"),
    }
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "latency_p50_vs_ref": (statistics.median(lat) / statistics.median(ref), "ratio"),
        "latency_p90_vs_ref": (_p90(lat) / _p90(ref), "ratio"),
        "throughput_vs_ref": (qps * sum(ref) / len(ref), "ratio"),
        "peak_rss_mb": (_rss_mb(), "MB"),
        "success_ratio": (1.0 - loop.errors / loop.attempted, "ratio"),
    }
    return metrics, [loop], wall


def traced_pass(workloads, w, seed: int, inputs, reference, count: int, path: Path):
    """One traced set-up and ``count`` traced queries from a clean cache;
    the spans go to ``path``, the per-layer metrics come back from it."""
    import tracer  # only traced runs load the wrappers
    t = tracer.Tracer()
    workloads.clear_caches()
    gc.collect()
    t.install()
    try:
        with t.root("setup"):
            ctx = w.setup(inputs)
        loop = run_queries(w, ctx, inputs["queries"], reference, Loop(), at_least=count,
                           root=t.root)
    finally:
        t.uninstall()
    t.write(path, {"workload": w.name, "seed": seed, "queries": count,
                   "environment": environment()})
    layers = tracer.per_layer(path, queries=count, setups=1)
    layers.update(tracer.cache_counts())
    return layers, loop


def per_layer(workloads, w, seed: int, seconds: float):
    """An untraced loop for the bases, then the traced pass."""
    inputs = w.make_inputs(seed)
    reference = w.reference(inputs)
    ctx, _ = _setup_once(workloads, w, inputs)
    untraced = run_queries(w, ctx, inputs["queries"], reference, Loop(), busy_until=seconds,
                           at_least=MIN_QUERIES, deadline=time.perf_counter() + WALL_LIMIT_S)
    path = OUT / f"trace-{w.name}-s{seed}.jsonl"
    layers, traced = traced_pass(workloads, w, seed, inputs, reference, TRACE_QUERIES, path)

    engine_p50 = statistics.median(untraced.latencies)
    oracle_p50 = statistics.median(untraced.ref_latencies)
    traced_qps = traced.qps(TRACE_QUERIES)
    untraced_qps = untraced.qps(TRACE_QUERIES)
    layers.update({
        "engine.latency_p50_s": engine_p50,
        "engine.latency_p90_s": _p90(untraced.latencies),
        "engine.throughput_qps": untraced.qps(),
        "oracle.latency_p50_s": oracle_p50,
        "oracle.speed_ratio": engine_p50 / oracle_p50,
        "trace.traced_qps": traced_qps,
        "trace.untraced_qps": untraced_qps,
        "trace.overhead_ratio": traced_qps / untraced_qps,
    })
    units = _layer_units()
    return {k: (v, units[k]) for k, v in layers.items()}, [untraced, traced], {}


def _layer_units() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def _row(name: str, cells: dict, note: str) -> str:
    return f"{name:<12} " + "  ".join(f"{k}={v:.6g} {u}" for k, (v, u) in cells.items()) + note


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    import workloads
    floor = _rss_mb()
    w = workloads.WORKLOADS[args.workload]
    measure = per_layer if args.trace else end_to_end
    metrics, loops, wall = measure(workloads, w, args.seed, args.seconds)
    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.errors for loop in loops)
    record = {
        "workload": w.name, "size": w.size,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(),
        "rss_floor_mb": floor,
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "wall_time": {k: {"value": v, "unit": u} for k, (v, u) in wall.items()},
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{w.name}-s{args.seed}-t{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    note = f"  [queries={attempted} errors={failed} interpreter+numpy floor={floor:.1f} MB]"
    print(_row(w.name, {**metrics, **wall}, note))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; one row each, then the totals."""
    rows, merged = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        rows.append(lines[-2])
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print("\n".join(rows))
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "polyspan" / "__init__.py").is_file():
        print(f"spanbench: no engine sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
