"""Checks of the benchmark itself: its plain-loop references against
the package's own oracles and layers, its correctness gate, the
exactness of its traced counts, and that an untraced run never loads
the tracer.

    python3 -m pytest spanbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import numpy as np  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from polyspan import GraphContext, LayerConfig, v3_forward  # noqa: E402
from polyspan.algebra import values_close  # noqa: E402
from polyspan.algorithms import oracle_bellman_ford, oracle_floyd_warshall  # noqa: E402
from polyspan.gnn import MpnnParams, V3Params, mpnn_reference  # noqa: E402


def _close(a, b):
    return len(a) == len(b) and all(
        len(ra) == len(rb) and all(values_close("real", x, y) for x, y in zip(ra, rb))
        for ra, rb in zip(a, b))


def _features(rng, rows, width):
    return rng.standard_normal((rows, width)).tolist()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_shortest_path_loops_match_package_oracles(seed):
    rng = np.random.default_rng(seed)
    n = 12
    edges = [(int(u), int(v), None if w < 10 else int(w))
             for u, v, w in rng.integers(0, [n, n, 60], size=(40, 3))]
    graph = GraphContext(n, edges)
    for source in range(n):
        assert reference.bellman_ford_loop(n, edges, source) == oracle_bellman_ford(graph, source)
    matrix = [[0 if i == j else (int(w) if w < 40 else None) for j, w in enumerate(row)]
              for i, row in enumerate(rng.integers(0, 100, size=(n, n)))]
    assert reference.floyd_warshall_squaring(matrix) == oracle_floyd_warshall(matrix)


@pytest.mark.parametrize("aggregator", ["sum", "max"])
def test_mpnn_loop_matches_package_reference(aggregator):
    rng = np.random.default_rng(7)
    n = 9  # node 8 receives no message, so the empty reduce is covered
    edges = [(int(u), int(v), None) for u, v in rng.integers(0, n - 1, size=(30, 2))]
    cfg = LayerConfig(aggregator=aggregator, seed=4, empty_floor=-1.5)
    q = (_features(rng, n, cfg.node_width), _features(rng, len(edges), cfg.edge_width),
         _features(rng, 1, cfg.graph_width)[0])
    params = MpnnParams.from_config(cfg)
    want = mpnn_reference(GraphContext(n, edges), *q, cfg, params).rows
    assert _close(reference.mpnn_loop(n, edges, *q, cfg, params), want)


@pytest.mark.parametrize("aggregator", ["sum", "max"])
@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_v3_loop_matches_engine(n, aggregator):
    cfg = LayerConfig(aggregator=aggregator, seed=n)
    rng = np.random.default_rng(100 + n)
    q = (_features(rng, n, cfg.node_width), _features(rng, n * n, cfg.edge_width),
         _features(rng, 1, cfg.graph_width)[0])
    params = V3Params.from_config(cfg)
    node_out, edge_out = v3_forward(GraphContext.fully_connected(n), *q, cfg, params)
    ref_node, ref_edge = reference.v3_loop(n, *q, cfg, params)
    assert _close(node_out.rows, ref_node)
    assert _close(edge_out.rows, ref_edge)


class _Flaky:
    """A workload whose query raises on input 0 and is wrong on input 1."""

    name = "flaky"

    @staticmethod
    def query(ctx, q):
        if q == 0:
            raise ValueError("boom")
        return q + (q == 1)

    @staticmethod
    def matches(out, exp):
        return out == exp


def test_failing_queries_are_counted_not_fatal(capsys):
    loop = run.run_queries(_Flaky, None, [0, 1, 2, 3], lambda q: q, run.Loop(), at_least=8)
    assert (loop.attempted, loop.raised, loop.wrong, loop.errors) == (8, 2, 2, 4)
    assert "boom" in capsys.readouterr().err


def _traced(name, seed, count, path):
    w = workloads.WORKLOADS[name]
    inputs = w.make_inputs(seed)
    layers, loop = run.traced_pass(workloads, w, seed, inputs, w.reference(inputs), count, path)
    assert loop.errors == 0
    return layers


def _counts(name, path):
    return {k: v for k, v in _traced(name, 3, 3, path).items() if not k.endswith("_s")}


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_counts_repeat_exactly(name, tmp_path):
    first = _counts(name, tmp_path / "a.jsonl")
    assert first == _counts(name, tmp_path / "b.jsonl")
    assert first["span.args"] > 0 and first["cache.span.misses"] >= 1


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    layers = _traced("gnn-triple", 0, 1, tmp_path / "t.jsonl")
    names = set(run._layer_units()) - {
        "engine.latency_p50_s", "engine.latency_p90_s", "engine.throughput_qps",
        "oracle.latency_p50_s", "oracle.speed_ratio",
        "trace.traced_qps", "trace.untraced_qps", "trace.overhead_ratio"}
    assert set(layers) == names
    assert layers["gnn.message_mlp_calls"] == 1100 and layers["gnn.readout_mlp_calls"] == 110


def test_untraced_run_never_loads_the_tracer():
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import run, workloads\n"
        "run.ROUND_QUERIES, run.MIN_QUERIES = 2, 2\n"
        "metrics, _, _ = run.end_to_end(workloads, workloads.WORKLOADS['gnn-triple'], 0, 0.0)\n"
        "assert metrics['success_ratio'][0] == 1.0\n"
        "print('tracer' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(BENCH), str(ROOT / "src")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_refuses_to_run_without_engine_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(spec["command"] + ["--workload", "sssp-sparse", "--seed", "0",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
