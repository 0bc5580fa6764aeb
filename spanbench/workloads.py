"""Seeded inputs, set-up, queries and references for the span-engine benchmark.

Each workload is a closed loop with one caller over one of the four
entry points of the engine.  ``make_inputs`` draws everything from the
seed; ``setup`` turns the inputs into a ready context (graph, span
built and compiled, layer params); ``query`` runs one query through
the engine; ``reference`` binds the plain-loop reference (``reference.py``)
to the inputs, and ``matches`` compares an engine output with the
reference's.

Entry points are looked up as module attributes at call time
(``algorithms.bellman_ford``, not a bound name), so a traced run can
wrap them from outside for the length of that run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from polyspan import algorithms, carrier, gnn
from polyspan.algebra import values_close
import reference

# Distinct query inputs drawn per run; the query loop cycles over them.
QUERY_INPUTS = 100


@dataclass(frozen=True)
class Workload:
    name: str
    size: str
    make_inputs: Callable[[int], dict]
    setup: Callable[[dict], dict]
    query: Callable[[dict, Any], Any]
    reference: Callable[[dict], Callable[[Any], Any]]
    matches: Callable[[Any, Any], bool]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _random_edges(rng: random.Random, n: int, m: int, weights: bool) -> list:
    """m distinct directed edges without self-loops, in draw order."""
    seen = set()
    edges = []
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v or (u, v) in seen:
            continue
        seen.add((u, v))
        edges.append((u, v, rng.randint(0, 100) if weights else None))
    return edges


def _features(rng: np.random.Generator, rows: int, width: int) -> list:
    return rng.standard_normal((rows, width)).tolist()


def _rows_close(a, b) -> bool:
    return len(a) == len(b) and all(
        len(ra) == len(rb) and all(values_close("real", x, y) for x, y in zip(ra, rb))
        for ra, rb in zip(a, b)
    )


# --- sssp-sparse: bellman_ford on sparse graphs, many sources ---------------
# Four graphs of 25 sources each rather than one of 100: the sweep count
# of a query depends on the graph, and one graph per seed made the
# latency quantiles jump between seeds.

SSSP_N, SSSP_M, SSSP_GRAPHS = 300, 1500, 4


def _sssp_inputs(seed: int) -> dict:
    rng = _rng("sssp-sparse", seed)
    graphs, sources = [], []
    for _ in range(SSSP_GRAPHS):
        graphs.append(_random_edges(rng, SSSP_N, SSSP_M, weights=True))
        sources.append(rng.sample(range(SSSP_N), QUERY_INPUTS // SSSP_GRAPHS))
    queries = [(g, src[i]) for i in range(QUERY_INPUTS // SSSP_GRAPHS) for g, src in enumerate(sources)]
    return {"graphs": graphs, "queries": queries}


def _sssp_setup(inputs: dict) -> dict:
    graphs = [carrier.GraphContext(SSSP_N, tuple(edges)) for edges in inputs["graphs"]]
    for graph in graphs:
        algorithms.bellman_ford_span(graph).compiled()
    return {"graphs": graphs}


def _sssp_reference(inputs: dict):
    graphs = inputs["graphs"]
    return lambda q: reference.bellman_ford_loop(SSSP_N, graphs[q[0]], q[1])


# --- apsp-dense: floyd_warshall on many sparse-weighted dense matrices --------

# At 10% density about a quarter of the matrices take a fifth sweep, so
# neither the median nor p90 sits on the boundary between 4 and 5 sweeps.
APSP_N, APSP_DENSITY = 20, 0.1


def _apsp_inputs(seed: int) -> dict:
    rng = _rng("apsp-dense", seed)
    mats = []
    for _ in range(QUERY_INPUTS):
        mats.append(tuple(
            tuple(0 if i == j else (rng.randint(0, 100) if rng.random() < APSP_DENSITY else None)
                  for j in range(APSP_N))
            for i in range(APSP_N)
        ))
    return {"queries": mats}


def _apsp_setup(inputs: dict) -> dict:
    algorithms.floyd_warshall_span(APSP_N).compiled()
    return {}


# --- gnn-sparse: mpnn_forward with sum aggregation on a sparse graph ---------

GNN_N, GNN_M = 200, 1200


def _layer_inputs(workload: str, seed: int, n: int, m: int, cfg: gnn.LayerConfig) -> list:
    rng = np.random.default_rng(list(f"{workload}:{seed}".encode()))
    return [
        (_features(rng, n, cfg.node_width), _features(rng, m, cfg.edge_width),
         _features(rng, 1, cfg.graph_width)[0])
        for _ in range(QUERY_INPUTS)
    ]


def _gnn_inputs(seed: int) -> dict:
    edges = _random_edges(_rng("gnn-sparse", seed), GNN_N, GNN_M, weights=False)
    cfg = gnn.LayerConfig(aggregator="sum", seed=seed)
    return {"edges": edges, "cfg": cfg,
            "queries": _layer_inputs("gnn-sparse", seed, GNN_N, GNN_M, cfg)}


def _gnn_setup(inputs: dict) -> dict:
    graph = carrier.GraphContext(GNN_N, tuple(inputs["edges"]))
    gnn.mpnn_span(graph).compiled()
    cfg = inputs["cfg"]
    return {"graph": graph, "cfg": cfg, "params": gnn.MpnnParams.from_config(cfg)}


def _gnn_reference(inputs: dict):
    edges, cfg = inputs["edges"], inputs["cfg"]
    params = gnn.MpnnParams.from_config(cfg)
    return lambda q: reference.mpnn_loop(GNN_N, edges, *q, cfg, params)


# --- gnn-triple: v3_forward with max aggregation on the complete graph -------

TRIPLE_N = 10


def _triple_inputs(seed: int) -> dict:
    cfg = gnn.LayerConfig(aggregator="max", seed=seed)
    return {"cfg": cfg,
            "queries": _layer_inputs("gnn-triple", seed, TRIPLE_N, TRIPLE_N * TRIPLE_N, cfg)}


def _triple_setup(inputs: dict) -> dict:
    graph = carrier.GraphContext.fully_connected(TRIPLE_N)
    gnn.v3_span(TRIPLE_N).compiled()
    cfg = inputs["cfg"]
    return {"graph": graph, "cfg": cfg, "params": gnn.V3Params.from_config(cfg)}


def _triple_reference(inputs: dict):
    cfg = inputs["cfg"]
    params = gnn.V3Params.from_config(cfg)
    return lambda q: reference.v3_loop(TRIPLE_N, *q, cfg, params)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "sssp-sparse",
            f"{SSSP_GRAPHS} graphs n={SSSP_N} m={SSSP_M} weights 0..100, {QUERY_INPUTS} sources",
            _sssp_inputs, _sssp_setup,
            lambda ctx, q: algorithms.bellman_ford(ctx["graphs"][q[0]], q[1]),
            _sssp_reference,
            lambda out, exp: list(out) == list(exp),
        ),
        Workload(
            "apsp-dense", f"{QUERY_INPUTS} matrices n={APSP_N}, {1 - APSP_DENSITY:.0%} entries missing",
            _apsp_inputs, _apsp_setup,
            lambda ctx, mat: algorithms.floyd_warshall(mat),
            lambda inputs: reference.floyd_warshall_squaring,
            lambda out, exp: tuple(map(tuple, out)) == exp,
        ),
        Workload(
            "gnn-sparse", f"mpnn sum n={GNN_N} m={GNN_M}, {QUERY_INPUTS} feature sets",
            _gnn_inputs, _gnn_setup,
            lambda ctx, q: gnn.mpnn_forward(ctx["graph"], *q, ctx["cfg"], ctx["params"]),
            _gnn_reference,
            lambda out, exp: _rows_close(out.rows, exp),
        ),
        Workload(
            "gnn-triple", f"v3 max n={TRIPLE_N}, {QUERY_INPUTS} feature sets",
            _triple_inputs, _triple_setup,
            lambda ctx, q: gnn.v3_forward(ctx["graph"], *q, ctx["cfg"], ctx["params"]),
            _triple_reference,
            lambda out, exp: _rows_close(out[0].rows, exp[0]) and _rows_close(out[1].rows, exp[1]),
        ),
    )
}


def clear_caches():
    """Empty every functools cache in the package, as in a fresh process."""
    for module in (carrier, algorithms, gnn):
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
