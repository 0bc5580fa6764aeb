"""Shortest-path computations as span transforms, plus textbook oracles.

Single-source distances run over a span whose inputs stack the current
distance table, a per-node bias, and the edge weights; one transform is
one simultaneous relaxation of every node.  All-pairs distances run on
the fully-connected square carrier, where each transform squares the
path lengths covered so far, so a logarithmic number of sweeps reaches
the fixpoint.

Weights live in the tropical naturals: non-negative integers with
``None`` as "unreachable".  The oracles at the bottom are deliberately
plain re-implementations used only to cross-check the span engine.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from .algebra import MIN_PLUS, Value, tropical_add, tropical_min
from .carrier import GraphContext
from .errors import InputError
from .span import (
    SPAN_CACHE_SIZE,
    DataMap,
    FoldStrategy,
    PolynomialSpan,
    _as_object,
    _decode,
    integral_transform,
)

# Textual form of the single-source relaxation span.  The argument
# carrier holds two copies of V+E: the first pulls current distances
# (nodes directly, edges through their source), the second pulls bias
# and weight.  Each message site therefore folds exactly two rows, and
# each node output reduces its own self-message with one message per
# incoming edge.
BELLMAN_FORD_SPEC = {
    "W": "V + (V + E)",
    "X": "(V + E) + (V + E)",
    "Y": "V + E",
    "Z": "V",
    "i": "[inj[1]; inj[1].src; inj[2]; inj[3]]",
    "p": "[inj[1]; inj[2]; inj[1]; inj[2]]",
    "o": "[id; tgt]",
}

# All-pairs relaxation over ordered triples: the two broadcasts read
# d[i][k] and d[k][j], the fold adds them, and the output projection
# reduces over the middle coordinate with min.
FLOYD_WARSHALL_SPEC = {
    "W": "V^2",
    "X": "V^3 + V^3",
    "Y": "V^3",
    "Z": "V^2",
    "i": "[proj[1,2]; proj[2,3]]",
    "p": "[id; id]",
    "o": "proj[1,3]",
}

Matrix = tuple


@lru_cache(maxsize=SPAN_CACHE_SIZE)
def bellman_ford_span(graph: GraphContext) -> PolynomialSpan:
    """The single-source relaxation span bound to one graph."""
    return PolynomialSpan.from_spec(BELLMAN_FORD_SPEC, graph)


@lru_cache(maxsize=SPAN_CACHE_SIZE)
def floyd_warshall_span(n: int) -> PolynomialSpan:
    """The all-pairs relaxation span on the fully-connected graph of n nodes."""
    return PolynomialSpan.from_spec(FLOYD_WARSHALL_SPEC, GraphContext.fully_connected(n))


def check_tropical_weights(graph: GraphContext):
    """Weights must be non-negative integers or the unreachable sentinel."""
    for k, (_, _, w) in enumerate(graph.edges):
        if w is None:
            continue
        if isinstance(w, bool) or not isinstance(w, int):
            raise InputError(f"edge {k}: weight {w!r} is not a tropical natural")
        if w < 0:
            raise InputError(f"edge {k}: negative weight {w}")


def make_state(graph: GraphContext, distances: Sequence[Value]) -> DataMap:
    """The input table of one relaxation sweep: the distance vector, the
    standard zero bias and the graph's weights, stacked on the span's
    input carrier."""
    return DataMap.from_term_blocks(bellman_ford_span(graph).inputs, graph, [
        [(d,) for d in distances],
        [(MIN_PLUS.one,)] * graph.n,
        [(w,) for (_, _, w) in graph.edges],
    ])


def initial_distances(graph: GraphContext, source: int) -> list[Value]:
    if not (0 <= source < graph.n):
        raise InputError(f"source {source} out of range for a graph with {graph.n} node(s)")
    return [0 if u == source else None for u in range(graph.n)]


def bellman_ford_step(graph: GraphContext, state: DataMap) -> DataMap:
    """One simultaneous relaxation of every node, on a table from make_state."""
    return integral_transform(bellman_ford_span(graph), MIN_PLUS, FoldStrategy.semiring(), state)


def bellman_ford(graph: GraphContext, source: int) -> list[Value]:
    """Single-source shortest distances via repeated relaxation sweeps.

    Runs until fixpoint or n - 1 sweeps, whichever comes first.  Each
    sweep's output array is the next distance block of the stacked
    input; the distances are decoded once, at the end.
    """
    check_tropical_weights(graph)
    n = graph.n
    state = make_state(graph, initial_distances(graph, source))
    kind, table = state._encoded()
    for _ in range(max(n - 1, 0)):
        out_kind, dist = bellman_ford_step(graph, state)._encoded()
        if out_kind != kind:  # the overflow guard moved the sweep onto Python ints
            kind, table, dist = "object", _as_object(kind, table), _as_object(out_kind, dist)
        if np.array_equal(dist, table[:n]):
            break
        table = np.concatenate((dist, table[n:]))
        state = DataMap._built(state.carrier, 1, values=(kind, table))
    return _decode(kind, table[:n, 0])


def _check_matrix(d: Sequence[Sequence[Value]]) -> int:
    n = len(d)
    for i, row in enumerate(d):
        if len(row) != n:
            raise InputError(f"distance matrix row {i} has {len(row)} entries, expected {n}")
        for j, w in enumerate(row):
            if w is None:
                continue
            if isinstance(w, bool) or not isinstance(w, int):
                raise InputError(f"entry ({i}, {j}): {w!r} is not a tropical natural")
            if w < 0:
                raise InputError(f"entry ({i}, {j}): negative weight {w}")
    for i in range(n):
        if d[i][i] != 0:
            raise InputError(f"distance matrix must have a zero diagonal, entry ({i}, {i}) is {d[i][i]!r}")
    return n


def _matrix_rows(d: Sequence[Sequence[Value]]) -> tuple:
    return tuple((w,) for row in d for w in row)


def floyd_warshall_step(d: Sequence[Sequence[Value]]) -> Matrix:
    """One all-pairs relaxation: min over k of d[i][k] + d[k][j]."""
    n = _check_matrix(d)
    span = floyd_warshall_span(n)
    table = DataMap(span.inputs, 1, _matrix_rows(d))
    rows = integral_transform(span, MIN_PLUS, FoldStrategy.semiring(), table).rows
    return tuple(tuple(rows[i * n + j][0] for j in range(n)) for i in range(n))


def floyd_warshall(d0: Sequence[Sequence[Value]]) -> Matrix:
    """All-pairs shortest distances from a zero-diagonal weight matrix.

    Each sweep doubles the path length covered, so at most
    ceil(log2 n) + 1 sweeps are needed.
    """
    n = _check_matrix(d0)
    d = tuple(tuple(row) for row in d0)
    cap = (n - 1).bit_length() + 1 if n >= 1 else 1
    for _ in range(cap):
        # The zero diagonal makes k = j a candidate for every entry, so a
        # sweep never raises one: its result is already min(d, sweep).
        nxt = floyd_warshall_step(d)
        if nxt == d:
            break
        d = nxt
    return d


# --- textbook oracles, kept free of the span machinery ----------------------


def oracle_bellman_ford(graph: GraphContext, source: int) -> list[Value]:
    """Plain edge-relaxation loop for cross-checking."""
    check_tropical_weights(graph)
    dist = initial_distances(graph, source)
    for _ in range(max(graph.n - 1, 0)):
        nxt = list(dist)
        for (u, v, w) in graph.edges:
            cand = tropical_add(dist[u], w)
            nxt[v] = tropical_min(nxt[v], cand)
        if nxt == dist:
            break
        dist = nxt
    return dist


def oracle_floyd_warshall(d0: Sequence[Sequence[Value]]) -> Matrix:
    """Plain triple loop for cross-checking."""
    n = _check_matrix(d0)
    d = [list(row) for row in d0]
    for k in range(n):
        for i in range(n):
            dik = d[i][k]
            if dik is None:
                continue
            for j in range(n):
                cand = tropical_add(dik, d[k][j])
                d[i][j] = tropical_min(d[i][j], cand)
    return tuple(tuple(row) for row in d)
