"""Shortest-path computations as span transforms, plus textbook oracles.

Single-source distances run over a span whose inputs stack the current
distance table, a per-node bias, and the edge weights; one transform is
one simultaneous relaxation of every node.  All-pairs distances run on
the square carrier V^2 of n nodes, where each transform squares the
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
from .errors import CarrierMismatchError, InputError
from .span import (
    SPAN_CACHE_SIZE,
    DataMap,
    FoldStrategy,
    PolynomialSpan,
    _as_object,
    _encode,
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
    """The all-pairs relaxation span on n nodes; no arrow reads an edge, so it has none."""
    return PolynomialSpan.from_spec(FLOYD_WARSHALL_SPEC, GraphContext(n))


def check_tropical_weights(graph: GraphContext):
    """Weights must be non-negative integers or the unreachable sentinel."""
    for k, (_, _, w) in enumerate(graph.edges):
        if w is None:
            continue
        if isinstance(w, bool) or not isinstance(w, int):
            raise InputError(f"edge {k}: weight {w!r} is not a tropical natural")
        if w < 0:
            raise InputError(f"edge {k}: negative weight {w}")


@lru_cache(maxsize=SPAN_CACHE_SIZE)
def _fixed_block(graph: GraphContext) -> tuple[GraphContext, np.ndarray]:
    """The rows below the distances in every sweep's input, once per
    graph: the zero bias and the checked weights, encoded; with the
    graph whose weights were checked."""
    bellman_ford_span(graph)  # the size cap, before the n + m column
    check_tropical_weights(graph)
    block = _encode([*[MIN_PLUS.one] * graph.n, *(w for (_, _, w) in graph.edges)], 1)
    block.flags.writeable = False  # shared by every query on the graph
    return graph, block


def _checked_block(graph: GraphContext) -> np.ndarray:
    """The fixed block of graph, its weights checked.  The cache matches
    graphs by value, and a weight of 1 equals True, 1.0 and np.int64(1),
    so a graph other than the one checked is checked itself; once it
    passes, its weights are the same ints and the block is its own."""
    checked, block = _fixed_block(graph)
    if checked is not graph:
        check_tropical_weights(graph)
    return block


def make_state(graph: GraphContext, distances: Sequence[Value]) -> DataMap:
    """The input table of one relaxation sweep: the distance vector, the
    standard zero bias and the graph's weights, stacked on the span's
    input carrier.  The weights are checked, and the bias and weights
    encoded, once per graph; only the distances are encoded per call."""
    if len(distances) != graph.n:
        raise CarrierMismatchError(f"expected {graph.n} distance(s), got {len(distances)}")
    block = _checked_block(graph)
    head = _encode(distances, 1)
    if head.dtype != block.dtype:
        # Python objects, as one encoding of the whole column would hold.
        head = np.fromiter(distances, dtype=object, count=graph.n).reshape(-1, 1)
        block = _as_object(block)
    return DataMap._built(bellman_ford_span(graph).inputs, np.concatenate((head, block)))


def initial_distances(graph: GraphContext, source: int) -> list[Value]:
    if not (0 <= source < graph.n):
        raise InputError(f"source {source} out of range for a graph with {graph.n} node(s)")
    return [0 if u == source else None for u in range(graph.n)]


def bellman_ford_step(graph: GraphContext, state: DataMap) -> DataMap:
    """One simultaneous relaxation of every node, on a table from make_state."""
    return integral_transform(bellman_ford_span(graph), MIN_PLUS, FoldStrategy.semiring(), state)


def _relax(sweep, state: DataMap, head: int, sweeps: int) -> np.ndarray:
    """Apply sweep to state until its first head rows stop changing, or
    sweeps times; each sweep's output array is the next head block of
    the input.  Returns the encoded head block, undecoded."""
    table = state._values
    for _ in range(sweeps):
        new = sweep(state)._values
        if new.dtype != table.dtype:  # the overflow guard moved the sweep onto Python ints
            table, new = _as_object(table), _as_object(new)
        if np.array_equal(new, table[:head]):
            break
        table = np.concatenate((new, table[head:]))
        state = DataMap._built(state.carrier, table)
    return table[:head]


def bellman_ford(graph: GraphContext, source: int) -> list[Value]:
    """Single-source shortest distances via repeated relaxation sweeps.

    Runs until fixpoint or n - 1 sweeps, whichever comes first; the
    distances are decoded once, at the end.
    """
    _checked_block(graph)  # the size cap and the weights, before any n-sized list
    state = make_state(graph, initial_distances(graph, source))
    dist = _relax(lambda s: bellman_ford_step(graph, s), state, graph.n, max(graph.n - 1, 0))
    return _as_object(dist[:, 0]).tolist()


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


def _floyd_warshall(d: Sequence[Sequence[Value]], sweeps: int) -> Matrix:
    """Up to ``sweeps`` relaxations of d, checked, encoded and decoded once.
    The zero diagonal makes k = j a candidate for every entry, so a sweep
    never raises one: its result is already min(d, sweep)."""
    n = _check_matrix(d)
    span = floyd_warshall_span(n)
    state = DataMap._built(span.inputs, _encode([w for row in d for w in row], 1))
    table = _relax(lambda s: integral_transform(span, MIN_PLUS, FoldStrategy.semiring(), s),
                   state, n * n, sweeps)
    return tuple(map(tuple, _as_object(table.reshape(n, n)).tolist()))


def floyd_warshall_step(d: Sequence[Sequence[Value]]) -> Matrix:
    """One all-pairs relaxation: min over k of d[i][k] + d[k][j]."""
    return _floyd_warshall(d, 1)


def floyd_warshall(d0: Sequence[Sequence[Value]]) -> Matrix:
    """All-pairs shortest distances from a zero-diagonal weight matrix.

    Each sweep doubles the path length covered, so at most
    ceil(log2 n) + 1 sweeps are needed.
    """
    return _floyd_warshall(d0, max(len(d0) - 1, 0).bit_length() + 1)


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
