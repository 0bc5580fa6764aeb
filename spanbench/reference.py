"""Plain-loop references for the four benchmarked entry points.

They check every query's output and time the same input next to it.
Each runs the same algorithm as its entry point (the same relaxation
sweeps, the same messages and reductions) in plain loops, so the
engine-to-reference ratio tracks the engine's overhead rather than
the input.  None of them imports the package under test: the layer
references read only the weights and widths of the params and config
they are given, so a change to the engine, its semiring operations or
its MLP never changes the reference's result or its speed.
"""

from __future__ import annotations

import numpy as np


def bellman_ford_loop(n: int, edges, source: int) -> list:
    """Single-source distances by simultaneous edge relaxation, at most
    n - 1 sweeps, stopping at the fixpoint, as the engine's bellman_ford
    does.  None is unreachable."""
    dist = [None] * n
    dist[source] = 0
    for _ in range(max(n - 1, 0)):
        nxt = list(dist)
        for u, v, w in edges:
            du = dist[u]
            if du is None or w is None:
                continue
            cand = du + w
            if nxt[v] is None or cand < nxt[v]:
                nxt[v] = cand
        if nxt == dist:
            break
        dist = nxt
    return dist


def floyd_warshall_squaring(matrix) -> tuple:
    """All-pairs distances by repeated min-plus squaring, d <- min(d, d*d),
    to the fixpoint or ceil(log2 n) + 1 sweeps: the sweeps the engine's
    floyd_warshall runs, so the two do the same work on every input."""
    n = len(matrix)
    d = tuple(tuple(row) for row in matrix)
    for _ in range((n - 1).bit_length() + 1 if n else 1):
        cols = list(zip(*d))
        nxt = []
        for row in d:
            out = []
            for j in range(n):
                best = row[j]
                for a, b in zip(row, cols[j]):
                    if a is not None and b is not None and (best is None or a + b < best):
                        best = a + b
                out.append(best)
            nxt.append(tuple(out))
        nxt = tuple(nxt)
        if nxt == d:
            break
        d = nxt
    return d


def _mlp(net, x):
    for w, b, act in zip(net.weights, net.biases, net.activations):
        x = x @ w + b
        if act == "relu":
            x = np.maximum(x, 0.0)
    return x


def _pad(row, width):
    return np.concatenate([np.asarray(row, dtype=float), np.zeros(width - len(row))])


def _reduce(msgs, cfg):
    """Messages in ascending order of their position, folded with + or max."""
    if not msgs:
        return np.full(cfg.msg_width, 0.0 if cfg.aggregator == "sum" else float(cfg.empty_floor))
    acc = msgs[0]
    for msg in msgs[1:]:
        acc = acc + msg if cfg.aggregator == "sum" else np.maximum(acc, msg)
    return acc


def _readout(net, feats, aggs) -> tuple:
    return tuple(
        tuple(float(v) for v in _mlp(net, np.concatenate([np.asarray(f, dtype=float), agg])))
        for f, agg in zip(feats, aggs)
    )


def mpnn_loop(n: int, edges, node_feats, edge_feats, graph_feat, cfg, params) -> tuple:
    """The edge-list message-passing layer: the message of edge k = (u, v)
    reads (graph, node u, node v, edge k) and lands on v."""
    c = cfg.pad_width
    g = _pad(graph_feat, c)
    node = [_pad(r, c) for r in node_feats]
    incoming = [[] for _ in range(n)]
    for k, (u, v, _) in enumerate(edges):
        x = np.concatenate([g, node[u], node[v], _pad(edge_feats[k], c)])
        incoming[v].append(_mlp(params.message, x))
    return _readout(params.node_readout, node_feats, [_reduce(m, cfg) for m in incoming])


def v3_loop(n: int, node_feats, edge_feats, graph_feat, cfg, params) -> tuple:
    """The triple layer as plain loops over pairs and triples.

    Built only from the ``V3Params`` weights: the pair message of
    (i, j) reads (graph, node i, node j, edge ij) and lands on node j;
    the triple message of (a, b, c) reads (graph, nodes a, b, c, edges
    ab, bc, ac) and lands on pair (a, c).  Each output reduces its
    messages in ascending order of the message's position, then the
    readouts map (own features, aggregate) to the new features.
    Returns (node rows, edge rows) as tuples of float tuples.
    """
    c = cfg.pad_width
    g = _pad(graph_feat, c)
    node = [_pad(r, c) for r in node_feats]
    edge = [_pad(r, c) for r in edge_feats]

    node_in = [[] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            x = np.concatenate([g, node[i], node[j], edge[i * n + j]])
            node_in[j].append(_mlp(params.pair_message, x))
    pair_in = [[] for _ in range(n * n)]
    for a in range(n):
        for b in range(n):
            for d in range(n):
                x = np.concatenate([g, node[a], node[b], node[d],
                                    edge[a * n + b], edge[b * n + d], edge[a * n + d]])
                pair_in[a * n + d].append(_mlp(params.triple_message, x))

    return (_readout(params.node_readout, node_feats, [_reduce(m, cfg) for m in node_in]),
            _readout(params.edge_readout, edge_feats, [_reduce(m, cfg) for m in pair_in]))
