"""Message-passing layers expressed as span transforms.

The plain layer broadcasts graph, sender, receiver and edge features to
every edge, folds the four rows through a message network, reduces the
messages landing on each node, and finishes with a readout.  The square
variants run on the fully-connected graph: the pair layer reuses each
pair message for both its target node and its own edge slot (two spans
sharing one message table), and the triple layer additionally folds
seven broadcasts over ordered node triples, reducing over the middle
coordinate into edge outputs.  With the fold fixed to "add the two path
broadcasts" and min reduction, the triple layer's edge path is exactly
one all-pairs relaxation sweep; ``v3_fw_step`` exposes that reading.

Feature tables carry one shared width per carrier, so node, edge and
graph features are zero-padded up to their common maximum before being
stacked; the message networks consume the padded concatenation.
Networks are seeded, so two layers built from equal configs compute
identical functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .algebra import MAX_PLUS, MIN_PLUS, REAL, tropical_add
from .carrier import GraphContext, parse_carrier
from .errors import InputError, MemoryCapError
from .span import (
    DataMap,
    FoldStrategy,
    PolynomialSpan,
    argument_pushforward,
    integral_transform,
    message_pushforward,
    pullback,
)

# Message-passing span over a sparse edge set: four broadcast copies of
# E pull the graph row, the sender row, the receiver row and the edge
# row; each edge's fiber holds those four rows in that order; messages
# land on their target node.
MPNN_SPEC = {
    "W": "1 + V + E",
    "X": "E + E + E + E",
    "Y": "E",
    "Z": "V",
    "i": "[inj[1].bang; inj[2].src; inj[2].tgt; inj[3]]",
    "p": "[id; id; id; id]",
    "o": "tgt",
}

# Triple-message span on the fully-connected graph.  Four pair
# broadcasts (graph, sender, receiver, edge) and seven triple
# broadcasts (graph; each node of the triple; each edge of the triple,
# in the order (1,2), (2,3), (1,3)).  Pair messages land on their
# target node, triple messages land on their outer pair.
V3_SPEC = {
    "W": "1 + V + V^2",
    "X": " + ".join(["V^2"] * 4 + ["V^3"] * 7),
    "Y": "V^2 + V^3",
    "Z": "V + V^2",
    "i": "["
         "inj[1].bang; inj[2].proj[1]; inj[2].proj[2]; inj[3]; "
         "inj[1].bang; inj[2].proj[1]; inj[2].proj[2]; inj[2].proj[3]; "
         "inj[3].proj[1,2]; inj[3].proj[2,3]; inj[3].proj[1,3]"
         "]",
    "p": "[" + "; ".join(["inj[1]"] * 4 + ["inj[2]"] * 7) + "]",
    "o": "[inj[1].proj[2]; inj[2].proj[1,3]]",
}


@lru_cache(maxsize=None)
def mpnn_span(graph: GraphContext) -> PolynomialSpan:
    return PolynomialSpan.from_spec(MPNN_SPEC, graph)


@lru_cache(maxsize=None)
def v3_span(n: int) -> PolynomialSpan:
    return PolynomialSpan.from_spec(V3_SPEC, GraphContext.fully_connected(n))


def naive_edge_update_span(n: int) -> PolynomialSpan:
    """The tempting one-span version of the pair layer, which wants each
    pair message delivered to both its target node and its own edge
    slot.  No single arrow can duplicate a message, so the closest
    expressible output map targets nodes only and the span fails
    validation against the declared output carrier.  Use two spans
    sharing the message table instead (see v2_forward)."""
    graph = GraphContext.fully_connected(n)
    spec = dict(MPNN_SPEC)
    spec["W"] = "1 + V + V^2"
    spec["X"] = "V^2 + V^2 + V^2 + V^2"
    spec["Y"] = "V^2"
    spec["Z"] = "V"
    spec["i"] = "[inj[1].bang; inj[2].proj[1]; inj[2].proj[2]; inj[3]]"
    spec["o"] = "proj[2]"
    base = PolynomialSpan.from_spec(spec, graph)
    return PolynomialSpan(
        graph, base.inputs, base.arguments, base.messages,
        parse_carrier("V + V^2"),
        base.input_map, base.process_map, base.output_map,
    )


class MLP:
    """A small dense network: per layer a weight matrix, a bias row and
    an activation from {relu, identity}.  Weights initialise uniformly
    in [-1/sqrt(fan_in), +1/sqrt(fan_in)] from the supplied generator."""

    def __init__(self, weights: Sequence[np.ndarray], biases: Sequence[np.ndarray],
                 activations: Sequence[str]):
        if not (len(weights) == len(biases) == len(activations)):
            raise InputError("weights, biases and activations must align")
        for a in activations:
            if a not in ("relu", "identity"):
                raise InputError(f"unknown activation {a!r}")
        self.weights = [np.asarray(w, dtype=float) for w in weights]
        self.biases = [np.asarray(b, dtype=float) for b in biases]
        self.activations = list(activations)

    @classmethod
    def seeded(cls, widths: Sequence[int], rng: np.random.Generator,
               activations: Sequence[str] | None = None) -> "MLP":
        if len(widths) < 2:
            raise InputError("an MLP needs at least an input and an output width")
        if activations is None:
            activations = ["relu"] * (len(widths) - 2) + ["identity"]
        weights, biases = [], []
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            biases.append(rng.uniform(-bound, bound, size=fan_out))
        return cls(weights, biases, activations)

    @property
    def in_width(self) -> int:
        return self.weights[0].shape[0]

    @property
    def out_width(self) -> int:
        return self.weights[-1].shape[1]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        h = np.asarray(x, dtype=float)
        for w, b, act in zip(self.weights, self.biases, self.activations):
            h = h @ w + b
            if act == "relu":
                h = np.maximum(h, 0.0)
        return h

    def forward_trace(self, x: np.ndarray):
        """Forward pass keeping layer inputs and pre-activations."""
        h = np.asarray(x, dtype=float)
        inputs, pre = [], []
        for w, b, act in zip(self.weights, self.biases, self.activations):
            inputs.append(h)
            z = h @ w + b
            pre.append(z)
            h = np.maximum(z, 0.0) if act == "relu" else z
        return h, inputs, pre

    def param_gradients(self, x: np.ndarray, out_grad: np.ndarray):
        """Gradients of a scalar loss wrt every weight and bias, given
        the loss gradient at the output."""
        _, inputs, pre = self.forward_trace(x)
        grads_w = [None] * len(self.weights)
        grads_b = [None] * len(self.biases)
        g = np.asarray(out_grad, dtype=float)
        for layer in range(len(self.weights) - 1, -1, -1):
            if self.activations[layer] == "relu":
                g = g * (pre[layer] > 0.0)
            grads_w[layer] = np.outer(inputs[layer], g)
            grads_b[layer] = g.copy()
            g = g @ self.weights[layer].T
        return grads_w, grads_b


@dataclass
class SquaredLoss:
    """Sum of squared differences to a fixed target row."""

    target: np.ndarray

    def __call__(self, y: np.ndarray) -> float:
        d = np.asarray(y, dtype=float) - self.target
        return float(np.sum(d * d))

    def grad(self, y: np.ndarray) -> np.ndarray:
        return 2.0 * (np.asarray(y, dtype=float) - self.target)


def finite_diff_check(mlp: MLP, x: Sequence[float], loss, step: float = 1e-5) -> float:
    """Largest relative disagreement between backprop and central
    finite differences over every parameter.

    ``loss`` maps the network output row to a scalar and must expose
    ``grad`` for the analytic side.
    """
    x = np.asarray(x, dtype=float)
    y, _, _ = mlp.forward_trace(x)
    grads_w, grads_b = mlp.param_gradients(x, loss.grad(y))

    worst = 0.0

    def probe(array, grad):
        nonlocal worst
        flat = array.reshape(-1)
        gflat = np.asarray(grad).reshape(-1)
        for k in range(flat.size):
            saved = flat[k]
            flat[k] = saved + step
            hi = loss(mlp(x))
            flat[k] = saved - step
            lo = loss(mlp(x))
            flat[k] = saved
            fd = (hi - lo) / (2.0 * step)
            denom = max(abs(gflat[k]), abs(fd), 1e-6)
            worst = max(worst, abs(gflat[k] - fd) / denom)

    for w, gw in zip(mlp.weights, grads_w):
        probe(w, gw)
    for b, gb in zip(mlp.biases, grads_b):
        probe(b, gb)
    return worst


@dataclass(frozen=True)
class LayerConfig:
    """Shapes, reduction and seed for one message-passing layer.

    ``aggregator`` is "sum" or "max"; with "max" an output that
    receives no messages takes ``empty_floor`` in every channel.
    ``memory_cap`` bounds the number of values the layer may
    materialise (the triple layer scales as n^3 * width).
    """

    node_width: int = 4
    edge_width: int = 3
    graph_width: int = 2
    msg_width: int = 4
    hidden_width: int = 8
    aggregator: str = "sum"
    seed: int = 0
    empty_floor: float = 0.0
    memory_cap: int = 10_000_000

    def __post_init__(self):
        if self.aggregator not in ("sum", "max"):
            raise InputError(f"aggregator must be 'sum' or 'max', got {self.aggregator!r}")
        for name in ("node_width", "edge_width", "graph_width", "msg_width", "hidden_width"):
            if getattr(self, name) < 1:
                raise InputError(f"{name} must be >= 1")

    @property
    def pad_width(self) -> int:
        return max(self.node_width, self.edge_width, self.graph_width)


@dataclass
class MpnnParams:
    """Seed-determined networks of the plain layer: the message network
    over four padded broadcasts, then the node readout."""

    message: MLP
    node_readout: MLP

    @classmethod
    def from_config(cls, cfg: LayerConfig) -> "MpnnParams":
        rng = np.random.default_rng(cfg.seed)
        c = cfg.pad_width
        message = MLP.seeded([4 * c, cfg.hidden_width, cfg.msg_width], rng)
        node_readout = MLP.seeded([cfg.node_width + cfg.msg_width, cfg.hidden_width, cfg.node_width], rng)
        return cls(message, node_readout)


@dataclass
class V3Params:
    """Seed-determined networks of the triple layer, drawn in a fixed
    order: pair message, triple message, node readout, edge readout."""

    pair_message: MLP
    triple_message: MLP
    node_readout: MLP
    edge_readout: MLP

    @classmethod
    def from_config(cls, cfg: LayerConfig) -> "V3Params":
        rng = np.random.default_rng(cfg.seed)
        c = cfg.pad_width
        pair = MLP.seeded([4 * c, cfg.hidden_width, cfg.msg_width], rng)
        triple = MLP.seeded([7 * c, cfg.hidden_width, cfg.msg_width], rng)
        node_readout = MLP.seeded([cfg.node_width + cfg.msg_width, cfg.hidden_width, cfg.node_width], rng)
        edge_readout = MLP.seeded([cfg.edge_width + cfg.msg_width, cfg.hidden_width, cfg.edge_width], rng)
        return cls(pair, triple, node_readout, edge_readout)


def _check_rows(name: str, rows, count: int, width: int):
    if len(rows) != count:
        raise InputError(f"{name}: expected {count} row(s), got {len(rows)}")
    for r in rows:
        if len(r) != width:
            raise InputError(f"{name}: width mismatch, expected {width}, got {len(r)}")


def _pad_rows(rows, width: int, pad_width: int) -> list[tuple]:
    tail = (0.0,) * (pad_width - width)
    return [tuple(float(v) for v in r) + tail for r in rows]


def _mlp_fold(mlp: MLP) -> Callable:
    def fold(rows):
        x = np.concatenate([np.asarray(r, dtype=float) for r in rows])
        return tuple(float(v) for v in mlp(x))
    return fold


def _aggregate(span: PolynomialSpan, messages: DataMap, cfg: LayerConfig) -> tuple:
    """Per output, the reduced message row; under max an output with no
    messages takes the floor row."""
    if cfg.aggregator == "sum":
        return message_pushforward(span, REAL, messages).rows
    agg = message_pushforward(span, MAX_PLUS, messages)
    floor_row = (float(cfg.empty_floor),) * agg.width
    return tuple(row if bucket else floor_row
                 for row, bucket in zip(agg.rows, span.compiled().buckets))


def _readout(mlp: MLP, feats, agg_rows) -> tuple:
    out = []
    for feat, agg in zip(feats, agg_rows):
        x = np.concatenate([np.asarray(feat, dtype=float), np.asarray(agg, dtype=float)])
        out.append(tuple(float(v) for v in mlp(x)))
    return tuple(out)


def _stack_inputs(span: PolynomialSpan, graph: GraphContext, cfg: LayerConfig,
                  node_feats, edge_feats, graph_feat) -> DataMap:
    _check_rows("node features", node_feats, graph.n, cfg.node_width)
    _check_rows("edge features", edge_feats, graph.m, cfg.edge_width)
    _check_rows("graph feature", [graph_feat], 1, cfg.graph_width)
    c = cfg.pad_width
    return DataMap.from_term_blocks(span.inputs, graph, [
        _pad_rows([graph_feat], cfg.graph_width, c),
        _pad_rows(node_feats, cfg.node_width, c),
        _pad_rows(edge_feats, cfg.edge_width, c),
    ])


def _mpnn_parts(graph: GraphContext, node_feats, edge_feats, graph_feat,
                cfg: LayerConfig, params: MpnnParams):
    span = mpnn_span(graph)
    stacked = _stack_inputs(span, graph, cfg, node_feats, edge_feats, graph_feat)
    pulled = pullback(span, stacked)
    strategy = FoldStrategy.learned({4: _mlp_fold(params.message)}, width=cfg.msg_width)
    messages = argument_pushforward(span, REAL, strategy, pulled)
    agg = _aggregate(span, messages, cfg)
    node_out = _readout(params.node_readout, node_feats, agg)
    v = parse_carrier("V")
    return messages, DataMap(v, cfg.node_width, node_out)


def mpnn_forward(graph: GraphContext, node_feats, edge_feats, graph_feat,
                 cfg: LayerConfig, params: MpnnParams | None = None) -> DataMap:
    """One message-passing layer over the edge set: message network on
    the four broadcasts, reduce onto target nodes, node readout."""
    params = params or MpnnParams.from_config(cfg)
    _, node_out = _mpnn_parts(graph, node_feats, edge_feats, graph_feat, cfg, params)
    return node_out


def mpnn_reference(graph: GraphContext, node_feats, edge_feats, graph_feat,
                   cfg: LayerConfig, params: MpnnParams | None = None) -> DataMap:
    """The same layer written as explicit loops, kept independent of the
    span engine so the two routes can be compared."""
    params = params or MpnnParams.from_config(cfg)
    _check_rows("node features", node_feats, graph.n, cfg.node_width)
    _check_rows("edge features", edge_feats, graph.m, cfg.edge_width)
    _check_rows("graph feature", [graph_feat], 1, cfg.graph_width)
    c = cfg.pad_width
    gpad = _pad_rows([graph_feat], cfg.graph_width, c)[0]
    npad = _pad_rows(node_feats, cfg.node_width, c)
    epad = _pad_rows(edge_feats, cfg.edge_width, c)

    msgs = []
    for k in range(graph.m):
        u, v = graph.source(k), graph.target(k)
        x = np.concatenate([gpad, npad[u], npad[v], epad[k]])
        msgs.append(params.message(x))

    out = []
    for u in range(graph.n):
        incoming = [msgs[k] for k in range(graph.m) if graph.target(k) == u]
        if incoming:
            agg = incoming[0].copy()
            for row in incoming[1:]:
                agg = agg + row if cfg.aggregator == "sum" else np.maximum(agg, row)
        else:
            fill = 0.0 if cfg.aggregator == "sum" else cfg.empty_floor
            agg = np.full(cfg.msg_width, float(fill))
        x = np.concatenate([np.asarray(node_feats[u], dtype=float), agg])
        out.append(tuple(float(v) for v in params.node_readout(x)))
    return DataMap(parse_carrier("V"), cfg.node_width, tuple(out))


def v2_forward(graph: GraphContext, node_feats, edge_feats, graph_feat,
               cfg: LayerConfig, params: MpnnParams | None = None):
    """Pair layer on the fully-connected graph: compute each pair's
    message once, reduce into target nodes for the node output, and
    deliver each message to its own edge slot as the edge output.

    The node path is exactly ``mpnn_forward`` on the same graph and
    seed; the second delivery is the identity-output span over the
    shared message table.
    """
    if not graph.full:
        raise InputError("the pair layer needs the fully-connected graph")
    params = params or MpnnParams.from_config(cfg)
    messages, node_out = _mpnn_parts(graph, node_feats, edge_feats, graph_feat, cfg, params)
    return node_out, messages


def _v3_memory(n: int, cfg: LayerConfig) -> int:
    pair, triple = n * n, n * n * n
    argument_values = (4 * pair + 7 * triple) * cfg.pad_width
    message_values = (pair + triple) * cfg.msg_width
    return argument_values + message_values


def v3_forward(graph: GraphContext, node_feats, edge_feats, graph_feat,
               cfg: LayerConfig, params: V3Params | None = None):
    """Triple layer on the fully-connected graph.

    Pair messages (four broadcasts through the pair network) reduce
    onto their target node; triple messages (seven broadcasts through
    the triple network) reduce over the middle coordinate onto their
    outer pair.  Readouts map (node features, node aggregate) to node
    outputs and (edge features, pair aggregate) to edge outputs.
    """
    if not graph.full:
        raise InputError("the triple layer needs the fully-connected graph")
    n = graph.n
    needed = _v3_memory(n, cfg)
    if needed > cfg.memory_cap:
        raise MemoryCapError(
            f"triple layer would materialise {needed} values (n^3 scaling); cap is {cfg.memory_cap}"
        )
    params = params or V3Params.from_config(cfg)
    span = v3_span(n)
    stacked = _stack_inputs(span, graph, cfg, node_feats, edge_feats, graph_feat)
    pulled = pullback(span, stacked)
    strategy = FoldStrategy.learned({
        4: _mlp_fold(params.pair_message),
        7: _mlp_fold(params.triple_message),
    }, width=cfg.msg_width)
    messages = argument_pushforward(span, REAL, strategy, pulled)
    agg = _aggregate(span, messages, cfg)
    node_out = _readout(params.node_readout, node_feats, agg[:n])
    edge_out = _readout(params.edge_readout, edge_feats, agg[n:])
    return (
        DataMap(parse_carrier("V"), cfg.node_width, node_out),
        DataMap(parse_carrier("V^2"), cfg.edge_width, edge_out),
    )


def v3_fw_step(d) -> tuple:
    """The triple layer's edge path read as dynamic programming.

    Distances ride in the single channel of the edge slots; the triple
    fold adds the two path broadcasts (positions 5 and 6 of the fiber,
    the edges (1,2) and (2,3) of the triple); reduction over the middle
    coordinate is min.  The result is exactly one all-pairs relaxation
    sweep of the input matrix.
    """
    n = len(d)
    for i, row in enumerate(d):
        if len(row) != n:
            raise InputError(f"distance matrix row {i} has {len(row)} entries, expected {n}")
    span = v3_span(n)
    stacked = DataMap.from_term_blocks(span.inputs, span.graph, [
        [(MIN_PLUS.one,)],
        [(MIN_PLUS.one,)] * n,
        [(w,) for row in d for w in row],
    ])
    strategy = FoldStrategy.learned({
        4: lambda rows: (MIN_PLUS.one,),
        7: lambda rows: (tropical_add(rows[4][0], rows[5][0]),),
    }, width=1)
    out = integral_transform(span, MIN_PLUS, strategy, stacked)
    pair_rows = out.rows[n:]
    return tuple(tuple(pair_rows[i * n + j][0] for j in range(n)) for i in range(n))
