"""Command-line front end.

Verbs: bellman-ford, floyd-warshall, run-span, check-laws, gnn-demo,
verify.  Graph files look like

    n m [directed|full]
    u v w        (m lines; w a non-negative integer or "inf")

Span files are JSON objects with carrier expressions under W, X, Y, Z
and arrow expressions under i, p, o.  Exit codes: 0 success, 1 usage
error, 2 malformed input, 3 verification failure.  All diagnostics go
to stderr; output is byte-deterministic for a fixed seed.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import sys
import tempfile

import numpy as np

from . import algorithms, gnn
from .algebra import SEMIRINGS, Semiring, check_laws, law_samples
from .carrier import SIZE_CAP, GraphContext
from .errors import InputError, PolyspanError
from .span import DataMap, FoldStrategy, PolynomialSpan, integral_transform, load_span_file


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def load_graph(path) -> GraphContext:
    """Read a graph file; negative weights are rejected up front."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw_lines = fh.read().splitlines()
    except OSError as exc:
        raise InputError(f"cannot read graph file: {exc}") from None
    lines = [(k + 1, line.strip()) for k, line in enumerate(raw_lines) if line.strip()]
    if not lines:
        raise InputError(f"{path}: empty graph file")
    header_no, header = lines[0]
    parts = header.split()
    if len(parts) not in (2, 3):
        raise InputError(f"{path}:{header_no}: header must be 'n m [directed|full]'")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise InputError(f"{path}:{header_no}: node and edge counts must be integers") from None
    mode = parts[2] if len(parts) == 3 else "directed"
    if mode not in ("directed", "full"):
        raise InputError(f"{path}:{header_no}: mode must be 'directed' or 'full', got {mode!r}")
    if n < 0 or m < 0:
        raise InputError(f"{path}:{header_no}: counts must be non-negative")
    if n > SIZE_CAP or (mode == "full" and n * n > SIZE_CAP):  # before any n- or n*n-sized table
        raise InputError(f"{path}:{header_no}: n={n} in {mode} mode is over the size cap of {SIZE_CAP}")
    if len(lines) - 1 != m:
        raise InputError(f"{path}: header promises {m} edge line(s), found {len(lines) - 1}")

    edges = []
    for line_no, line in lines[1:]:
        fields = line.split()
        if len(fields) != 3:
            raise InputError(f"{path}:{line_no}: edge lines must be 'u v w'")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise InputError(f"{path}:{line_no}: endpoints must be integers") from None
        if fields[2] == "inf":
            w = None
        else:
            try:
                w = int(fields[2])
            except ValueError:
                raise InputError(f"{path}:{line_no}: weight must be an integer or 'inf'") from None
            if w < 0:
                raise InputError(f"{path}:{line_no}: negative weight {w}")
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"{path}:{line_no}: endpoints ({u}, {v}) out of range for n={n}")
        edges.append((u, v, w))

    if mode == "full":
        weights: dict = {}
        for (u, v, w) in edges:
            prior = weights.get((u, v))
            # Parallel entries collapse to the cheapest.
            if prior is None and (u, v) not in weights:
                weights[(u, v)] = w
            else:
                weights[(u, v)] = w if prior is None else (prior if w is None else min(prior, w))
        return GraphContext.fully_connected(n, weights)
    return GraphContext(n, tuple(edges))


def load_span_spec(path, graph: GraphContext) -> PolynomialSpan:
    """Read and validate a span file against one graph."""
    try:
        spec = load_span_file(path)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not valid JSON: {exc}") from None
    try:
        span = PolynomialSpan.from_spec(spec, graph)
    except PolyspanError as exc:
        raise InputError(f"{path}: {exc}") from None
    report = span.validate()
    if not report.ok:
        raise InputError(f"{path}: {'; '.join(report.issues)}")
    return span


def format_value(v) -> str:
    if v is None:
        return "inf"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        if v == float("inf"):
            return "inf"
        if v == float("-inf"):
            return "-inf"
        return f"{v:.9g}"
    return str(v)


def _weight_value(s: Semiring, w):
    if s.value_kind == "tropical-nat":
        return w
    if s.value_kind == "boolean":
        return w is not None
    return float("inf") if w is None else float(w)


def _default_inputs(span: PolynomialSpan, graph: GraphContext, s: Semiring,
                    source: int | None) -> DataMap:
    """Deterministic input table for run-span: edge terms take the
    weights, node terms take one (except that with --source the first
    node term is one at the source and zero elsewhere), everything else
    takes one."""
    from .carrier import carrier_index

    idx = carrier_index(span.inputs, graph)
    rows = []
    seeded = False
    for t, term in enumerate(span.inputs.terms):
        if term == ("E",):
            rows.extend((_weight_value(s, w),) for (_, _, w) in graph.edges)
        elif term == ("V",) and source is not None and not seeded:
            if not (0 <= source < graph.n):
                raise InputError(f"source {source} out of range for a graph with {graph.n} node(s)")
            rows.extend((s.one if u == source else s.zero,) for u in range(graph.n))
            seeded = True
        else:
            rows.extend([(s.one,)] * idx.term_sizes[t])
    return DataMap(span.inputs, 1, rows)


def _cmd_bellman_ford(ns) -> tuple[str, int]:
    if ns.semiring != "min-plus":
        raise UsageError("bellman-ford runs over min-plus only")
    g = load_graph(ns.graph)
    dist = algorithms.bellman_ford(g, ns.source)
    return "".join(f"{u} {format_value(d)}\n" for u, d in enumerate(dist)), 0


def _matrix_from_graph(g: GraphContext):
    d = [[0 if i == j else None for j in range(g.n)] for i in range(g.n)]
    for (u, v, w) in g.edges:
        if u != v:
            d[u][v] = algorithms.tropical_min(d[u][v], w)
    return tuple(tuple(row) for row in d)


def _cmd_floyd_warshall(ns) -> tuple[str, int]:
    if ns.semiring != "min-plus":
        raise UsageError("floyd-warshall runs over min-plus only")
    g = load_graph(ns.graph)
    out = algorithms.floyd_warshall(_matrix_from_graph(g))
    return "".join(" ".join(format_value(v) for v in row) + "\n" for row in out), 0


def _cmd_run_span(ns) -> tuple[str, int]:
    g = load_graph(ns.graph)
    span = load_span_spec(ns.span, g)
    s = SEMIRINGS[ns.semiring]
    table = _default_inputs(span, g, s, ns.source)
    out = integral_transform(span, s, FoldStrategy.semiring(), table)
    return "".join(" ".join(format_value(v) for v in row) + "\n" for row in out.rows), 0


def _cmd_check_laws(ns) -> tuple[str, int]:
    s = SEMIRINGS[ns.semiring]
    report = check_laws(s, law_samples(random.Random(ns.seed), s.value_kind, 1000))
    return "".join(line + "\n" for line in report.lines()), 0


def _cmd_gnn_demo(ns) -> tuple[str, int]:
    g = load_graph(ns.graph)
    cfg = gnn.LayerConfig(seed=ns.seed)
    rng = np.random.default_rng(ns.seed)
    node = [tuple(float(v) for v in rng.uniform(-1.0, 1.0, cfg.node_width)) for _ in range(g.n)]
    edge = [tuple(float(v) for v in rng.uniform(-1.0, 1.0, cfg.edge_width)) for _ in range(g.m)]
    graph_feat = tuple(float(v) for v in rng.uniform(-1.0, 1.0, cfg.graph_width))
    out = gnn.mpnn_forward(g, node, edge, graph_feat, cfg)
    return "".join(" ".join(format_value(v) for v in row) + "\n" for row in out.rows), 0


def _cmd_verify(ns) -> tuple[str, int]:
    from .verify import run_all

    results = run_all(ns.seed)
    lines = []
    for res in results:
        tag = "PASS" if res.passed else "FAIL"
        lines.append(f"[{tag}] {res.name}: {res.detail}\n")
    bad = sum(1 for res in results if not res.passed)
    lines.append("all checks passed\n" if bad == 0 else f"{bad} check(s) failed\n")
    return "".join(lines), 0 if bad == 0 else 3


_HANDLERS = {
    "bellman-ford": _cmd_bellman_ford,
    "floyd-warshall": _cmd_floyd_warshall,
    "run-span": _cmd_run_span,
    "check-laws": _cmd_check_laws,
    "gnn-demo": _cmd_gnn_demo,
    "verify": _cmd_verify,
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="polyspan", description="semiring transforms over polynomial spans")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(verb, *, graph=False, span=False, semiring=False, source=False, seed=False):
        p = sub.add_parser(verb, prog=f"polyspan {verb}")
        if graph:
            p.add_argument("--graph", required=True, help="graph file")
        if span:
            p.add_argument("--span", required=True, help="span spec file (JSON)")
        if semiring:
            p.add_argument("--semiring", default="min-plus", choices=sorted(SEMIRINGS),
                           help="value domain (default min-plus)")
        if source:
            p.add_argument("--source", type=int, required=(verb == "bellman-ford"),
                           default=None, help="source node")
        if seed:
            p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
        p.add_argument("--out", default=None, help="write output to this file instead of stdout")
        return p

    add("bellman-ford", graph=True, semiring=True, source=True)
    add("floyd-warshall", graph=True, semiring=True)
    add("run-span", graph=True, span=True, semiring=True, source=True)
    add("check-laws", semiring=True, seed=True)
    add("gnn-demo", graph=True, seed=True)
    add("verify", seed=True)
    return parser


def run(argv=None, stdout=None, stderr=None) -> int:
    """Parse and execute; returns the exit code instead of exiting."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=err)
        return 1
    try:
        text, code = _HANDLERS[ns.verb](ns)
    except UsageError as exc:
        print(f"usage error: {exc}", file=err)
        return 1
    except PolyspanError as exc:
        print(f"error: {exc}", file=err)
        return 2
    if ns.out:
        try:
            with open(ns.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {ns.out}: {exc}", file=err)
            return 2
    else:
        out.write(text)
    return code


def main():
    sys.exit(run())


# Fixture content for the self-contained determinism check.
_G1 = "3 3 directed\n0 1 2\n0 2 7\n1 2 3\n"
_BF_SPAN = json.dumps(algorithms.BELLMAN_FORD_SPEC, indent=2) + "\n"


def deterministic_outputs(seed: int = 0) -> list[tuple[str, int, str]]:
    """Run every non-verify verb once on embedded fixtures; returns
    (name, exit code, stdout) per verb for byte comparison."""
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        graph_path = os.path.join(tmp, "g1.graph")
        span_path = os.path.join(tmp, "bellman_ford.span")
        with open(graph_path, "w", encoding="utf-8") as fh:
            fh.write(_G1)
        with open(span_path, "w", encoding="utf-8") as fh:
            fh.write(_BF_SPAN)
        commands = [
            ("bellman-ford", ["bellman-ford", "--graph", graph_path, "--source", "0"]),
            ("floyd-warshall", ["floyd-warshall", "--graph", graph_path]),
            ("run-span", ["run-span", "--graph", graph_path, "--span", span_path,
                          "--semiring", "min-plus", "--source", "0"]),
            ("check-laws", ["check-laws", "--semiring", "real", "--seed", str(seed)]),
            ("gnn-demo", ["gnn-demo", "--graph", graph_path, "--seed", str(seed)]),
        ]
        for name, argv in commands:
            buf, errbuf = io.StringIO(), io.StringIO()
            code = run(argv, stdout=buf, stderr=errbuf)
            results.append((name, code, buf.getvalue()))
    return results
