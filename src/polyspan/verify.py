"""Oracle-equivalence and property suites.

Each check returns a CheckResult; run_all collects them.  The command
line's verify verb prints these and the acceptance tests assert them
one by one, so the two entry points cannot drift apart.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from . import algebra, algorithms, gnn
from .algebra import (
    BOOLEAN,
    MAX_PLUS,
    MIN_PLUS,
    REAL,
    Bag,
    broken_semiring,
    check_laws,
    distribute,
    fold_list,
    join_bag,
    join_list,
    law_samples,
    map_bag,
    map_list,
    reduce_bag,
    unit_bag,
    unit_list,
    values_close,
)
from .carrier import GraphContext
from .errors import ArrowTypeError
from .permutations import (
    max_relative_diff,
    permute_graph,
    permute_node_rows,
    permute_pair_rows,
)
from .span import (
    DataMap,
    FoldStrategy,
    argument_pushforward,
    integral_transform,
    message_pushforward,
    pullback,
    validate_span,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def random_graph(r: random.Random, max_n: int = 12, max_m: int = 40, max_w: int = 20) -> GraphContext:
    n = r.randint(1, max_n)
    m = r.randint(0, max_m)
    edges = tuple(
        (r.randrange(n), r.randrange(n), r.randint(0, max_w))
        for _ in range(m)
    )
    return GraphContext(n, edges)


def adversarial_graphs() -> list[GraphContext]:
    """Ten shapes that historically break relaxation loops: trivial,
    empty, self-loops, parallel edges, unreachable parts, cycles,
    zero weights, edges back into the source."""
    return [
        GraphContext(1, ()),
        GraphContext(5, ()),
        GraphContext(3, ((0, 0, 0), (1, 1, 5))),
        GraphContext(3, ((0, 1, 5), (0, 1, 2), (0, 1, 9))),
        GraphContext(6, ((0, 1, 3), (1, 2, 4), (3, 4, 1), (4, 5, 1))),
        GraphContext(4, tuple((u, v, 1) for u in range(4) for v in range(4) if u != v)),
        GraphContext(4, ((0, 1, 1), (1, 2, 1), (2, 3, 1))),
        GraphContext(3, ((0, 1, 2), (1, 2, 2), (2, 0, 2))),
        GraphContext(4, ((0, 1, 0), (1, 2, 0), (0, 3, 0), (3, 2, 0))),
        GraphContext(4, ((1, 0, 3), (2, 0, 4), (0, 3, 1), (3, 0, 1))),
    ]


def random_matrix(r: random.Random, max_n: int = 10, max_w: int = 20, miss: float = 0.25):
    n = r.randint(1, max_n)
    return tuple(
        tuple(
            0 if i == j else (None if r.random() < miss else r.randint(0, max_w))
            for j in range(n)
        )
        for i in range(n)
    )


def check_bellman_ford_equivalence(seed: int = 0, cases: int = 200) -> CheckResult:
    r = random.Random(seed)
    graphs = [random_graph(r) for _ in range(cases)] + adversarial_graphs()
    bad = 0
    for g in graphs:
        source = r.randrange(g.n)
        if algorithms.bellman_ford(g, source) != algorithms.oracle_bellman_ford(g, source):
            bad += 1
    return CheckResult(
        "bellman-ford-oracle", bad == 0,
        f"{cases} random + {len(adversarial_graphs())} adversarial graphs, {bad} mismatch(es)",
    )


def check_floyd_warshall_equivalence(seed: int = 0, cases: int = 200) -> CheckResult:
    r = random.Random(seed)
    bad = 0
    for _ in range(cases):
        d = random_matrix(r)
        if algorithms.floyd_warshall(d) != algorithms.oracle_floyd_warshall(d):
            bad += 1
    return CheckResult("floyd-warshall-oracle", bad == 0, f"{cases} random matrices, {bad} mismatch(es)")


def _direct_relaxation(g: GraphContext, dist):
    """min(d_u, min over incoming edges of d_src + w), written plainly."""
    out = []
    for u in range(g.n):
        best = dist[u]
        for k in range(g.m):
            if g.target(k) == u:
                best = algebra.tropical_min(
                    best, algebra.tropical_add(dist[g.source(k)], g.weight(k))
                )
        out.append(best)
    return out


def check_relaxation_formula(seed: int = 0, cases: int = 50) -> CheckResult:
    """One transform sweep with zero bias must equal the relaxation
    recurrence evaluated at every node."""
    r = random.Random(seed)
    graphs = adversarial_graphs() + [random_graph(r) for _ in range(cases)]
    bad = 0
    for g in graphs:
        dists = [algorithms.initial_distances(g, r.randrange(g.n))]
        dists.append([None if r.random() < 0.3 else r.randint(0, 30) for _ in range(g.n)])
        for dist in dists:
            out = algorithms.bellman_ford_step(g, algorithms.make_state(g, dist))
            if [row[0] for row in out.rows] != _direct_relaxation(g, dist):
                bad += 1
    return CheckResult(
        "bellman-ford-recurrence", bad == 0,
        f"{len(graphs)} graphs x 2 distance tables, {bad} mismatch(es)",
    )


def _random_bag(r: random.Random, depth: int, max_size: int = 6) -> Bag:
    if depth == 0:
        return Bag(r.randint(0, 9) for _ in range(r.randint(0, max_size)))
    return Bag(_random_bag(r, depth - 1) for _ in range(r.randint(0, max_size)))


def _monad_properties(r: random.Random, cases: int = 200) -> list[str]:
    problems = []
    for _ in range(cases):
        flat = _random_bag(r, 0)
        if join_bag(map_bag(unit_bag, flat)) != flat:
            problems.append(f"bag join after mapped unit is not identity on {flat!r}")
        if join_bag(unit_bag(flat)) != flat:
            problems.append(f"bag join after unit is not identity on {flat!r}")
        deep = _random_bag(r, 2, 3)
        if join_bag(join_bag(deep)) != join_bag(map_bag(join_bag, deep)):
            problems.append(f"bag join is not associative on {deep!r}")
        items = tuple(r.randint(0, 9) for _ in range(r.randint(0, 6)))
        if join_list(map_list(unit_list, items)) != items:
            problems.append(f"list join after mapped unit is not identity on {items!r}")
        nested = tuple(
            tuple(r.randint(0, 9) for _ in range(r.randint(0, 3)))
            for _ in range(r.randint(0, 3))
        )
        doubly = tuple((chunk,) for chunk in nested)
        if join_list(tuple(join_list(x) for x in doubly)) != join_list(map_list(join_list, doubly)):
            problems.append(f"list join is not associative on {doubly!r}")
        if problems:
            break
    return problems


def _distribute_properties(r: random.Random, cases: int = 100) -> list[str]:
    problems = []
    for _ in range(cases):
        for s, sample in ((MIN_PLUS, lambda: None if r.random() < 0.2 else r.randint(0, 20)),
                          (REAL, lambda: r.uniform(-5.0, 5.0)),
                          (BOOLEAN, lambda: r.random() < 0.5)):
            bags = [
                Bag(sample() for _ in range(r.randint(0, 3)))
                for _ in range(r.randint(0, 3))
            ]
            selections = distribute(bags)
            expanded = reduce_bag(s, map_bag(lambda sel: fold_list(s, sel), selections))
            factored = fold_list(s, [reduce_bag(s, b) for b in bags])
            if not values_close(s.value_kind, expanded, factored):
                problems.append(
                    f"{s.name}: expanding ordered selections gives {expanded!r}, "
                    f"factored form gives {factored!r}"
                )
        total = 1
        for b in bags:
            total *= len(b)
        if len(selections) != total:
            problems.append("selection count is not the product of bag sizes")
        if problems:
            break
    return problems


def check_algebra_laws(seed: int = 0, samples: int = 1000) -> CheckResult:
    r = random.Random(seed)
    problems = []
    for s in (MIN_PLUS, REAL, MAX_PLUS, BOOLEAN):
        report = check_laws(s, law_samples(r, s.value_kind, samples))
        if not report.ok:
            problems.append(f"{s.name} failed {', '.join(report.failed())}")
    broken = check_laws(broken_semiring(), law_samples(r, "real", samples))
    if "plus-associative" not in broken.failed():
        problems.append("broken instance was not caught by the associativity law")
    problems.extend(_monad_properties(r))
    problems.extend(_distribute_properties(r))
    detail = f"4 instances x 12 laws x {samples} samples; broken control caught"
    if problems:
        detail = "; ".join(problems)
    return CheckResult("algebra-laws", not problems, detail)


def _random_features(rng: np.random.Generator, count: int, width: int):
    return [tuple(float(v) for v in rng.uniform(-1.0, 1.0, width)) for _ in range(count)]


def _forward_case(rng: np.random.Generator, r: random.Random, full: bool):
    n = r.randint(2, 6)
    if full:
        g = GraphContext.fully_connected(n)
    else:
        m = r.randint(0, 10)
        g = GraphContext(n, tuple((r.randrange(n), r.randrange(n), 1) for _ in range(m)))
    cfg = gnn.LayerConfig(aggregator=r.choice(("sum", "max")), seed=r.randrange(10_000))
    node = _random_features(rng, g.n, cfg.node_width)
    edge = _random_features(rng, g.m, cfg.edge_width)
    graph_feat = _random_features(rng, 1, cfg.graph_width)[0]
    perm = list(range(n))
    r.shuffle(perm)
    return g, cfg, node, edge, graph_feat, tuple(perm)


def check_equivariance(seed: int = 0, cases: int = 50, tol: float = 1e-9) -> CheckResult:
    r = random.Random(seed)
    rng = np.random.default_rng(seed + 1)
    worst = 0.0
    for _ in range(cases):
        g, cfg, node, edge, graph_feat, perm = _forward_case(rng, r, full=False)
        out = gnn.mpnn_forward(g, node, edge, graph_feat, cfg)
        out_p = gnn.mpnn_forward(
            permute_graph(g, perm), permute_node_rows(node, perm), edge, graph_feat, cfg
        )
        worst = max(worst, max_relative_diff(permute_node_rows(out.rows, perm), out_p.rows))

        g, cfg, node, edge, graph_feat, perm = _forward_case(rng, r, full=True)
        n = g.n
        node_p = permute_node_rows(node, perm)
        edge_p = permute_pair_rows(edge, perm, n)
        n2, e2 = gnn.v2_forward(g, node, edge, graph_feat, cfg)
        n2p, e2p = gnn.v2_forward(g, node_p, edge_p, graph_feat, cfg)
        worst = max(worst, max_relative_diff(permute_node_rows(n2.rows, perm), n2p.rows))
        worst = max(worst, max_relative_diff(permute_pair_rows(e2.rows, perm, n), e2p.rows))
        n3, e3 = gnn.v3_forward(g, node, edge, graph_feat, cfg)
        n3p, e3p = gnn.v3_forward(g, node_p, edge_p, graph_feat, cfg)
        worst = max(worst, max_relative_diff(permute_node_rows(n3.rows, perm), n3p.rows))
        worst = max(worst, max_relative_diff(permute_pair_rows(e3.rows, perm, n), e3p.rows))
    return CheckResult(
        "gnn-equivariance", worst <= tol,
        f"{cases} cases x 3 layers, worst relative drift {worst:.3e}",
    )


def check_mpnn_correspondence(seed: int = 0, cases: int = 50, tol: float = 1e-9) -> CheckResult:
    r = random.Random(seed)
    rng = np.random.default_rng(seed + 2)
    worst = 0.0
    for _ in range(cases):
        g, cfg, node, edge, graph_feat, _ = _forward_case(rng, r, full=False)
        via_span = gnn.mpnn_forward(g, node, edge, graph_feat, cfg)
        direct = gnn.mpnn_reference(g, node, edge, graph_feat, cfg)
        worst = max(worst, max_relative_diff(via_span.rows, direct.rows))
    return CheckResult(
        "mpnn-direct-correspondence", worst <= tol,
        f"{cases} cases, worst relative drift {worst:.3e}",
    )


def check_v3_fw_alignment(seed: int = 0, cases: int = 50) -> CheckResult:
    r = random.Random(seed)
    bad = 0
    for _ in range(cases):
        d = random_matrix(r, max_n=8)
        if gnn.v3_fw_step(d) != algorithms.floyd_warshall_step(d):
            bad += 1
    return CheckResult(
        "v3-floyd-warshall-alignment", bad == 0,
        f"{cases} tropical matrices, {bad} mismatch(es)",
    )


def check_gradients(seed: int = 0, cases: int = 20, tol: float = 1e-4) -> CheckResult:
    rng = np.random.default_rng(seed + 3)
    worst = 0.0
    for _ in range(cases):
        depth = int(rng.integers(1, 4))
        widths = [int(rng.integers(2, 8)) for _ in range(depth + 1)]
        mlp = gnn.MLP.seeded(widths, rng)
        x = rng.uniform(-1.0, 1.0, widths[0])
        loss = gnn.SquaredLoss(rng.uniform(-1.0, 1.0, widths[-1]))
        worst = max(worst, gnn.finite_diff_check(mlp, x, loss))
    return CheckResult(
        "mlp-gradients", worst < tol,
        f"{cases} networks, worst relative error {worst:.3e}",
    )


def check_edge_output_pathology() -> CheckResult:
    problems = []
    span = gnn.naive_edge_update_span(4)
    report = validate_span(span)
    if report.ok:
        problems.append("one-span edge update validated but must not")
    elif not any("o" in issue and "codomain" in issue for issue in report.issues):
        problems.append(f"unexpected validation issues: {report.issues}")
    try:
        from .carrier import build_arrow, parse_carrier
        build_arrow("[proj[2]; id]", parse_carrier("V^2"), parse_carrier("V + V^2"),
                    GraphContext.fully_connected(3), label="o")
        problems.append("dispatch on a single-term domain typechecked but must not")
    except ArrowTypeError:
        pass
    detail = "one-span edge update rejected; duplicating dispatch rejected"
    if problems:
        detail = "; ".join(problems)
    return CheckResult("edge-output-pathology", not problems, detail)


def _bfs_reachable(g: GraphContext, source: int) -> list[bool]:
    seen = [False] * g.n
    seen[source] = True
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for k in range(g.m):
                if g.source(k) == u and not seen[g.target(k)]:
                    seen[g.target(k)] = True
                    nxt.append(g.target(k))
        frontier = nxt
    return seen


def check_span_properties(seed: int = 0) -> CheckResult:
    """Cross-cutting span facts: stagewise equals composite, relaxation
    is monotone, a zero-weight self-loop changes nothing, and the
    boolean reading computes reachability."""
    r = random.Random(seed)
    problems = []

    for _ in range(25):
        g = random_graph(r, max_n=8, max_m=16)
        source = r.randrange(g.n)
        span = algorithms.bellman_ford_span(g)
        stacked = algorithms.make_state(g, algorithms.initial_distances(g, source))
        strategy = FoldStrategy.semiring()
        staged = message_pushforward(
            span, MIN_PLUS,
            argument_pushforward(span, MIN_PLUS, strategy, pullback(span, stacked)),
        )
        composite = integral_transform(span, MIN_PLUS, strategy, stacked)
        if staged != composite:
            problems.append("staged transform differs from the composite")
            break

        dist = algorithms.initial_distances(g, source)
        for _ in range(g.n):
            out = algorithms.bellman_ford_step(g, algorithms.make_state(g, dist))
            nxt = [row[0] for row in out.rows]
            for a, b in zip(nxt, dist):
                if algebra.tropical_min(a, b) != a:
                    problems.append("relaxation increased a distance")
            dist = nxt

        looped = GraphContext(g.n, g.edges + tuple((u, u, 0) for u in range(g.n)))
        d0 = [None if r.random() < 0.3 else r.randint(0, 30) for _ in range(g.n)]
        base = algorithms.bellman_ford_step(g, algorithms.make_state(g, d0))
        with_loops = algorithms.bellman_ford_step(looped, algorithms.make_state(looped, d0))
        if base.rows != with_loops.rows:
            problems.append("zero-weight self-loops changed a relaxation sweep")

        span = algorithms.bellman_ford_span(g)
        reach = [u == source for u in range(g.n)]
        for _ in range(max(g.n - 1, 0)):
            stacked = DataMap.from_term_blocks(span.inputs, g, [
                [(x,) for x in reach],
                [(True,)] * g.n,
                [(True,)] * g.m,
            ])
            out = integral_transform(span, BOOLEAN, FoldStrategy.semiring(), stacked)
            reach = [row[0] for row in out.rows]
        if reach != _bfs_reachable(g, source):
            problems.append("boolean relaxation disagrees with breadth-first search")
        if problems:
            break

    detail = "staging, monotonicity, self-loop bias, boolean reachability on 25 graphs"
    if problems:
        detail = "; ".join(problems)
    return CheckResult("span-properties", not problems, detail)


def check_cli_determinism(seed: int = 0) -> CheckResult:
    # Imported here: cli imports this module for its verify verb.
    from . import cli

    problems = []
    runs = cli.deterministic_outputs(seed)
    again = cli.deterministic_outputs(seed)
    for (name, code, text), (_, code2, text2) in zip(runs, again):
        if code != 0:
            problems.append(f"{name} exited {code}")
        if code != code2 or text != text2:
            problems.append(f"{name} output changed between runs")
    return CheckResult(
        "cli-determinism", not problems,
        f"{len(runs)} commands byte-identical across two runs" if not problems else "; ".join(problems),
    )


def run_all(seed: int = 0) -> list[CheckResult]:
    return [
        check_bellman_ford_equivalence(seed),
        check_floyd_warshall_equivalence(seed),
        check_relaxation_formula(seed),
        check_algebra_laws(seed),
        check_span_properties(seed),
        check_equivariance(seed),
        check_mpnn_correspondence(seed),
        check_v3_fw_alignment(seed),
        check_gradients(seed),
        check_edge_output_pathology(),
        check_cli_determinism(seed),
    ]
