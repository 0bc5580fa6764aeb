"""Relaxation drivers against hand-worked values and plain oracles."""

import gc
import random
import weakref

import numpy as np
import pytest

from polyspan import (
    BOOLEAN,
    CarrierMismatchError,
    FoldStrategy,
    GraphContext,
    InputError,
    SizeCapError,
    bellman_ford,
    bellman_ford_step,
    floyd_warshall,
    floyd_warshall_step,
    integral_transform,
)
from polyspan import algorithms
from polyspan.algorithms import (
    initial_distances,
    make_state,
    oracle_bellman_ford,
    oracle_floyd_warshall,
)
from polyspan.span import DataMap
from polyspan.algorithms import bellman_ford_span


class TestBellmanFord:
    def test_two_sweeps_on_fixture(self, g1):
        d0 = initial_distances(g1, 0)
        assert d0 == [0, None, None]
        one = bellman_ford_step(g1, make_state(g1, d0))
        assert [r[0] for r in one.rows] == [0, 2, 7]
        two = bellman_ford_step(g1, make_state(g1, [0, 2, 7]))
        assert [r[0] for r in two.rows] == [0, 2, 5]

    def test_full_run(self, g1):
        assert bellman_ford(g1, 0) == [0, 2, 5]
        assert bellman_ford(g1, 1) == [None, 0, 3]
        assert bellman_ford(g1, 2) == [None, None, 0]

    def test_single_node(self):
        assert bellman_ford(GraphContext(1, ()), 0) == [0]

    def test_disconnected(self):
        g = GraphContext(4, ((0, 1, 5),))
        assert bellman_ford(g, 0) == [0, 5, None, None]

    def test_relaxation_is_monotone(self, g1):
        prev = initial_distances(g1, 0)
        for _ in range(g1.n):
            out = [r[0] for r in bellman_ford_step(g1, make_state(g1, prev)).rows]
            for a, b in zip(prev, out):
                # None is the top element; updates only move down.
                assert a is None or (b is not None and b <= a)
            prev = out

    def test_driver_stacks_the_fixed_blocks_once(self, g1, monkeypatch):
        # Every sweep reads make_state of the current distances, while
        # make_state itself runs once per query.
        step, make = algorithms.bellman_ford_step, algorithms.make_state
        states, built = [], []

        def recording_step(graph, state):
            states.append(state)
            return step(graph, state)

        def recording_make(graph, distances):
            built.append(list(distances))
            return make(graph, distances)

        monkeypatch.setattr(algorithms, "bellman_ford_step", recording_step)
        monkeypatch.setattr(algorithms, "make_state", recording_make)
        assert bellman_ford(g1, 1) == [None, 0, 3]  # fixpoint after the second sweep
        assert built == [[None, 0, None]]
        assert [s.rows for s in states] == [make(g1, d).rows for d in ([None, 0, None], [None, 0, 3])]
        assert all(s.carrier == bellman_ford_span(g1).inputs for s in states)

    def test_state_is_built_without_the_per_row_check(self, g1, monkeypatch):
        checks = []
        post_init = DataMap.__post_init__

        def counting(self):
            checks.append(self.width)
            post_init(self)

        monkeypatch.setattr(DataMap, "__post_init__", counting)
        assert bellman_ford(g1, 0) == [0, 2, 5]
        assert checks == []
        assert make_state(g1, [0, 2, 7]).rows == ((0,), (2,), (7,), (0,), (0,), (0,), (2,), (7,), (3,))
        for distances in ([0, 2], [0, 2, 7, 9]):
            with pytest.raises(CarrierMismatchError, match="expected 3 distance"):
                make_state(g1, distances)

    def test_make_state_checks_the_cap_before_building_its_column(self, monkeypatch):
        class Unread:
            # The right length, but reading it fails the test.
            def __len__(self):
                return 1234

            def __iter__(self):
                raise AssertionError("the column was built before the size cap")

        monkeypatch.setattr("polyspan.carrier.SIZE_CAP", 1000)
        with pytest.raises(SizeCapError, match="more than 1000 elements"):
            make_state(GraphContext(1234, ()), Unread())

    def test_weights_are_checked_once_per_graph(self, monkeypatch):
        check, calls = algorithms.check_tropical_weights, []

        def counting_check(graph):
            calls.append(graph)
            check(graph)

        monkeypatch.setattr(algorithms, "check_tropical_weights", counting_check)
        algorithms._fixed_block.cache_clear()
        g = GraphContext(3, ((0, 1, 2), (0, 2, 7), (1, 2, 3), (2, 0, 4)))
        assert bellman_ford(g, 0) == [0, 2, 5]
        assert bellman_ford(g, 1) == [7, 0, 3]
        assert make_state(g, [0, 2, 5]).rows == ((0,), (2,), (5,), (0,), (0,), (0,), (2,), (7,), (3,), (4,))
        assert calls == [g]

    @pytest.mark.parametrize("weight, message", [
        (-1, "edge 1: negative weight -1"),
        (True, "edge 1: weight True is not a tropical natural"),
    ])
    def test_make_state_checks_the_weights(self, weight, message):
        g = GraphContext(2, ((0, 1, 3), (1, 0, weight)))
        with pytest.raises(InputError, match=message):
            make_state(g, [0, None])

    @pytest.mark.parametrize("weight", [True, 1.0, np.int64(1)])
    def test_an_equal_graph_is_checked_itself(self, weight):
        # A weight of 1 equals True, 1.0 and np.int64(1), so these graphs
        # equal the checked one and share its cache entry.
        algorithms._fixed_block.cache_clear()
        assert bellman_ford(GraphContext(2, ((0, 1, 1),)), 0) == [0, 1]
        g = GraphContext(2, ((0, 1, weight),))
        with pytest.raises(InputError, match="edge 0: weight .* is not a tropical natural"):
            bellman_ford(g, 0)
        with pytest.raises(InputError, match="edge 0: weight .* is not a tropical natural"):
            make_state(g, [0, None])

    def test_bellman_ford_checks_the_cap_before_building_its_distances(self, monkeypatch):
        def unbuilt(graph, source):
            raise AssertionError("the distances were built before the size cap")

        monkeypatch.setattr("polyspan.carrier.SIZE_CAP", 1000)
        monkeypatch.setattr(algorithms, "initial_distances", unbuilt)
        with pytest.raises(SizeCapError, match="more than 1000 elements"):
            bellman_ford(GraphContext(1236, ()), 0)

    def test_zero_weight_self_loop_is_inert(self, g1):
        looped = GraphContext(3, g1.edges + ((1, 1, 0),))
        assert bellman_ford(looped, 0) == bellman_ford(g1, 0)

    def test_matches_oracle_on_random_graphs(self):
        r = random.Random(30)
        for _ in range(40):
            n = r.randrange(1, 9)
            edges = tuple(
                (r.randrange(n), r.randrange(n), r.randrange(0, 12))
                for _ in range(r.randrange(0, 16))
            )
            g = GraphContext(n, edges)
            src = r.randrange(n)
            assert bellman_ford(g, src) == oracle_bellman_ford(g, src)

    def test_boolean_semiring_gives_reachability(self, g1):
        # Same wiring, different value domain: or/and computes the
        # reachable set instead of distances.
        span = bellman_ford_span(g1)
        reach = [True, False, False]
        for _ in range(g1.n):
            table = DataMap.from_term_blocks(span.inputs, g1, [
                [(v,) for v in reach],
                [(True,)] * g1.n,
                [(True,)] * g1.m,
            ])
            out = integral_transform(span, BOOLEAN, FoldStrategy.semiring(), table)
            reach = [r[0] for r in out.rows]
        assert reach == [True, True, True]

    def test_rejects_bad_source(self, g1):
        with pytest.raises(InputError):
            bellman_ford(g1, 3)
        with pytest.raises(InputError):
            bellman_ford(g1, -1)

    def test_rejects_negative_weight(self):
        g = GraphContext(2, ((0, 1, -1),))
        with pytest.raises(InputError):
            bellman_ford(g, 0)

    def test_rejects_float_weight(self):
        g = GraphContext(2, ((0, 1, 1.5),))
        with pytest.raises(InputError):
            bellman_ford(g, 0)


G1_MATRIX = (
    (0, 2, 7),
    (None, 0, 3),
    (None, None, 0),
)


class TestFloydWarshall:
    def test_fixture_matrix(self):
        assert floyd_warshall(G1_MATRIX) == (
            (0, 2, 5),
            (None, 0, 3),
            (None, None, 0),
        )

    def test_step_is_min_plus_square(self):
        d = G1_MATRIX
        step = floyd_warshall_step(d)
        n = 3
        for i in range(n):
            for j in range(n):
                best = None
                for k in range(n):
                    if d[i][k] is None or d[k][j] is None:
                        continue
                    cand = d[i][k] + d[k][j]
                    best = cand if best is None else min(best, cand)
                assert step[i][j] == best

    def test_single_node(self):
        assert floyd_warshall(((0,),)) == ((0,),)

    def test_matches_oracle_on_random_matrices(self):
        r = random.Random(31)
        for _ in range(40):
            n = r.randrange(1, 8)
            d = tuple(
                tuple(
                    0 if i == j else (None if r.random() < 0.3 else r.randrange(0, 15))
                    for j in range(n)
                )
                for i in range(n)
            )
            assert floyd_warshall(d) == oracle_floyd_warshall(d)

    def test_step_never_raises_an_entry(self):
        # floyd_warshall uses each sweep as the next matrix without a
        # min against the previous one; the zero diagonal makes that exact.
        r = random.Random(32)
        for _ in range(40):
            n = r.randrange(1, 8)
            d = tuple(
                tuple(
                    0 if i == j else (None if r.random() < 0.4 else r.randrange(0, 15))
                    for j in range(n)
                )
                for i in range(n)
            )
            step = floyd_warshall_step(d)
            for i in range(n):
                assert step[i][i] == 0
                for j in range(n):
                    assert d[i][j] is None or (step[i][j] is not None and step[i][j] <= d[i][j])

    def test_matrix_is_checked_once(self, monkeypatch):
        # The sweeps run on the engine's own arrays; only the caller's
        # matrix is checked.
        check, calls = algorithms._check_matrix, []

        def counting_check(d):
            calls.append(d)
            return check(d)

        monkeypatch.setattr(algorithms, "_check_matrix", counting_check)
        assert floyd_warshall(G1_MATRIX) == ((0, 2, 5), (None, 0, 3), (None, None, 0))
        assert calls == [G1_MATRIX]

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(InputError):
            floyd_warshall(((0, 1), (1, 1)))

    def test_rejects_ragged_matrix(self):
        with pytest.raises(InputError):
            floyd_warshall(((0, 1), (None,)))

    def test_rejects_negative_entry(self):
        with pytest.raises(InputError):
            floyd_warshall(((0, -2), (None, 0)))


def test_span_and_index_caches_are_bounded():
    from polyspan import gnn
    from polyspan.span import SPAN_CACHE_SIZE

    fixed_block = algorithms._fixed_block
    for builder in (bellman_ford_span, fixed_block, algorithms.floyd_warshall_span,
                    gnn.mpnn_span, gnn.v3_span):
        assert builder.cache_info().maxsize == SPAN_CACHE_SIZE
    bellman_ford_span.cache_clear()
    fixed_block.cache_clear()
    graphs = []
    for n in range(1, SPAN_CACHE_SIZE + 6):
        graph = GraphContext(n, ())
        graphs.append(weakref.ref(graph))
        assert bellman_ford(graph, 0) == [0] + [None] * (n - 1)
    del graph
    assert bellman_ford_span.cache_info().currsize == SPAN_CACHE_SIZE
    assert fixed_block.cache_info().currsize == SPAN_CACHE_SIZE
    # Nothing but the span and fixed-block caches may keep a graph alive.
    gc.collect()
    assert sum(ref() is not None for ref in graphs) <= SPAN_CACHE_SIZE
