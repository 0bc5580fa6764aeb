"""Span construction, validation, and the staged transform pipeline.

The single-source relaxation span on the 3-node fixture graph is used
as the worked example; every intermediate table below was computed by
hand from the wiring.
"""

import numpy as np
import pytest

from polyspan import (
    BELLMAN_FORD_SPEC,
    CarrierMismatchError,
    DataMap,
    FoldStrategy,
    GraphContext,
    MIN_PLUS,
    PolynomialSpan,
    PolyspanError,
    REAL,
    SpanValidationError,
    StrategyError,
    argument_fiber_rows,
    argument_pushforward,
    build_arrow,
    floyd_warshall_span,
    integral_transform,
    load_span_file,
    message_preimage_bags,
    message_pushforward,
    parse_carrier,
    pullback,
    v3_span,
)
from polyspan.algebra import Bag
from polyspan.algorithms import FLOYD_WARSHALL_SPEC
from polyspan.gnn import V3_SPEC

IDENTITY_SPEC = {"W": "V", "X": "V", "Y": "V", "Z": "V", "i": "id", "p": "id", "o": "id"}


def bf_span(g1):
    return PolynomialSpan.from_spec(BELLMAN_FORD_SPEC, g1)


def bf_inputs(g1):
    # distances [0, inf, inf], bias all 0, weights per edge
    return DataMap.from_term_blocks(
        parse_carrier(BELLMAN_FORD_SPEC["W"]), g1,
        [
            [(0,), (None,), (None,)],
            [(0,), (0,), (0,)],
            [(2,), (7,), (3,)],
        ],
    )


class TestDataMap:
    def test_width_enforced(self):
        with pytest.raises(CarrierMismatchError):
            DataMap(parse_carrier("V"), 2, ((1.0,),))

    def test_from_term_blocks_counts(self, g1):
        with pytest.raises(CarrierMismatchError):
            DataMap.from_term_blocks(parse_carrier("V + E"), g1, [[(1,)] * 3])
        with pytest.raises(CarrierMismatchError):
            DataMap.from_term_blocks(parse_carrier("V + E"), g1, [[(1,)] * 2, [(1,)] * 3])


class TestConstruction:
    def test_identity_span_roundtrip(self, g1):
        span = PolynomialSpan.from_spec(IDENTITY_SPEC, g1)
        table = DataMap(parse_carrier("V"), 1, ((1,), (2,), (3,)))
        out = integral_transform(span, MIN_PLUS, FoldStrategy.semiring(), table)
        assert out.rows == ((1,), (2,), (3,))

    def test_missing_key(self, g1):
        spec = dict(IDENTITY_SPEC)
        del spec["p"]
        with pytest.raises(PolyspanError) as info:
            PolynomialSpan.from_spec(spec, g1)
        assert "p" in str(info.value)

    def test_bad_carrier_names_key(self, g1):
        spec = dict(IDENTITY_SPEC, X="V +")
        with pytest.raises(PolyspanError) as info:
            PolynomialSpan.from_spec(spec, g1)
        assert "X" in str(info.value)

    def test_bad_arrow_names_key(self, g1):
        spec = dict(IDENTITY_SPEC, o="src")
        with pytest.raises(PolyspanError) as info:
            PolynomialSpan.from_spec(spec, g1)
        assert "o" in str(info.value)

    def test_structural_equality_file_vs_code(self, g1, fixtures_dir):
        from_file = PolynomialSpan.from_spec(load_span_file(fixtures_dir / "bellman_ford.span"), g1)
        assert from_file == bf_span(g1)

    @pytest.mark.parametrize("name", ["i", "p", "o"])
    @pytest.mark.parametrize("side", ["domain", "codomain"])
    def test_mis_wired_span_cannot_be_constructed(self, g1, name, side):
        base = PolynomialSpan.from_spec(IDENTITY_SPEC, g1)
        v, e, one = parse_carrier("V"), parse_carrier("E"), parse_carrier("1")
        arrows = {"i": base.input_map, "p": base.process_map, "o": base.output_map}
        # Each arrow of the identity span runs V -> V; swap one for an
        # arrow that differs from it on exactly one side.
        arrows[name] = (build_arrow("src", e, v, g1) if side == "domain"
                        else build_arrow("bang", v, one, g1))
        wrong = "E" if side == "domain" else "1"
        with pytest.raises(SpanValidationError) as info:
            PolynomialSpan(g1, v, v, v, v, arrows["i"], arrows["p"], arrows["o"])
        assert str(info.value) == f"{name}: {side} {wrong} does not match V"


class TestStages:
    def test_pullback_rows(self, g1):
        pulled = pullback(bf_span(g1), bf_inputs(g1))
        assert pulled.rows == (
            (0,), (None,), (None,),      # first V copy: distances
            (0,), (0,), (None,),         # first E copy: distance at each source
            (0,), (0,), (0,),            # second V copy: bias
            (2,), (7,), (3,),            # second E copy: weights
        )

    def test_fibers_are_all_pairs(self, g1):
        span = bf_span(g1)
        fibers = argument_fiber_rows(span, pullback(span, bf_inputs(g1)))
        assert len(fibers) == 6
        assert all(len(f) == 2 for f in fibers)
        # Node fibers pair distance with bias; edge fibers pair source
        # distance with weight, in domain order.
        assert fibers[0] == ((0,), (0,))
        assert fibers[3] == ((0,), (2,))

    def test_message_rows(self, g1):
        span = bf_span(g1)
        msgs = argument_pushforward(span, MIN_PLUS, FoldStrategy.semiring(),
                                    pullback(span, bf_inputs(g1)))
        assert msgs.rows == ((0,), (None,), (None,), (2,), (7,), (None,))

    def test_preimage_bags(self, g1):
        span = bf_span(g1)
        msgs = argument_pushforward(span, MIN_PLUS, FoldStrategy.semiring(),
                                    pullback(span, bf_inputs(g1)))
        bags = message_preimage_bags(span, msgs)
        assert bags[0] == Bag([(0,)])                    # self-message only
        assert bags[1] == Bag([(None,), (2,)])           # self + edge 0->1
        assert bags[2] == Bag([(None,), (7,), (None,)])  # self + edges into 2

    def test_output_rows(self, g1):
        span = bf_span(g1)
        msgs = argument_pushforward(span, MIN_PLUS, FoldStrategy.semiring(),
                                    pullback(span, bf_inputs(g1)))
        out = message_pushforward(span, MIN_PLUS, msgs)
        assert out.rows == ((0,), (2,), (7,))

    def test_staged_equals_composite(self, g1):
        span = bf_span(g1)
        table = bf_inputs(g1)
        staged = message_pushforward(
            span, MIN_PLUS,
            argument_pushforward(span, MIN_PLUS, FoldStrategy.semiring(),
                                 pullback(span, table)))
        composite = integral_transform(span, MIN_PLUS, FoldStrategy.semiring(), table)
        assert staged == composite

    def test_hook_is_applied_before_reduction(self, g1):
        span = bf_span(g1)
        msgs = argument_pushforward(span, MIN_PLUS, FoldStrategy.semiring(),
                                    pullback(span, bf_inputs(g1)))
        bumped = message_pushforward(span, MIN_PLUS, msgs,
                                     hook=lambda row: (None if row[0] is None else row[0] + 10,))
        plain = message_pushforward(span, MIN_PLUS, msgs)
        assert bumped.rows == tuple(
            (None if r[0] is None else r[0] + 10,) for r in plain.rows
        )

    def test_identity_hook_changes_nothing(self, g1):
        span = bf_span(g1)
        msgs = argument_pushforward(span, MIN_PLUS, FoldStrategy.semiring(),
                                    pullback(span, bf_inputs(g1)))
        assert message_pushforward(span, MIN_PLUS, msgs, hook=lambda r: r) == \
            message_pushforward(span, MIN_PLUS, msgs)


class TestCompiledTables:
    def test_floyd_warshall_tables_match_closed_forms(self):
        # Argument r of either V^3 copy is the triple (i, k, j) with
        # r = i*9 + k*3 + j; the first copy reads d[i][k], the second
        # d[k][j], both fold into message r, and message r lands on (i, j).
        t = floyd_warshall_span(3).compiled()
        n3 = 27
        assert tuple(t.input_image.tolist()) == (
            tuple((r // 9) * 3 + (r // 3) % 3 for r in range(n3))
            + tuple(r % 9 for r in range(n3))
        )
        assert t.fibers == tuple((r, n3 + r) for r in range(n3))
        assert t.buckets == tuple(
            tuple(i * 9 + k * 3 + j for k in range(3)) for i in range(3) for j in range(3)
        )

    @pytest.mark.parametrize("n", range(6))
    @pytest.mark.parametrize("builder, spec", [
        (floyd_warshall_span, FLOYD_WARSHALL_SPEC),
        (v3_span, V3_SPEC),
    ], ids=["floyd-warshall", "v3"])
    def test_all_pairs_spans_on_n_nodes_match_the_complete_graph(self, builder, spec, n):
        # Only powers of V and edge-blind arrows: the n*n edges change no table.
        t = builder(n).compiled()
        full = PolynomialSpan.from_spec(spec, GraphContext.fully_connected(n)).compiled()
        assert builder(n).graph == GraphContext(n)
        assert np.array_equal(t.input_image, full.input_image)
        for got, want in ((t.fiber_groups, full.fiber_groups), (t.bucket_groups, full.bucket_groups)):
            for name in ("order", "starts", "sizes"):
                assert np.array_equal(getattr(got, name), getattr(want, name))


class TestEdgeShapes:
    def test_empty_preimage_gives_zero_row(self):
        # No edges: every node's bucket under tgt is empty apart from
        # nothing at all in this span (o = tgt only).
        g = GraphContext(2, ())
        spec = {"W": "E", "X": "E", "Y": "E", "Z": "V", "i": "id", "p": "id", "o": "tgt"}
        span = PolynomialSpan.from_spec(spec, g)
        table = DataMap(parse_carrier("E"), 1, ())
        out = integral_transform(span, MIN_PLUS, FoldStrategy.semiring(), table)
        assert out.rows == ((None,), (None,))

    def test_empty_fiber_gives_one_row(self):
        # p: 1 -> V sends the point to node 0; node fibers under a bang
        # from the empty edge set never occur, so instead exercise the
        # unit carrier: every node's fiber over p = bang is the point,
        # and an argument carrier with no elements leaves it empty.
        g = GraphContext(1, ())
        spec = {"W": "E", "X": "E", "Y": "1", "Z": "1", "i": "id", "p": "bang", "o": "id"}
        span = PolynomialSpan.from_spec(spec, g)
        table = DataMap(parse_carrier("E"), 1, ())
        msgs = argument_pushforward(span, MIN_PLUS, FoldStrategy.semiring(),
                                    pullback(span, table))
        assert msgs.rows == ((0,),)  # empty product is one

    def test_learned_fold_missing_size(self, g1):
        span = bf_span(g1)
        strategy = FoldStrategy.learned({3: lambda rows: (0.0,)})
        with pytest.raises(StrategyError) as info:
            argument_pushforward(span, REAL, strategy, pullback(span, bf_inputs(g1)))
        assert "fiber size 2" in str(info.value)

    def test_learned_fold_width_pinned(self):
        g = GraphContext(2, ())
        spec = {"W": "E", "X": "E", "Y": "E", "Z": "V", "i": "id", "p": "id", "o": "tgt"}
        span = PolynomialSpan.from_spec(spec, g)
        table = DataMap(parse_carrier("E"), 1, ())
        strategy = FoldStrategy.learned({}, width=3)
        msgs = argument_pushforward(span, REAL, strategy, pullback(span, table))
        assert msgs.width == 3 and msgs.rows == ()

    def test_learned_fold_of_empty_rows_rejected(self, g1):
        # A fold that returns no columns would make a width-0 table.
        span = bf_span(g1)
        strategy = FoldStrategy.learned({2: lambda rows: ()})
        with pytest.raises(CarrierMismatchError):
            argument_pushforward(span, REAL, strategy, pullback(span, bf_inputs(g1)))

    def test_hook_of_empty_rows_rejected(self, g1):
        span = bf_span(g1)
        msgs = argument_pushforward(span, MIN_PLUS, FoldStrategy.semiring(),
                                    pullback(span, bf_inputs(g1)))
        with pytest.raises(CarrierMismatchError):
            message_pushforward(span, MIN_PLUS, msgs, hook=lambda row: ())

    def test_mismatched_table_rejected(self, g1):
        span = bf_span(g1)
        wrong = DataMap(parse_carrier("V"), 1, ((0,), (0,), (0,)))
        with pytest.raises(CarrierMismatchError):
            pullback(span, wrong)
        short = DataMap(span.inputs, 1, ((0,),) * 8)  # V + (V + E) has 9 elements
        with pytest.raises(CarrierMismatchError):
            pullback(span, short)

    def test_unvalidated_span_refuses_to_run(self, g1):
        spec = dict(IDENTITY_SPEC, o="tgt")  # o: V -> V cannot be tgt
        with pytest.raises(PolyspanError):
            PolynomialSpan.from_spec(spec, g1)
