"""The array kernels of the semiring stages against a plain per-group
left fold kept here, in value and in Python type, and the arrays that
learned folds get against ``argument_fiber_rows``."""

from itertools import cycle, islice

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from polyspan import (
    BOOLEAN,
    MAX_PLUS,
    MIN_PLUS,
    REAL,
    DataMap,
    FoldStrategy,
    GraphContext,
    PolynomialSpan,
    argument_fiber_rows,
    argument_pushforward,
    bellman_ford,
    floyd_warshall,
    integral_transform,
    message_pushforward,
    pullback,
)
from polyspan.algebra import broken_semiring
from polyspan.algorithms import BELLMAN_FORD_SPEC, oracle_bellman_ford, oracle_floyd_warshall
from polyspan.carrier import carrier_index

SPECS = [
    # Fibers group edges by target, so their sizes vary and some are
    # empty; one bucket takes every message.
    {"W": "V", "X": "E", "Y": "V", "Z": "1", "i": "src", "p": "tgt", "o": "bang"},
    # One-row fibers; buckets group edges by target.
    {"W": "V", "X": "E", "Y": "E", "Z": "V", "i": "src", "p": "id", "o": "tgt"},
    # Fibers group edges by source; one-message buckets.
    {"W": "E", "X": "E", "Y": "V", "Z": "V", "i": "id", "p": "src", "o": "id"},
    # Two-row fibers; buckets of a node's self-message and in-edges.
    BELLMAN_FORD_SPEC,
]

# Per case: the semiring and the values its tables draw from.  Around
# 2^62 a fold of two values crosses int64; past 2^63 a value alone does.
CASES = {
    "min-plus": (MIN_PLUS, st.none() | st.integers(-100, 100)),
    "min-plus-2^62": (MIN_PLUS, st.none() | st.integers(2**62 - 64, 2**62 + 64)
                      | st.integers(0, 100)),
    "min-plus-2^63": (MIN_PLUS, st.none() | st.integers(2**63 - 64, 2**63 + 64)
                      | st.integers(-2**63 - 64, -2**63 + 64)),
    "min-plus-bools": (MIN_PLUS, st.none() | st.booleans() | st.integers(0, 5)),
    "real": (REAL, st.floats()),
    "real-ints": (REAL, st.integers(-10, 10)),
    "max-plus": (MAX_PLUS, st.floats() | st.sampled_from([0.0, -0.0])),
    "bool": (BOOLEAN, st.booleans()),
    "broken": (broken_semiring(), st.floats()),
}


def left_fold(rows, ranks, count, op, identity, width):
    """Per codomain rank, the rows sent there combined left to right."""
    groups = [[] for _ in range(count)]
    for x, y in enumerate(ranks):
        groups[y].append(rows[x])
    out = []
    for group in groups:
        acc = list(group[0]) if group else [identity] * width
        for row in group[1:]:
            acc = [op(a, b) for a, b in zip(acc, row)]
        out.append(tuple(acc))
    return tuple(out)


def exact(rows):
    # repr tells NaN, -0.0 and ints past int64 apart; type tells True from 1.
    return [[(type(v), repr(v)) for v in row] for row in rows]


@st.composite
def spans(draw):
    n = draw(st.integers(0, 5))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.none()),
                          max_size=8)) if n else []
    return PolynomialSpan.from_spec(draw(st.sampled_from(SPECS)), GraphContext(n, tuple(edges)))


def assert_stages_equal_a_per_group_left_fold(s, span, width, rows):
    g = span.graph
    table = DataMap(span.inputs, width, rows)

    pulled = [rows[w] for w in span.input_map.node.ranks(g)]
    messages = left_fold(pulled, span.process_map.node.ranks(g),
                         carrier_index(span.messages, g).size, s.times, s.one, width)
    outputs = left_fold(messages, span.output_map.node.ranks(g),
                        carrier_index(span.outputs, g).size, s.plus, s.zero, width)

    folded = argument_pushforward(span, s, FoldStrategy.semiring(), pullback(span, table))
    assert exact(folded.rows) == exact(messages)
    assert exact(message_pushforward(span, s, folded).rows) == exact(outputs)
    assert exact(integral_transform(span, s, FoldStrategy.semiring(), table).rows) == exact(outputs)


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=60)
@given(data=st.data())
def test_stages_equal_a_per_group_left_fold(case, data):
    s, values = CASES[case]
    span = data.draw(spans())
    width = data.draw(st.integers(1, 2))
    count = carrier_index(span.inputs, span.graph).size
    rows = data.draw(st.lists(st.tuples(*[values] * width), min_size=count, max_size=count))
    assert_stages_equal_a_per_group_left_fold(s, span, width, rows)


# Per case, a few of its values, cycled through the rows of fixed tables.
FIXED_VALUES = {
    "min-plus": [3, None, -7],
    "min-plus-2^62": [2**62 + 5, None, 2**62 - 3, 7],
    "min-plus-2^63": [2**63 + 1, None, -2**63 - 3],
    "min-plus-bools": [True, None, 3],
    "real": [0.5, -0.0, float("nan")],
    "real-ints": [3, -2],
    "max-plus": [-0.0, 0.0, 1.5],
    "bool": [True, False, False],
    "broken": [1.5, -2.0],
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("spec, g", [
    # Width-2 tables with empty buckets.
    (SPECS[1], GraphContext(3, ((0, 1, None), (2, 1, None)))),
    # On an edgeless graph, a zero-row argument table (X = E) whose
    # fibers are all empty, and zero-row argument and message tables.
    (SPECS[0], GraphContext(2, ())),
    (SPECS[1], GraphContext(2, ())),
])
def test_stages_equal_a_per_group_left_fold_on_fixed_tables(case, spec, g):
    span = PolynomialSpan.from_spec(spec, g)
    flat = list(islice(cycle(FIXED_VALUES[case]), carrier_index(span.inputs, g).size * 2))
    rows = [tuple(flat[k:k + 2]) for k in range(0, len(flat), 2)]
    assert_stages_equal_a_per_group_left_fold(CASES[case][0], span, 2, rows)


@pytest.mark.parametrize("s, value, loops", [
    (MIN_PLUS, 3, {"fiber_groups"}),
    (BOOLEAN, True, set()),
    (REAL, 1.0, {"fiber_groups", "bucket_groups"}),
    (MAX_PLUS, 1.0, {"fiber_groups", "bucket_groups"}),
])
def test_order_free_kernels_skip_the_positional_loop(s, value, loops, g1):
    # The positional loop reads _Groups.steps, a cached property; the one
    # reduceat of an order-free op (min, or, and) never builds it.
    span = PolynomialSpan.from_spec(BELLMAN_FORD_SPEC, g1)
    table = DataMap(span.inputs, 1, [(value,)] * carrier_index(span.inputs, g1).size)
    integral_transform(span, s, FoldStrategy.semiring(), table)
    t = span.compiled()
    assert {name for name in ("fiber_groups", "bucket_groups") if "steps" in vars(getattr(t, name))} == loops


# Per case: the values of a table whose rows learned folds read.
FOLD_VALUES = {
    "float": st.floats(),
    "int-none": st.none() | st.integers(-2**70, 2**70),
    "bool": st.booleans(),
    "mixed": st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=2),
}


@pytest.mark.parametrize("case", sorted(FOLD_VALUES))
@settings(max_examples=60)
@given(data=st.data())
def test_learned_folds_get_each_fiber_as_an_array(case, data):
    span = data.draw(spans())
    width = data.draw(st.integers(1, 2))
    count = carrier_index(span.inputs, span.graph).size
    rows = data.draw(st.lists(st.tuples(*[FOLD_VALUES[case]] * width), min_size=count, max_size=count))
    pulled = pullback(span, DataMap(span.inputs, width, rows))
    calls = []

    def fold(fiber):
        calls.append(fiber)
        return (len(fiber),)

    sizes = range(max(map(len, span.compiled().fibers), default=0) + 1)
    strategy = FoldStrategy.learned(dict.fromkeys(sizes, fold), width=1)
    out = argument_pushforward(span, REAL, strategy, pulled)
    expected = argument_fiber_rows(span, pulled)
    assert all(type(c) is np.ndarray for c in calls)
    assert [c.shape for c in calls] == [(len(e), width) for e in expected]
    assert [exact(c.tolist()) for c in calls] == [exact(e) for e in expected]
    assert out.rows == tuple((len(e),) for e in expected)


def test_learned_fold_of_numpy_floats_gives_python_floats(g1):
    # A fold that reads its float64 slice returns numpy floats; they
    # encode as float64, so the reduce runs the array kernel and the
    # tables decode to Python floats.
    span = PolynomialSpan.from_spec(
        {"W": "E", "X": "E + E", "Y": "E", "Z": "V", "i": "[id; id]", "p": "[id; id]", "o": "tgt"}, g1)
    table = DataMap(span.inputs, 1, ((2.0,), (7.0,), (3.0,)))

    def fold(rows):
        return (rows[0][0] + rows[1][0],)

    strategy = FoldStrategy.learned({2: fold})
    messages = argument_pushforward(span, REAL, strategy, pullback(span, table))
    fibers = argument_fiber_rows(span, pullback(span, table))
    assert exact(messages.rows) == exact(fold(f) for f in fibers)
    out = integral_transform(span, REAL, strategy, table)
    assert exact(out.rows) == exact(((0.0,), (4.0,), (20.0,)))


def test_min_plus_reduce_near_2_62_stays_int64(g1):
    # A minimum never leaves the range of its inputs, so the reduce of
    # values whose sum would pass int64 still runs the int64 kernel.
    span = PolynomialSpan.from_spec(
        {"W": "E", "X": "E", "Y": "E", "Z": "1", "i": "id", "p": "id", "o": "bang"}, g1)
    rows = ((2**62 + 5,), (None,), (2**62 + 1,))
    out = message_pushforward(span, MIN_PLUS, DataMap(span.messages, 1, rows))
    assert out._values.dtype == np.int64
    assert exact(out.rows) == exact(((2**62 + 1,),))


@settings(max_examples=60)
@given(n=st.integers(1, 6), data=st.data())
@example(n=5, data=None)  # a path whose last distance, 2^63, is past int64
def test_bellman_ford_near_2_61_equals_the_oracle(n, data):
    if data is None:
        edges = tuple((u, u + 1, 2**61) for u in range(n - 1))
        source = 0
    else:
        edges = tuple(data.draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                      st.integers(2**61 - 8, 2**61 + 8) | st.integers(0, 8)),
            max_size=12)))
        source = data.draw(st.integers(0, n - 1))
    g = GraphContext(n, edges)
    dist = bellman_ford(g, source)
    assert exact([dist]) == exact([oracle_bellman_ford(g, source)])


def _chain_matrix(n, w):
    return tuple(tuple(0 if i == j else (w if j == i + 1 else None) for j in range(n)) for i in range(n))


@settings(max_examples=60)
@given(n=st.integers(1, 6), data=st.data())
# A 2^59 chain: the first sweep fits int64, the second misses the guard.
@example(n=5, data=_chain_matrix(5, 2**59))
# A 2^61 chain: object from the first sweep, and the last entry is 2^63.
@example(n=5, data=_chain_matrix(5, 2**61))
def test_floyd_warshall_near_2_62_equals_the_oracle(n, data):
    if isinstance(data, tuple):
        d = data
    else:
        entry = (st.none() | st.integers(2**59 - 8, 2**59 + 8) | st.integers(2**61 - 8, 2**61 + 8)
                 | st.integers(0, 8))
        d = tuple(tuple(0 if i == j else data.draw(entry) for j in range(n)) for i in range(n))
    assert exact(floyd_warshall(d)) == exact(oracle_floyd_warshall(d))
