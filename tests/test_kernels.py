"""The array kernels of the semiring stages against a plain per-group
left fold kept here, in value and in Python type."""

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


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_stages_equal_a_per_group_left_fold(case, data):
    s, values = CASES[case]
    span = data.draw(spans())
    g = span.graph
    width = data.draw(st.integers(1, 2))
    count = carrier_index(span.inputs, g).size
    rows = data.draw(st.lists(st.tuples(*[values] * width), min_size=count, max_size=count))
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


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
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


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
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
