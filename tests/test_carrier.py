"""Carrier grammar, canonical enumeration, and arrow typechecking."""

import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polyspan import (
    ArrowTypeError,
    CarrierMismatchError,
    CarrierSyntaxError,
    Element,
    GraphContext,
    InputError,
    SizeCapError,
    build_arrow,
    element_at,
    eval_arrow,
    parse_carrier,
    preimage,
    rank,
    size,
)
from polyspan.carrier import MAX_TERMS, Carrier, carrier_index


class TestGraphContext:
    def test_sparse_basics(self, g1):
        assert g1.n == 3
        assert g1.m == 3
        assert g1.source(1) == 0 and g1.target(1) == 2 and g1.weight(1) == 7
        assert not g1.full

    @pytest.mark.parametrize("n,edges", [
        pytest.param(2, ((0, 5, 1),), id="out-of-range"),
        pytest.param(2, ((0.5, 1, 3),), id="float-source"),
        pytest.param(2, ((0, 1.0, 3),), id="float-target"),
        pytest.param(2, ((True, 1, 3),), id="bool-source"),
        pytest.param(2, (("0", 1, 3),), id="str-source"),
        pytest.param(2.0, (), id="float-n"),
        pytest.param(True, (), id="bool-n"),
        pytest.param("2", (), id="str-n"),
    ])
    def test_rejects_bad_endpoint(self, n, edges):
        with pytest.raises(InputError):
            GraphContext(n, edges)

    def test_full_mode_edges(self):
        g = GraphContext.fully_connected(2, {(0, 1): 4})
        assert g.full
        assert g.m == 4
        # Edge k connects k//n -> k%n, so the edge set is exactly V^2.
        assert [(g.source(k), g.target(k)) for k in range(4)] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert g.weight(1) == 4
        assert g.weight(0) == 0  # diagonal defaults to no-cost
        assert g.weight(2) is None

    def test_full_mode_rejects_scrambled_edges(self):
        with pytest.raises(InputError):
            GraphContext(2, ((0, 0, 0), (1, 0, None), (0, 1, None), (1, 1, 0)), full=True)

    def test_equal_graphs_share_one_cache_entry(self):
        from polyspan.algorithms import bellman_ford_span

        edges = ((0, 1, 2), (1, 2, None), (2, 0, 7))
        a, b = GraphContext(3, edges), GraphContext(3, [list(e) for e in edges])
        assert a == b and hash(a) == hash(b)
        bellman_ford_span.cache_clear()
        assert bellman_ford_span(a) is bellman_ford_span(b)
        assert bellman_ford_span.cache_info().currsize == 1


class TestParse:
    @pytest.mark.parametrize("text,terms", [
        ("V", (("V",),)),
        ("E", (("E",),)),
        ("1", ((),)),
        ("V + E", (("V",), ("E",))),
        ("V*E", (("V", "E"),)),
        ("V^3", (("V", "V", "V"),)),
        ("1 + V + V^2", ((), ("V",), ("V", "V"))),
        ("(V + E) + (V + E)", (("V",), ("E",), ("V",), ("E",))),
    ])
    def test_shapes(self, text, terms):
        assert parse_carrier(text).terms == terms

    def test_product_distributes_over_sum(self):
        # (V + E) * V flattens to V*V + E*V.
        assert parse_carrier("(V + E) * V").terms == (("V", "V"), ("E", "V"))

    def test_one_is_identity_for_product(self):
        assert parse_carrier("1 * V").terms == (("V",),)
        assert parse_carrier("V * 1 * V").terms == (("V", "V"),)

    def test_text_roundtrip(self):
        for text in ("V", "E", "1", "V + E", "V^2", "V*E", "1 + V + V^2"):
            c = parse_carrier(text)
            assert parse_carrier(c.text()) == c

    @pytest.mark.parametrize("bad", ["", "V +", "V ^", "V^0", "W", "(V", "V)", "V ** E", "+ V",
                                     "V^25", "V^99999999999999999999"])
    def test_syntax_errors(self, bad):
        with pytest.raises(CarrierSyntaxError):
            parse_carrier(bad)

    def test_exponent_at_the_bound_parses(self):
        # Exponents past 24 are syntax errors: 2^25 is over the size cap.
        assert parse_carrier("V^24").terms == (("V",) * 24,)

    def test_term_count_is_bounded(self):
        # Ten factors of (V + E) distribute to exactly MAX_TERMS terms.
        assert len(parse_carrier("*".join(["(V + E)"] * 10)).terms) == MAX_TERMS == 1024
        for bad in ("*".join(["(V + E)"] * 17),
                    "*".join(["(V + E)"] * 10) + " + V"):
            with pytest.raises(CarrierSyntaxError, match="terms"):
                parse_carrier(bad)

    def test_overlong_integer_is_syntax_error(self):
        with pytest.raises(CarrierSyntaxError):
            parse_carrier("V^" + "9" * 5000)

    def test_error_carries_position(self):
        with pytest.raises(CarrierSyntaxError) as info:
            parse_carrier("V + W")
        assert info.value.position == 4
        assert "position 4" in str(info.value)


class TestEnumeration:
    def test_frozen_square(self):
        g = GraphContext(3, ())
        c = parse_carrier("V^2")
        assert size(c, g) == 9
        assert element_at(c, g, 5) == Element(0, (1, 2))
        assert rank(c, g, Element(0, (1, 2))) == 5

    def test_frozen_sum(self, g1):
        c = parse_carrier("V + E")
        assert size(c, g1) == 6
        assert element_at(c, g1, 2) == Element(0, (2,))
        assert element_at(c, g1, 3) == Element(1, (0,))

    def test_unit_term(self, g1):
        c = parse_carrier("1 + V")
        assert size(c, g1) == 4
        assert element_at(c, g1, 0) == Element(0, ())
        assert element_at(c, g1, 1) == Element(1, (0,))

    def test_last_factor_fastest(self, g1):
        c = parse_carrier("V*E")
        assert element_at(c, g1, 0) == Element(0, (0, 0))
        assert element_at(c, g1, 1) == Element(0, (0, 1))
        assert element_at(c, g1, 3) == Element(0, (1, 0))

    @pytest.mark.parametrize("text", [
        "V", "E", "1", "V+E", "V^2", "V^3", "V*E", "1+V+V^2", "(V+E)+(V+E)", "E+(E+E)+E",
    ])
    def test_rank_roundtrip(self, text):
        r = random.Random(7)
        c = parse_carrier(text)
        for _ in range(6):
            n = r.randrange(1, 8)
            edges = tuple(
                (r.randrange(n), r.randrange(n), r.randrange(9))
                for _ in range(r.randrange(0, 10))
            )
            g = GraphContext(n, edges)
            total = size(c, g)
            assert total <= 10_000
            for i in range(total):
                assert rank(c, g, element_at(c, g, i)) == i

    def test_rank_rejects_foreign_element(self, g1):
        c = parse_carrier("V")
        with pytest.raises(CarrierMismatchError):
            rank(c, g1, Element(1, (0,)))
        with pytest.raises(CarrierMismatchError):
            rank(c, g1, Element(0, (3,)))

    def test_size_cap(self):
        g = GraphContext(500, ())
        with pytest.raises(SizeCapError):
            size(parse_carrier("V^4"), g)


V = parse_carrier("V")
E = parse_carrier("E")
VE = parse_carrier("V + E")
VV = parse_carrier("V^2")


class TestArrows:
    def test_id(self, g1):
        a = build_arrow("id", V, V, g1)
        assert eval_arrow(a, Element(0, (2,)), g1) == Element(0, (2,))

    def test_bang(self, g1):
        one = parse_carrier("1")
        a = build_arrow("bang", V, one, g1)
        assert eval_arrow(a, Element(0, (1,)), g1) == Element(0, ())

    def test_src_tgt(self, g1):
        s = build_arrow("src", E, V, g1)
        t = build_arrow("tgt", E, V, g1)
        assert eval_arrow(s, Element(0, (1,)), g1) == Element(0, (0,))
        assert eval_arrow(t, Element(0, (1,)), g1) == Element(0, (2,))

    def test_full_mode_src_tgt(self):
        g = GraphContext.fully_connected(3)
        t = build_arrow("tgt", E, V, g)
        assert eval_arrow(t, Element(0, (5,)), g) == Element(0, (2,))

    def test_proj(self, g1):
        a = build_arrow("proj[2]", VV, V, g1)
        assert eval_arrow(a, Element(0, (1, 2)), g1) == Element(0, (2,))
        vvv = parse_carrier("V^3")
        b = build_arrow("proj[1,3]", vvv, VV, g1)
        assert eval_arrow(b, Element(0, (0, 1, 2)), g1) == Element(0, (0, 2))

    def test_inj(self, g1):
        a = build_arrow("inj[2]", E, VE, g1)
        assert eval_arrow(a, Element(0, (1,)), g1) == Element(1, (1,))

    def test_copair_frozen(self, g1):
        a = build_arrow("[id; src]", VE, V, g1)
        assert eval_arrow(a, Element(0, (1,)), g1) == Element(0, (1,))
        # Edge 2 runs 1 -> 2, so the second branch lands on node 1.
        assert eval_arrow(a, Element(1, (2,)), g1) == Element(0, (1,))

    def test_composition_right_to_left(self, g1):
        a = build_arrow("inj[1].src", E, VE, g1)
        assert eval_arrow(a, Element(0, (2,)), g1) == Element(0, (1,))

    def test_preimage_frozen_and_sorted(self, g1):
        t = build_arrow("tgt", E, V, g1)
        pre = preimage(t, Element(0, (2,)), g1)
        assert pre == [Element(0, (1,)), Element(0, (2,))]
        assert preimage(t, Element(0, (0,)), g1) == []

    def test_preimage_of_copair(self, g1):
        a = build_arrow("[id; tgt]", VE, V, g1)
        pre = preimage(a, Element(0, (2,)), g1)
        assert pre == [Element(0, (2,)), Element(1, (1,)), Element(1, (2,))]

    def test_proj_swaps_factors_of_unequal_size(self):
        # n = 2, m = 3: element (v, e) of V*E has rank v*3 + e, and its
        # image (e, v) in E*V has rank e*2 + v.
        g = GraphContext(2, ((0, 1, 5), (1, 0, 6), (1, 1, 7)))
        a = build_arrow("proj[2,1]", parse_carrier("V*E"), parse_carrier("E*V"), g)
        for v in range(2):
            for e in range(3):
                assert eval_arrow(a, Element(0, (v, e)), g) == Element(0, (e, v))

    def test_preimage_past_an_empty_term(self):
        # No edges, so the E term is empty and the second V term starts
        # right after the first.
        g = GraphContext(3, ())
        a = build_arrow("[id; tgt; id]", parse_carrier("V + E + V"), V, g)
        assert preimage(a, Element(0, (1,)), g) == [Element(0, (1,)), Element(2, (1,))]
        assert preimage(build_arrow("tgt", E, V, g), Element(0, (1,)), g) == []


class TestArrowErrors:
    def test_proj_needs_product(self, g1):
        with pytest.raises(ArrowTypeError):
            build_arrow("proj[1]", VE, V, g1)

    def test_proj_index_range(self, g1):
        with pytest.raises(ArrowTypeError):
            build_arrow("proj[3]", VV, V, g1)

    def test_inj_range(self, g1):
        with pytest.raises(ArrowTypeError):
            build_arrow("inj[3]", E, VE, g1)

    def test_inj_term_mismatch(self, g1):
        with pytest.raises(ArrowTypeError):
            build_arrow("inj[1]", E, VE, g1)

    def test_copair_branch_count(self, g1):
        with pytest.raises(ArrowTypeError) as info:
            build_arrow("[id; src; tgt]", VE, V, g1)
        assert "3 branch(es)" in str(info.value)

    def test_copair_on_single_term_domain(self, g1):
        with pytest.raises(ArrowTypeError):
            build_arrow("[proj[2]; id]", VV, parse_carrier("V + V^2"), g1)

    def test_inj_must_be_outermost(self, g1):
        # src.inj[1] would need the injection's codomain mid-chain.
        with pytest.raises(ArrowTypeError):
            build_arrow("src.inj[1]", E, V, g1)

    def test_wrong_codomain_reported(self, g1):
        with pytest.raises(ArrowTypeError):
            build_arrow("src", E, E, g1)

    def test_label_in_message(self, g1):
        with pytest.raises(ArrowTypeError) as info:
            build_arrow("src", E, E, g1, label="o")
        assert "o" in str(info.value)

    def test_arrow_syntax_error(self, g1):
        with pytest.raises(CarrierSyntaxError):
            build_arrow("id.", V, V, g1)

    def test_eval_rejects_foreign_element(self, g1):
        a = build_arrow("id", V, V, g1)
        with pytest.raises(CarrierMismatchError):
            eval_arrow(a, Element(0, (9,)), g1)


# --- rank maps ----------------------------------------------------------------

# One arrow of every node kind, the dispatches of the shipped
# Bellman-Ford span, a chain through a dispatch and one through src.
ARROWS = [
    ("id", "V", "V"),
    ("bang", "V + E", "1"),
    ("src", "E", "V"),
    ("tgt", "E", "V"),
    ("proj[2,1,2]", "V*E", "E*V*E"),
    ("inj[2]", "E", "V + E"),
    ("[inj[1]; inj[1].src; inj[2]; inj[3]]", "(V + E) + (V + E)", "V + (V + E)"),
    ("[inj[1]; inj[2]; inj[1]; inj[2]]", "(V + E) + (V + E)", "V + E"),
    ("[id; tgt]", "V + E", "V"),
    ("proj[2,1].[proj[1,2]; proj[2,3]]", "V^3 + V^3", "V^2"),
    ("bang.id.src", "E", "1"),
]

GRAPHS = [
    GraphContext(0, ()),
    GraphContext(3, ()),
    GraphContext(3, ((0, 1, 2), (0, 2, 7), (1, 2, 3))),
    GraphContext(2, ((1, 1, None), (1, 0, 4), (0, 1, None), (1, 0, 4))),
]


def _nodes(node):
    yield node
    for sub in getattr(node, "branches", ()) + getattr(node, "steps", ()):
        yield from _nodes(sub)


@st.composite
def proj_arrows(draw):
    n = draw(st.integers(0, 3))
    m = draw(st.integers(0, 3)) if n else 0
    g = GraphContext(n, tuple((draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)), 1) for _ in range(m)))
    factors = draw(st.lists(st.sampled_from("VE"), min_size=1, max_size=4))
    indices = draw(st.lists(st.integers(1, len(factors)), min_size=1, max_size=4))
    dom = Carrier((tuple(factors),))
    cod = Carrier((tuple(factors[i - 1] for i in indices),))
    return build_arrow(f"proj[{','.join(map(str, indices))}]", dom, cod, g), g, indices


@settings(max_examples=200)
@given(proj_arrows())
def test_proj_ranks_are_mixed_radix_ranks(case):
    arrow, g, indices = case
    dims = carrier_index(arrow.domain, g).term_dims[0]
    want = []
    for coords in product(*map(range, dims)):
        r = 0
        for i in indices:
            r = r * dims[i - 1] + coords[i - 1]
        want.append(r)
    assert arrow.node.ranks(g).tolist() == want


@pytest.mark.parametrize("g", GRAPHS, ids=lambda g: f"n{g.n}m{g.m}")
@pytest.mark.parametrize("spec,dom,cod", ARROWS)
def test_every_node_gives_an_intp_array_over_its_domain(spec, dom, cod, g):
    arrow = build_arrow(spec, parse_carrier(dom), parse_carrier(cod), g)
    for node in _nodes(arrow.node):
        ranks = node.ranks(g)
        assert isinstance(ranks, np.ndarray) and ranks.dtype == np.intp
        assert ranks.shape == (size(node.dom, g),)
        assert ((0 <= ranks) & (ranks < size(node.cod, g))).all()


@pytest.mark.parametrize("spec,dom,cod", ARROWS)
def test_elements_have_python_int_coords(spec, dom, cod):
    g = GRAPHS[-1]
    arrow = build_arrow(spec, parse_carrier(dom), parse_carrier(cod), g)
    dom_index, cod_index = carrier_index(arrow.domain, g), carrier_index(arrow.codomain, g)
    found = [eval_arrow(arrow, dom_index.element(x), g) for x in range(dom_index.size)]
    for y in range(cod_index.size):
        found += preimage(arrow, cod_index.element(y), g)
    found += [dom_index.element(np.intp(x)) for x in range(dom_index.size)]
    assert found
    for e in found:
        assert type(e.term_index) is int and all(type(c) is int for c in e.coords)
