"""Finite carriers over a graph, and the arrows between them.

A carrier is a formal sum of products of the base sets V (nodes),
E (edges) and 1 (the singleton), written in a small expression language:

    carrier := term {"+" term}
    term    := factor {"*" factor}
    factor  := "V" | "E" | "1" | "V^" INT | "(" carrier ")"

Parsing normalises to a flat sum of products: nested sums are flattened,
products distribute over sums, and singleton factors vanish (they carry
no coordinate).  Elements are enumerated term-major, then row-major
within a term with the last factor varying fastest, which fixes the
rank/unrank bijection every data table in this package relies on.

Arrows form a closed catalog:

    arrow := atom {"." atom}
    atom  := "id" | "bang" | "src" | "tgt"
           | "proj[" INT {"," INT} "]" | "inj[" INT "]"
           | "[" arrow {";" arrow} "]" | "(" arrow ")"

"." composes right-to-left (the rightmost atom applies first), "bang"
is the unique map to 1, "src"/"tgt" read off edge endpoints, "proj"
selects product factors (1-based), "inj" picks a summand of the
codomain (1-based), and "[f1; ...; fk]" dispatches on the k summands of
the domain.  Every atom except "inj" determines its codomain from its
domain; "inj" must sit where the expected codomain is known (leftmost
in a chain, or directly under a dispatch branch).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Mapping

import numpy as np

from .errors import (
    ArrowTypeError,
    CarrierMismatchError,
    CarrierSyntaxError,
    InputError,
    SizeCapError,
)
from .algebra import Value

SIZE_CAP = 10_000_000

# Deepest bracket nesting a carrier or arrow expression may use; the
# parsers and the typechecker recurse once per level.
MAX_NESTING = 100

# Largest exponent of V^k.  Above it 2^k passes SIZE_CAP, so V^k is over
# the cap on any graph with n >= 2, and no k-tuple need be built to say so.
MAX_EXPONENT = SIZE_CAP.bit_length()

# Most terms a carrier may have once products distribute over sums;
# checked before a sum or product is built, since each factor of a
# product of sums can double the count.
MAX_TERMS = 1024


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


@dataclass(frozen=True)
class GraphContext:
    """A finite directed graph binding V and E to concrete sizes.

    ``edges`` holds (source, target, weight) triples; edge identity is
    the position in this tuple and the order is canonical.  In
    fully-connected mode E is all of V x V in row-major order, so edge
    k runs from k // n to k % n.
    """

    n: int
    edges: tuple = ()
    full: bool = False
    _hash: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self):
        if not (_is_int(self.n) and self.n >= 0):
            raise InputError(f"node count must be an integer >= 0, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "edges", tuple(tuple(e) for e in self.edges))
        for k, e in enumerate(self.edges):
            if len(e) != 3:
                raise InputError(f"edge {k} must be (source, target, weight), got {e!r}")
            u, v, _ = e
            if not ((type(u) is type(v) is int or _is_int(u) and _is_int(v))  # plain ints skip the calls
                    and 0 <= u < self.n and 0 <= v < self.n):
                raise InputError(f"edge {k} endpoints ({u!r}, {v!r}) are not integers in range for n={self.n}")
        if self.full:
            n = self.n
            if len(self.edges) != n * n:
                raise InputError("fully-connected graph must list all n*n edges in canonical order")
            for k, (u, v, _) in enumerate(self.edges):
                if u != k // n or v != k % n:
                    raise InputError(f"fully-connected edge {k} must be ({k // n}, {k % n})")
        # Hashed once: every cache keyed on a graph would re-hash all edges.
        object.__setattr__(self, "_hash", hash((self.n, self.edges, self.full)))

    def __hash__(self):
        return self._hash

    @classmethod
    def fully_connected(cls, n: int, weights: Mapping[tuple[int, int], Value] | None = None) -> "GraphContext":
        """All n*n ordered pairs; unspecified weights default to 0 on the
        diagonal and the unreachable sentinel elsewhere."""
        weights = weights or {}
        edges = []
        for u in range(n):
            for v in range(n):
                default = 0 if u == v else None
                edges.append((u, v, weights.get((u, v), default)))
        return cls(n, tuple(edges), full=True)

    @property
    def m(self) -> int:
        return len(self.edges)

    def source(self, k: int) -> int:
        return self.edges[k][0]

    def target(self, k: int) -> int:
        return self.edges[k][1]

    def weight(self, k: int) -> Value:
        return self.edges[k][2]


@dataclass(frozen=True)
class Carrier:
    """A flat sum of products of base factors, each factor "V" or "E".

    The empty product () is the singleton set 1.
    """

    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(tuple(t) for t in self.terms))
        for t in self.terms:
            for f in t:
                if f not in ("V", "E"):
                    raise CarrierMismatchError(f"unknown base factor {f!r}")

    def text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for t in self.terms:
            if not t:
                parts.append("1")
            elif all(f == "V" for f in t) and len(t) > 1:
                parts.append(f"V^{len(t)}")
            else:
                parts.append("*".join(t))
        return " + ".join(parts)

    def __str__(self):
        return self.text()


CARRIER_ONE = Carrier(((),))
CARRIER_V = Carrier((("V",),))
CARRIER_E = Carrier((("E",),))


@dataclass(frozen=True)
class Element:
    """One inhabitant of a carrier: which term, and one coordinate per factor."""

    term_index: int
    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))


# --- parsing ---------------------------------------------------------------


def _tokenize(text: str, symbols: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in symbols:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            try:
                value = int(text[i:j])
            except ValueError:  # past Python's digit limit for int()
                raise CarrierSyntaxError("integer literal is too long", i) from None
            tokens.append(("INT", value, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("NAME", text[i:j], i))
            i = j
            continue
        raise CarrierSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("END", None, len(text)))
    depth = 0
    for kind, _, pos in tokens:
        if kind in ("(", "["):
            depth += 1
            if depth > MAX_NESTING:
                raise CarrierSyntaxError(f"brackets nest deeper than {MAX_NESTING} levels", pos)
        elif kind in (")", "]"):
            depth -= 1
    return tokens


class _Parser:
    def __init__(self, text: str, symbols: str):
        self.text = text
        self.tokens = _tokenize(text, symbols)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.advance()
        if tok[0] != kind:
            raise CarrierSyntaxError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok


def _check_terms(count: int, pos: int):
    if count > MAX_TERMS:
        raise CarrierSyntaxError(f"carrier has more than {MAX_TERMS} terms", pos)


def _cross(a: Carrier, b: Carrier, pos: int) -> Carrier:
    _check_terms(len(a.terms) * len(b.terms), pos)
    return Carrier(tuple(ta + tb for ta in a.terms for tb in b.terms))


def parse_carrier(text: str) -> Carrier:
    """Parse a carrier expression into sum-of-products normal form."""
    p = _Parser(text, "+*^()")
    c = _parse_sum(p)
    tok = p.peek()
    if tok[0] != "END":
        raise CarrierSyntaxError(f"unexpected trailing {tok[1]!r}", tok[2])
    return c


def _parse_sum(p: _Parser) -> Carrier:
    terms = list(_parse_product(p).terms)
    while p.peek()[0] == "+":
        pos = p.advance()[2]
        more = _parse_product(p).terms
        _check_terms(len(terms) + len(more), pos)
        terms.extend(more)
    return Carrier(tuple(terms))


def _parse_product(p: _Parser) -> Carrier:
    c = _parse_factor(p)
    while p.peek()[0] == "*":
        pos = p.advance()[2]
        c = _cross(c, _parse_factor(p), pos)
    return c


def _parse_factor(p: _Parser) -> Carrier:
    kind, value, pos = p.advance()
    if kind == "NAME":
        if value == "V":
            if p.peek()[0] == "^":
                p.advance()
                k_kind, k, k_pos = p.advance()
                if k_kind != "INT" or k < 1:
                    raise CarrierSyntaxError("exponent must be an integer >= 1", k_pos)
                if k > MAX_EXPONENT:
                    raise CarrierSyntaxError(f"exponent {k} is over {MAX_EXPONENT}, past the size cap", k_pos)
                return Carrier((("V",) * k,))
            return CARRIER_V
        if value == "E":
            return CARRIER_E
        raise CarrierSyntaxError(f"unknown base set {value!r}", pos)
    if kind == "INT":
        if value != 1:
            raise CarrierSyntaxError("the only numeric factor is the singleton set 1", pos)
        return CARRIER_ONE
    if kind == "(":
        c = _parse_sum(p)
        p.expect(")")
        return c
    raise CarrierSyntaxError(f"expected a factor, found {value!r}", pos)


# --- enumeration ------------------------------------------------------------


class CarrierIndex:
    """Rank/unrank bijection between a carrier's elements and [0, size).

    Term-major: all of term 0 first.  Within a term, coordinates are
    row-major with the last factor varying fastest.
    """

    def __init__(self, carrier: Carrier, graph: GraphContext):
        base = {"V": graph.n, "E": graph.m}
        self.carrier = carrier
        self.graph = graph
        self.term_dims = []
        self.term_sizes = []
        self.offsets = []
        total = 0
        for t in carrier.terms:
            dims = tuple(base[f] for f in t)
            size = 1
            for d in dims:
                size *= d
            self.offsets.append(total)
            self.term_dims.append(dims)
            self.term_sizes.append(size)
            total += size
            if total > SIZE_CAP:
                raise SizeCapError(
                    f"carrier {carrier.text()} has more than {SIZE_CAP} elements for n={graph.n}, m={graph.m}"
                )
        self.size = total

    def element(self, index: int) -> Element:
        if not (0 <= index < self.size):
            raise IndexError(f"index {index} out of range for carrier of size {self.size}")
        for t in range(len(self.offsets)):
            rel = index - self.offsets[t]
            if rel < self.term_sizes[t]:
                return Element(t, tuple(map(int, np.unravel_index(rel, self.term_dims[t]))))
        raise IndexError(index)

    def rank(self, e: Element) -> int:
        if not (0 <= e.term_index < len(self.term_dims)):
            raise CarrierMismatchError(
                f"term index {e.term_index} out of range for carrier {self.carrier.text()}"
            )
        dims = self.term_dims[e.term_index]
        if len(e.coords) != len(dims):
            raise CarrierMismatchError(
                f"element has {len(e.coords)} coordinates, term has {len(dims)} factors"
            )
        rel = 0
        for c, d in zip(e.coords, dims):
            if not (0 <= c < d):
                raise CarrierMismatchError(f"coordinate {c} out of range for factor of size {d}")
            rel = rel * d + c
        return self.offsets[e.term_index] + rel


def carrier_index(carrier: Carrier, graph: GraphContext) -> CarrierIndex:
    """A fresh index of the carrier on the graph.  A function of its own
    so that spanbench's tracer can wrap every lookup by name."""
    return CarrierIndex(carrier, graph)


def size(carrier: Carrier, graph: GraphContext) -> int:
    """Total element count; hard error beyond the cap."""
    return carrier_index(carrier, graph).size


def element_at(carrier: Carrier, graph: GraphContext, index: int) -> Element:
    """The index-th element in canonical order."""
    return carrier_index(carrier, graph).element(index)


def rank(carrier: Carrier, graph: GraphContext, e: Element) -> int:
    """Inverse of element_at."""
    return carrier_index(carrier, graph).rank(e)


def _single_term(carrier: Carrier, index: int) -> Carrier:
    return Carrier((carrier.terms[index],))


# --- arrows -----------------------------------------------------------------


@dataclass(frozen=True)
class _Node:
    """A typed arrow; ``ranks(g)`` is its rank map, an intp array whose
    entry x is the codomain rank of the domain element of rank x."""

    dom: Carrier
    cod: Carrier


@dataclass(frozen=True)
class _Id(_Node):
    def ranks(self, g):
        return np.arange(CarrierIndex(self.dom, g).size, dtype=np.intp)


@dataclass(frozen=True)
class _Bang(_Node):
    def ranks(self, g):
        return np.zeros(CarrierIndex(self.dom, g).size, dtype=np.intp)


@dataclass(frozen=True)
class _Endpoint(_Node):
    column: int = 0  # 0 reads each edge's source, 1 its target

    def ranks(self, g):
        return np.fromiter(map(itemgetter(self.column), g.edges), dtype=np.intp, count=g.m)


@dataclass(frozen=True)
class _Proj(_Node):
    indices: tuple = ()

    def ranks(self, g):
        dims = CarrierIndex(self.dom, g).term_dims[0]
        # The codomain rank is linear in the domain coordinates: each
        # factor weighs the strides of the output slots that select it.
        weights = [0] * len(dims)
        stride = 1
        for i in reversed(self.indices):
            weights[i - 1] += stride
            stride *= dims[i - 1]
        axes = np.ix_(*(np.arange(d, dtype=np.intp) * w for d, w in zip(dims, weights)))
        return sum(axes).ravel()  # broadcast over the domain's dims, last fastest


@dataclass(frozen=True)
class _Inj(_Node):
    index: int = 1

    def ranks(self, g):
        offset = CarrierIndex(self.cod, g).offsets[self.index - 1]
        return np.arange(offset, offset + CarrierIndex(self.dom, g).size, dtype=np.intp)


@dataclass(frozen=True)
class _Copair(_Node):
    branches: tuple = ()

    def ranks(self, g):
        # Branch k's domain is term k alone, so the branch maps stack in
        # the domain's term-major order.
        return np.concatenate([branch.ranks(g) for branch in self.branches])


@dataclass(frozen=True)
class _Chain(_Node):
    steps: tuple = ()  # applied first to last

    def ranks(self, g):
        out = self.steps[0].ranks(g)
        for step in self.steps[1:]:
            out = step.ranks(g)[out]
        return out


@dataclass(frozen=True)
class Arrow:
    """A typed map between carriers; ``node.ranks(graph)`` is its rank map."""

    domain: Carrier
    codomain: Carrier
    node: _Node
    text: str = field(compare=False, default="")

    def __repr__(self):
        return f"Arrow({self.text!r}: {self.domain} -> {self.codomain})"


def _parse_arrow(p: _Parser):
    atoms = [_parse_atom(p)]
    while p.peek()[0] == ".":
        p.advance()
        atoms.append(_parse_atom(p))
    return atoms[0] if len(atoms) == 1 else ("chain", tuple(atoms))


def _parse_atom(p: _Parser):
    kind, value, pos = p.advance()
    if kind == "NAME":
        if value in ("id", "bang", "src", "tgt"):
            return (value,)
        if value == "proj":
            p.expect("[")
            idx = [p.expect("INT")[1]]
            while p.peek()[0] == ",":
                p.advance()
                idx.append(p.expect("INT")[1])
            p.expect("]")
            return ("proj", tuple(idx), pos)
        if value == "inj":
            p.expect("[")
            j = p.expect("INT")[1]
            p.expect("]")
            return ("inj", j, pos)
        raise CarrierSyntaxError(f"unknown arrow {value!r}", pos)
    if kind == "[":
        branches = [_parse_arrow(p)]
        while p.peek()[0] == ";":
            p.advance()
            branches.append(_parse_arrow(p))
        p.expect("]")
        return ("copair", tuple(branches))
    if kind == "(":
        inner = _parse_arrow(p)
        p.expect(")")
        return inner
    raise CarrierSyntaxError(f"expected an arrow, found {value!r}", pos)


def _render(raw) -> str:
    head = raw[0]
    if head in ("id", "bang", "src", "tgt"):
        return head
    if head == "proj":
        return f"proj[{','.join(map(str, raw[1]))}]"
    if head == "inj":
        return f"inj[{raw[1]}]"
    if head == "copair":
        return "[" + "; ".join(_render(b) for b in raw[1]) + "]"
    if head == "chain":
        return ".".join(_render(a) for a in raw[1])
    return repr(raw)


def _type(raw, dom: Carrier, cod: Carrier | None, label: str):
    """Typed node for raw on the domain dom, mapping into cod.  With cod
    None the codomain is inferred, and the result is None where an inj
    has no known codomain; with cod given it is never None."""
    head = raw[0]
    if head == "inj":
        if cod is None:
            return None
        j = raw[1]
        if not (1 <= j <= len(cod.terms)):
            raise ArrowTypeError(f"{label}: inj[{j}] out of range, codomain {cod} has {len(cod.terms)} term(s)")
        if len(dom.terms) != 1:
            raise ArrowTypeError(f"{label}: inj needs a single-term domain, got {dom}")
        if dom.terms[0] != cod.terms[j - 1]:
            raise ArrowTypeError(
                f"{label}: inj[{j}] maps {dom} but term {j} of {cod} is {Carrier((cod.terms[j - 1],))}"
            )
        return _Inj(dom, cod, j)
    if head == "copair":
        branches = raw[1]
        if len(branches) != len(dom.terms):
            raise ArrowTypeError(
                f"{label}: dispatch has {len(branches)} branch(es) but the domain {dom} has "
                f"{len(dom.terms)} term(s)"
            )
        typed = []
        for k, b in enumerate(branches):
            t = _type(b, _single_term(dom, k), cod, f"{label}: branch {k + 1}")
            if t is None:
                return None
            typed.append(t)
        if len({t.cod for t in typed}) != 1:
            raise ArrowTypeError(f"{label}: dispatch branches disagree on the codomain")
        return _Copair(dom, typed[0].cod, tuple(typed))
    if head == "chain":
        atoms = raw[1]
        cur = dom
        nodes = []
        for k in range(len(atoms) - 1, -1, -1):  # only the leftmost atom maps into cod
            t = _type(atoms[k], cur, None if k else cod, label)
            if t is None:
                if cod is None:
                    return None
                raise ArrowTypeError(
                    f"{label}: cannot infer the target of {_render(atoms[k])} inside a composition; "
                    "move it leftmost or wrap it in a dispatch"
                )
            nodes.append(t)
            cur = t.cod
        return _Chain(dom, cur, tuple(nodes))
    if head == "id":
        t = _Id(dom, dom)
    elif head == "bang":
        t = _Bang(dom, CARRIER_ONE)
    elif head in ("src", "tgt"):
        if dom != CARRIER_E:
            raise ArrowTypeError(f"{label}: {head} needs domain E, got {dom}")
        t = _Endpoint(dom, CARRIER_V, 0 if head == "src" else 1)
    elif head == "proj":
        idx = raw[1]
        if len(dom.terms) != 1:
            raise ArrowTypeError(f"{label}: proj needs a single-term domain, got {dom}")
        factors = dom.terms[0]
        for i in idx:
            if not (1 <= i <= len(factors)):
                raise ArrowTypeError(
                    f"{label}: proj index {i} out of range for a term with {len(factors)} factor(s)"
                )
        t = _Proj(dom, Carrier((tuple(factors[i - 1] for i in idx),)), idx)
    else:
        raise CarrierSyntaxError(f"unknown arrow form {head!r}", 0)
    if cod is not None and t.cod != cod:
        raise ArrowTypeError(f"{label}: {_render(raw)} maps {dom} to {t.cod}, expected {cod}")
    return t


def build_arrow(spec: str, domain: Carrier, codomain: Carrier, graph: GraphContext, label: str = "arrow") -> Arrow:
    """Parse and typecheck an arrow expression against the given carriers."""
    # Materialising the indexes up front enforces the size cap early.
    carrier_index(domain, graph)
    carrier_index(codomain, graph)
    p = _Parser(spec, ".;[](),")
    raw = _parse_arrow(p)
    tok = p.peek()
    if tok[0] != "END":
        raise CarrierSyntaxError(f"unexpected trailing {tok[1]!r}", tok[2])
    node = _type(raw, domain, codomain, label)
    return Arrow(domain, codomain, node, spec)


def eval_arrow(arrow: Arrow, e: Element, graph: GraphContext) -> Element:
    """Apply the arrow to one element of its domain.

    This builds the arrow's whole rank map, one pass over its domain,
    to read one entry; the engine, the CLI and the benchmark never call it.
    """
    x = carrier_index(arrow.domain, graph).rank(e)  # raises CarrierMismatchError on a foreign element
    return carrier_index(arrow.codomain, graph).element(arrow.node.ranks(graph)[x])


def preimage(arrow: Arrow, e: Element, graph: GraphContext) -> list[Element]:
    """All domain elements mapping to e, in ascending canonical rank."""
    y = carrier_index(arrow.codomain, graph).rank(e)
    dom = carrier_index(arrow.domain, graph)
    return [dom.element(x) for x in np.flatnonzero(arrow.node.ranks(graph) == y).tolist()]
