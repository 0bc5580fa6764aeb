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
from functools import lru_cache
from typing import Mapping

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
# parsers and typecheckers recurse once per level.
MAX_NESTING = 100


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

    def __post_init__(self):
        if self.n < 0:
            raise InputError(f"node count must be >= 0, got {self.n}")
        object.__setattr__(self, "edges", tuple(tuple(e) for e in self.edges))
        for k, e in enumerate(self.edges):
            if len(e) != 3:
                raise InputError(f"edge {k} must be (source, target, weight), got {e!r}")
            u, v, _ = e
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise InputError(f"edge {k} endpoints ({u}, {v}) out of range for n={self.n}")
        if self.full:
            n = self.n
            if len(self.edges) != n * n:
                raise InputError("fully-connected graph must list all n*n edges in canonical order")
            for k, (u, v, _) in enumerate(self.edges):
                if u != k // n or v != k % n:
                    raise InputError(f"fully-connected edge {k} must be ({k // n}, {k % n})")

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
            tokens.append(("INT", int(text[i:j]), i))
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


def _cross(a: Carrier, b: Carrier) -> Carrier:
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
        p.advance()
        terms.extend(_parse_product(p).terms)
    return Carrier(tuple(terms))


def _parse_product(p: _Parser) -> Carrier:
    c = _parse_factor(p)
    while p.peek()[0] == "*":
        p.advance()
        c = _cross(c, _parse_factor(p))
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
                dims = self.term_dims[t]
                coords = [0] * len(dims)
                for j in range(len(dims) - 1, -1, -1):
                    coords[j] = rel % dims[j]
                    rel //= dims[j]
                return Element(t, tuple(coords))
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


@lru_cache(maxsize=None)
def carrier_index(carrier: Carrier, graph: GraphContext) -> CarrierIndex:
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
    dom: Carrier
    cod: Carrier


@dataclass(frozen=True)
class _Id(_Node):
    def eval(self, e, g):
        return e


@dataclass(frozen=True)
class _Bang(_Node):
    def eval(self, e, g):
        return Element(0, ())


@dataclass(frozen=True)
class _Src(_Node):
    def eval(self, e, g):
        return Element(0, (g.source(e.coords[0]),))


@dataclass(frozen=True)
class _Tgt(_Node):
    def eval(self, e, g):
        return Element(0, (g.target(e.coords[0]),))


@dataclass(frozen=True)
class _Proj(_Node):
    indices: tuple = ()

    def eval(self, e, g):
        coords = e.coords
        return Element(0, tuple(coords[i - 1] for i in self.indices))


@dataclass(frozen=True)
class _Inj(_Node):
    index: int = 1

    def eval(self, e, g):
        return Element(self.index - 1, e.coords)


@dataclass(frozen=True)
class _Copair(_Node):
    branches: tuple = ()

    def eval(self, e, g):
        branch = self.branches[e.term_index]
        return branch.eval(Element(0, e.coords), g)


@dataclass(frozen=True)
class _Chain(_Node):
    steps: tuple = ()  # applied first to last

    def eval(self, e, g):
        for step in self.steps:
            e = step.eval(e, g)
        return e


@dataclass(frozen=True)
class Arrow:
    """A typed map between carriers, ready to evaluate on elements."""

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


def _synth(raw, dom: Carrier, label: str):
    """Typed node for raw with known domain, or None if the codomain
    cannot be inferred (inj needs checking context)."""
    head = raw[0]
    if head == "id":
        return _Id(dom, dom)
    if head == "bang":
        return _Bang(dom, CARRIER_ONE)
    if head in ("src", "tgt"):
        if dom != CARRIER_E:
            raise ArrowTypeError(f"{label}: {head} needs domain E, got {dom}")
        cls = _Src if head == "src" else _Tgt
        return cls(dom, CARRIER_V)
    if head == "proj":
        idx = raw[1]
        if len(dom.terms) != 1:
            raise ArrowTypeError(f"{label}: proj needs a single-term domain, got {dom}")
        factors = dom.terms[0]
        for i in idx:
            if not (1 <= i <= len(factors)):
                raise ArrowTypeError(
                    f"{label}: proj index {i} out of range for a term with {len(factors)} factor(s)"
                )
        cod = Carrier((tuple(factors[i - 1] for i in idx),))
        return _Proj(dom, cod, idx)
    if head == "inj":
        return None
    if head == "copair":
        branches = raw[1]
        if len(branches) != len(dom.terms):
            raise ArrowTypeError(
                f"{label}: dispatch has {len(branches)} branch(es) but the domain {dom} has "
                f"{len(dom.terms)} term(s)"
            )
        typed = []
        for k, b in enumerate(branches):
            t = _synth(b, _single_term(dom, k), f"{label}: branch {k + 1}")
            if t is None:
                return None
            typed.append(t)
        cods = {t.cod for t in typed}
        if len(cods) != 1:
            raise ArrowTypeError(f"{label}: dispatch branches disagree on the codomain")
        return _Copair(dom, typed[0].cod, tuple(typed))
    if head == "chain":
        atoms = raw[1]
        cur = dom
        nodes = []
        for a in reversed(atoms):
            t = _synth(a, cur, label)
            if t is None:
                return None
            nodes.append(t)
            cur = t.cod
        return _Chain(nodes[0].dom, nodes[-1].cod, tuple(nodes))
    raise CarrierSyntaxError(f"unknown arrow form {head!r}", 0)


def _check(raw, dom: Carrier, cod: Carrier, label: str):
    head = raw[0]
    if head == "inj":
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
        typed = tuple(
            _check(b, _single_term(dom, k), cod, f"{label}: branch {k + 1}")
            for k, b in enumerate(branches)
        )
        return _Copair(dom, cod, typed)
    if head == "chain":
        atoms = raw[1]
        cur = dom
        nodes = []
        for a in reversed(atoms[1:]):
            t = _synth(a, cur, label)
            if t is None:
                raise ArrowTypeError(
                    f"{label}: cannot infer the target of {_render(a)} inside a composition; "
                    "move it leftmost or wrap it in a dispatch"
                )
            nodes.append(t)
            cur = t.cod
        nodes.append(_check(atoms[0], cur, cod, label))
        return _Chain(nodes[0].dom, nodes[-1].cod, tuple(nodes))
    t = _synth(raw, dom, label)
    if t.cod != cod:
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
    node = _check(raw, domain, codomain, label)
    return Arrow(domain, codomain, node, spec)


def _check_element(carrier: Carrier, graph: GraphContext, e: Element, what: str):
    idx = carrier_index(carrier, graph)
    idx.rank(e)  # raises CarrierMismatchError on any mismatch


def eval_arrow(arrow: Arrow, e: Element, graph: GraphContext) -> Element:
    """Apply the arrow to one element of its domain."""
    _check_element(arrow.domain, graph, e, "argument")
    return arrow.node.eval(e, graph)


def preimage(arrow: Arrow, e: Element, graph: GraphContext) -> list[Element]:
    """All domain elements mapping to e, in ascending canonical rank."""
    _check_element(arrow.codomain, graph, e, "target")
    idx = carrier_index(arrow.domain, graph)
    node = arrow.node
    out = []
    for i in range(idx.size):
        x = idx.element(i)
        if node.eval(x, graph) == e:
            out.append(x)
    return out
