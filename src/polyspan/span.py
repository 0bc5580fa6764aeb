"""Polynomial spans and the integral transform that runs over them.

A span wires four carriers with three arrows:

    inputs  <--input_map--  arguments  --process_map-->  messages
                                       messages  --output_map-->  outputs

and is bound to one graph.  Running data through it happens in three
stages, each exposed on its own so tests can compare against the
composite:

  pullback              copy each argument's input row across input_map
  argument_pushforward  fold each process fiber's ordered rows into one
                        message row (componentwise ``times``, or a
                        learned function per fiber size)
  message_pushforward   reduce each output's unordered preimage of
                        message rows with componentwise ``plus``

Fibers and preimages are ordered by ascending canonical rank, so every
stage is deterministic.  The list-shaped and bag-shaped intermediates
of the middle stages are available via ``argument_fiber_rows`` and
``message_preimage_bags``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .algebra import Bag, Semiring
from .carrier import (
    Arrow,
    Carrier,
    CarrierIndex,
    GraphContext,
    build_arrow,
    carrier_index,
    parse_carrier,
)
from .errors import (
    CarrierMismatchError,
    PolyspanError,
    SpanValidationError,
    StrategyError,
)

Row = tuple


@dataclass(frozen=True)
class DataMap:
    """A dense table: one row of ``width`` values per carrier element,
    in canonical enumeration order."""

    carrier: Carrier
    width: int
    rows: tuple

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))
        if self.width < 1:
            raise CarrierMismatchError(f"width must be >= 1, got {self.width}")
        for r in self.rows:
            if len(r) != self.width:
                raise CarrierMismatchError(
                    f"row of length {len(r)} in a table of width {self.width}"
                )

    @classmethod
    def from_term_blocks(cls, carrier: Carrier, graph: GraphContext, blocks: Sequence[Sequence[Row]]) -> "DataMap":
        """Assemble a table from one row block per carrier term, in order;
        the width is that of the first row."""
        idx = carrier_index(carrier, graph)
        if len(blocks) != len(carrier.terms):
            raise CarrierMismatchError(
                f"carrier has {len(carrier.terms)} term(s), got {len(blocks)} block(s)"
            )
        rows = []
        for t, block in enumerate(blocks):
            if len(block) != idx.term_sizes[t]:
                raise CarrierMismatchError(
                    f"term {t + 1} of {carrier.text()} has {idx.term_sizes[t]} element(s), "
                    f"block has {len(block)} row(s)"
                )
            rows.extend(block)
        if not rows:
            raise CarrierMismatchError("cannot infer width from an empty table")
        return cls(carrier, len(rows[0]), rows)

    @classmethod
    def _built(cls, carrier: Carrier, width: int, rows: tuple) -> "DataMap":
        """A stage output whose rows the stage made ``width`` wide: only
        the width itself is checked, not every row."""
        if width < 1:
            raise CarrierMismatchError(f"width must be >= 1, got {width}")
        data = object.__new__(cls)
        object.__setattr__(data, "carrier", carrier)
        object.__setattr__(data, "width", width)
        object.__setattr__(data, "rows", rows)
        return data


@dataclass(frozen=True, eq=False)
class FoldStrategy:
    """How an ordered fiber of rows becomes one message row.

    ``semiring`` folds componentwise with ``times`` starting from
    ``one`` (an empty fiber yields the all-one row).  ``learned`` maps
    each occurring fiber size to a function from the ordered rows to a
    single row; all outputs must share one width.  ``width`` pins that
    output width so a span with no message sites still types.
    """

    kind: str
    folds: Mapping[int, Callable[[Sequence[Row]], Row]] | None = None
    width: int | None = None

    @staticmethod
    def semiring() -> "FoldStrategy":
        return FoldStrategy("semiring")

    @staticmethod
    def learned(folds: Mapping[int, Callable[[Sequence[Row]], Row]],
                width: int | None = None) -> "FoldStrategy":
        return FoldStrategy("learned", dict(folds), width)


@dataclass
class ValidationReport:
    ok: bool
    issues: list[str]


def _groups(ranks, count: int) -> tuple:
    """Per codomain rank below count, the ascending domain ranks that
    the rank map sends there."""
    groups = [[] for _ in range(count)]
    for x, y in enumerate(ranks):
        groups[y].append(x)
    return tuple(map(tuple, groups))


class _Tables:
    """Compiled evaluation tables for one span on one graph."""

    def __init__(self, span: "PolynomialSpan"):
        g = span.graph
        self.wi = carrier_index(span.inputs, g)
        self.xi = carrier_index(span.arguments, g)
        self.yi = carrier_index(span.messages, g)
        self.zi = carrier_index(span.outputs, g)
        self.input_image = tuple(span.input_map.node.ranks(g))
        self.fibers = _groups(span.process_map.node.ranks(g), self.yi.size)
        self.buckets = _groups(span.output_map.node.ranks(g), self.zi.size)


class PolynomialSpan:
    """Four carriers wired by input/process/output maps, bound to a graph."""

    def __init__(self, graph: GraphContext, inputs: Carrier, arguments: Carrier,
                 messages: Carrier, outputs: Carrier,
                 input_map: Arrow, process_map: Arrow, output_map: Arrow):
        self.graph = graph
        self.inputs = inputs
        self.arguments = arguments
        self.messages = messages
        self.outputs = outputs
        self.input_map = input_map
        self.process_map = process_map
        self.output_map = output_map
        self._tables = None

    @classmethod
    def from_spec(cls, spec: Mapping[str, str], graph: GraphContext) -> "PolynomialSpan":
        """Build from the textual form: carrier expressions under keys
        W, X, Y, Z and arrow expressions under i, p, o."""
        missing = [k for k in ("W", "X", "Y", "Z", "i", "p", "o") if k not in spec]
        if missing:
            raise PolyspanError(f"span spec is missing key(s): {', '.join(missing)}")
        carriers = {}
        for key in ("W", "X", "Y", "Z"):
            try:
                carriers[key] = parse_carrier(spec[key])
            except PolyspanError as exc:
                raise PolyspanError(f"key {key}: {exc}") from None
        w, x, y, z = carriers["W"], carriers["X"], carriers["Y"], carriers["Z"]
        i = build_arrow(spec["i"], x, w, graph, label="i")
        p = build_arrow(spec["p"], x, y, graph, label="p")
        o = build_arrow(spec["o"], y, z, graph, label="o")
        return cls(graph, w, x, y, z, i, p, o)

    def validate(self) -> ValidationReport:
        issues = []
        for name, arrow, dom, cod in (
            ("i", self.input_map, self.arguments, self.inputs),
            ("p", self.process_map, self.arguments, self.messages),
            ("o", self.output_map, self.messages, self.outputs),
        ):
            if arrow.domain != dom:
                issues.append(f"{name}: domain {arrow.domain} does not match {dom}")
            if arrow.codomain != cod:
                issues.append(f"{name}: codomain {arrow.codomain} does not match {cod}")
        try:
            for c in (self.inputs, self.arguments, self.messages, self.outputs):
                carrier_index(c, self.graph)
        except PolyspanError as exc:
            issues.append(str(exc))
        return ValidationReport(not issues, issues)

    def compiled(self) -> _Tables:
        if self._tables is None:
            report = self.validate()
            if not report.ok:
                raise SpanValidationError("; ".join(report.issues))
            self._tables = _Tables(self)
        return self._tables

    def __eq__(self, other):
        return (
            isinstance(other, PolynomialSpan)
            and self.graph == other.graph
            and self.inputs == other.inputs
            and self.arguments == other.arguments
            and self.messages == other.messages
            and self.outputs == other.outputs
            and self.input_map == other.input_map
            and self.process_map == other.process_map
            and self.output_map == other.output_map
        )

    def __repr__(self):
        return (
            f"PolynomialSpan({self.inputs} <- {self.arguments} -> "
            f"{self.messages} -> {self.outputs})"
        )


def validate_span(span: PolynomialSpan) -> ValidationReport:
    """Report whether the span's arrows match its declared carriers."""
    return span.validate()


def load_span_file(path) -> dict:
    """Read the JSON form of a span spec; values must all be strings."""
    with open(path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    if not isinstance(spec, dict) or any(not isinstance(v, str) for v in spec.values()):
        raise PolyspanError(f"{path}: a span spec must be a JSON object of strings")
    return spec


def _require_on(data: DataMap, index: CarrierIndex, stage: str):
    """The table must lie on the indexed carrier, one row per element."""
    if data.carrier != index.carrier:
        raise CarrierMismatchError(
            f"{stage}: table is on {data.carrier.text()}, expected {index.carrier.text()}"
        )
    if len(data.rows) != index.size:
        raise CarrierMismatchError(
            f"table has {len(data.rows)} rows but {index.carrier.text()} has "
            f"{index.size} elements on this graph"
        )


def _fold_groups(rows, groups, op, identity, width: int) -> tuple:
    """Combine the rows of each group of row indices componentwise with
    ``op``, left to right; an empty group yields the all-identity row."""
    empty = (identity,) * width
    out = []
    for group in groups:
        if not group:
            out.append(empty)
            continue
        acc = list(rows[group[0]])
        for i in group[1:]:
            r = rows[i]
            for c in range(width):
                acc[c] = op(acc[c], r[c])
        out.append(tuple(acc))
    return tuple(out)


def pullback(span: PolynomialSpan, inputs: DataMap) -> DataMap:
    """Copy each argument's input row across the input map."""
    t = span.compiled()
    _require_on(inputs, t.wi, "pullback")
    rows = inputs.rows
    return DataMap._built(span.arguments, inputs.width, tuple(rows[w] for w in t.input_image))


def argument_fiber_rows(span: PolynomialSpan, arguments: DataMap) -> list[tuple]:
    """Per message, the ordered tuple of argument rows in its process fiber."""
    t = span.compiled()
    _require_on(arguments, t.xi, "argument fibers")
    rows = arguments.rows
    return [tuple(rows[x] for x in fiber) for fiber in t.fibers]


def argument_pushforward(span: PolynomialSpan, s: Semiring, strategy: FoldStrategy,
                         arguments: DataMap) -> DataMap:
    """Fold each ordered process fiber into one message row."""
    t = span.compiled()
    _require_on(arguments, t.xi, "argument pushforward")
    rows = arguments.rows
    if strategy.kind == "semiring":
        width = arguments.width
        return DataMap._built(span.messages, width,
                              _fold_groups(rows, t.fibers, s.times, s.one, width))
    if strategy.kind == "learned":
        folds = strategy.folds or {}
        out = []
        width = strategy.width
        for fiber in t.fibers:
            fold = folds.get(len(fiber))
            if fold is None:
                raise StrategyError(f"learned fold has no mapping for fiber size {len(fiber)}")
            row = tuple(fold(tuple(rows[x] for x in fiber)))
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise StrategyError(
                    f"learned fold output width changed from {width} to {len(row)}"
                )
            out.append(row)
        if width is None:
            raise StrategyError("no messages to fold; cannot infer output width")
        return DataMap._built(span.messages, width, tuple(out))
    raise StrategyError(f"unknown fold strategy {strategy.kind!r}")


def message_preimage_bags(span: PolynomialSpan, messages: DataMap,
                          hook: Callable[[Row], Row] | None = None) -> list[Bag]:
    """Per output, the unordered multiset of (hooked) message rows landing on it."""
    t = span.compiled()
    _require_on(messages, t.yi, "message preimages")
    rows = messages.rows
    if hook is not None:
        rows = tuple(tuple(hook(r)) for r in rows)
    return [Bag(rows[y] for y in bucket) for bucket in t.buckets]


def message_pushforward(span: PolynomialSpan, s: Semiring, messages: DataMap,
                        hook: Callable[[Row], Row] | None = None) -> DataMap:
    """Reduce each output's preimage of message rows with componentwise plus.

    The optional hook rewrites every message row first.  Empty
    preimages yield the all-zero row (the reduce identity).
    """
    t = span.compiled()
    _require_on(messages, t.yi, "message pushforward")
    rows = messages.rows
    if hook is not None:
        rows = tuple(tuple(hook(r)) for r in rows)
        widths = {len(r) for r in rows}
        if len(widths) > 1:
            raise StrategyError("hook produced rows of differing widths")
    width = len(rows[0]) if rows else messages.width
    return DataMap._built(span.outputs, width,
                          _fold_groups(rows, t.buckets, s.plus, s.zero, width))


def integral_transform(span: PolynomialSpan, s: Semiring, strategy: FoldStrategy,
                       inputs: DataMap, hook: Callable[[Row], Row] | None = None) -> DataMap:
    """pullback, then argument_pushforward, then message_pushforward."""
    pulled = pullback(span, inputs)
    messages = argument_pushforward(span, s, strategy, pulled)
    return message_pushforward(span, s, messages, hook)
