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

Compiling a span turns its three arrows into index arrays: the input
map's rank map, and the process and output maps grouped into fibers and
buckets.  The stages then run as array operations: pullback is a
gather, and a semiring fold or reduce is one positional loop whose step
k combines the k-th member of every group that has one, which is the
same left-to-right order as a per-group loop.  Tables travel between
stages as arrays and decode to Python rows only when read (see
``_encode`` for the exactness rules).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Callable, Mapping, Sequence

import numpy as np

from .algebra import BOOLEAN, MAX_PLUS, MIN_PLUS, REAL, Bag, Semiring
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

# Entries kept by each span builder's cache (bellman_ford_span and the
# others): a compiled span holds index arrays as long as its carriers.
SPAN_CACHE_SIZE = 32

# --- value arrays -------------------------------------------------------------

# The int64 stand-in for None, the unreachable value of min-plus.
_UNREACHABLE = int(np.iinfo(np.int64).max)


def _encode(rows, width: int) -> tuple[str, np.ndarray]:
    """A table's values as a (kind, array) pair with one row per table
    row.  The kind follows the exact Python types of the values: "float"
    (float64), "bool", "int" (int64, None stored as _UNREACHABLE; no
    value may be past int64 or equal to that sentinel), and otherwise
    "object", which holds the values themselves.  Decoding gives back
    values equal in value and in type."""
    flat = list(chain.from_iterable(rows))
    types = set(map(type, flat))
    if types == {float}:
        return "float", np.array(flat, dtype=np.float64).reshape(len(rows), width)
    if types == {bool}:
        return "bool", np.array(flat, dtype=np.bool_).reshape(len(rows), width)
    if types and types <= {int, type(None)}:
        try:
            array = np.array([_UNREACHABLE if v is None else v for v in flat], dtype=np.int64)
        except OverflowError:
            pass
        else:
            if np.count_nonzero(array == _UNREACHABLE) == flat.count(None):
                return "int", array.reshape(len(rows), width)
    return "object", np.fromiter(flat, dtype=object, count=len(flat)).reshape(len(rows), width)


def _as_object(kind: str, array: np.ndarray) -> np.ndarray:
    """The array's values as Python objects."""
    if kind == "object":
        return array
    values = array.astype(object)
    if kind == "int":
        values[array == _UNREACHABLE] = None
    return values


def _decode(kind: str, array: np.ndarray) -> list:
    """The array's values as nested lists of Python values."""
    return _as_object(kind, array).tolist()


def _fits(array: np.ndarray, group_size: int) -> bool:
    """Overflow guard of the int64 kernel: no fold of up to group_size
    finite values can reach the sentinel."""
    finite = array[array != _UNREACHABLE]
    if not finite.size:
        return True
    return max(int(finite.max()), -int(finite.min())) * group_size < _UNREACHABLE


def _tropical_times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = a + b
    out[(a == _UNREACHABLE) | (b == _UNREACHABLE)] = _UNREACHABLE
    return out


def _first_max(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Exactly Python's max(a, b), NaN and signed zero included: b only
    # when b > a.
    return np.where(b > a, b, a)


# Per semiring: the array kind its values must have for the array
# kernel, then its plus and times on arrays of that kind.  Any other
# semiring, kind, or a guard miss runs the semiring's own functions.
_KERNELS = {
    MIN_PLUS: ("int", np.minimum, _tropical_times),
    REAL: ("float", np.add, np.multiply),
    MAX_PLUS: ("float", _first_max, np.add),
    BOOLEAN: ("bool", np.logical_or, np.logical_and),
}


class DataMap:
    """A dense table: one row of ``width`` values per carrier element,
    in canonical enumeration order.

    A stage's output keeps its values as an array and decodes ``rows``
    only when they are read; a pullback's output is a gather of its
    input, made from whichever of the two the next stage reads.  Tables
    are equal when their carriers, widths and rows are.
    """

    __slots__ = ("carrier", "width", "_rows", "_values", "_gather")

    def __init__(self, carrier: Carrier, width: int, rows):
        self.carrier = carrier
        self.width = width
        self._rows = rows
        self._values = self._gather = None
        self.__post_init__()

    def __post_init__(self):
        # The public constructor's per-row check, under the name it had
        # when DataMap was a dataclass; spanbench's tracer times it so.
        self._rows = tuple(tuple(r) for r in self._rows)
        if self.width < 1:
            raise CarrierMismatchError(f"width must be >= 1, got {self.width}")
        for r in self._rows:
            if len(r) != self.width:
                raise CarrierMismatchError(
                    f"row of length {len(r)} in a table of width {self.width}"
                )

    @property
    def rows(self) -> tuple:
        if self._rows is None:
            if self._gather is not None and self._gather[0]._rows is not None:
                source, index = self._gather
                self._rows = tuple(map(source._rows.__getitem__, index.tolist()))
            else:
                self._rows = tuple(map(tuple, _decode(*self._encoded())))
        return self._rows

    def __eq__(self, other):
        if not isinstance(other, DataMap):
            return NotImplemented
        return (self.carrier, self.width, self.rows) == (other.carrier, other.width, other.rows)

    def __hash__(self):
        return hash((self.carrier, self.width, self.rows))

    def __repr__(self):
        return f"DataMap(carrier={self.carrier!r}, width={self.width!r}, rows={self.rows!r})"

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
    def _built(cls, carrier: Carrier, width: int, rows: tuple | None = None,
               values: tuple[str, np.ndarray] | None = None,
               gather: tuple["DataMap", np.ndarray] | None = None) -> "DataMap":
        """A table made by the engine from rows ``width`` wide, from an
        encoded (kind, array) pair, or as the (source table, row index)
        gather: only the width itself is checked."""
        if width < 1:
            raise CarrierMismatchError(f"width must be >= 1, got {width}")
        data = object.__new__(cls)
        data.carrier, data.width, data._rows = carrier, width, rows
        data._values, data._gather = values, gather
        return data

    def _encoded(self) -> tuple[str, np.ndarray]:
        if self._values is None:
            if self._gather is not None:
                source, index = self._gather
                kind, array = source._encoded()
                self._values = kind, array[index]
            else:
                self._values = _encode(self._rows, self.width)
        return self._values

    def _size(self) -> int:
        if self._rows is not None:
            return len(self._rows)
        return len(self._gather[1] if self._gather is not None else self._values[1])


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


class _Groups:
    """The domain ranks that a rank map sends to each codomain rank
    below ``count``.

    ``order`` is a stable argsort of the map, so group y is
    ``order[starts[y]:starts[y] + sizes[y]]``, in ascending rank.
    ``perm`` lists the groups largest first, and ``steps[k]`` holds the
    k-th member of each group in ``perm`` that has more than k members;
    those groups are a prefix of ``perm``.
    """

    def __init__(self, ranks: np.ndarray, count: int):
        self.count = count
        self.sizes = np.bincount(ranks, minlength=count)
        self.order = np.argsort(ranks, kind="stable")
        self.starts = np.cumsum(self.sizes) - self.sizes
        self.perm = np.argsort(-self.sizes, kind="stable")
        self.largest = int(self.sizes.max(initial=0))

    @cached_property
    def steps(self) -> list:
        firsts = self.starts[self.perm]
        # active[k] counts the groups with more than k members.
        active = self.count - np.cumsum(np.bincount(self.sizes, minlength=self.largest + 1))
        return [self.order[firsts[:c] + k] for k, c in enumerate(active[:self.largest].tolist())]

    @cached_property
    def members(self) -> tuple:
        """Per group, its ascending domain ranks, as tuples."""
        flat = self.order.tolist()
        return tuple(tuple(flat[s:s + n]) for s, n in zip(self.starts.tolist(), self.sizes.tolist()))


class _Tables:
    """Compiled evaluation tables for one span on one graph."""

    def __init__(self, span: "PolynomialSpan"):
        g = span.graph
        self.wi = carrier_index(span.inputs, g)
        self.xi = carrier_index(span.arguments, g)
        self.yi = carrier_index(span.messages, g)
        self.zi = carrier_index(span.outputs, g)
        self.input_image = span.input_map.node.ranks(g)
        self.fiber_groups = _Groups(span.process_map.node.ranks(g), self.yi.size)
        self.bucket_groups = _Groups(span.output_map.node.ranks(g), self.zi.size)

    @property
    def fibers(self) -> tuple:
        """Per message, the ascending argument ranks of its process fiber."""
        return self.fiber_groups.members

    @property
    def buckets(self) -> tuple:
        """Per output, the ascending message ranks of its preimage."""
        return self.bucket_groups.members


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
    if data._size() != index.size:
        raise CarrierMismatchError(
            f"table has {data._size()} rows but {index.carrier.text()} has "
            f"{index.size} elements on this graph"
        )


def _combine(groups: _Groups, s: Semiring, plus: bool, data: DataMap) -> tuple[str, np.ndarray]:
    """Combine the rows of each group componentwise with ``s.plus`` (or
    ``s.times``), left to right; an empty group yields the all-identity
    row.  Step k of the loop combines the k-th member of every group
    that has one.  The semiring's array kernel runs when the table has
    its kind and, for int64, the overflow guard passes; otherwise the
    semiring's own functions run on the values as Python objects."""
    kind, array = data._encoded()
    identity = s.zero if plus else s.one
    kernel = _KERNELS.get(s)
    if kernel is not None and kernel[0] == kind and (kind != "int" or _fits(array, groups.largest)):
        op = kernel[1] if plus else kernel[2]
        if identity is None:
            identity = _UNREACHABLE
    else:
        kind, array = "object", _as_object(kind, array)
        op = np.frompyfunc(s.plus if plus else s.times, 2, 1)
    acc = np.empty((groups.count, data.width), dtype=array.dtype)
    steps = groups.steps
    head = len(steps[0]) if steps else 0
    acc[head:].fill(identity)
    if head:
        acc[:head] = array[steps[0]]
    with np.errstate(all="ignore"):  # Python's float arithmetic gives inf and NaN silently
        for members in steps[1:]:
            part = acc[:len(members)]
            part[...] = op(part, array[members])
    out = np.empty_like(acc)
    out[groups.perm] = acc
    return kind, out


def pullback(span: PolynomialSpan, inputs: DataMap) -> DataMap:
    """Copy each argument's input row across the input map."""
    t = span.compiled()
    _require_on(inputs, t.wi, "pullback")
    return DataMap._built(span.arguments, inputs.width, gather=(inputs, t.input_image))


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
    if strategy.kind == "semiring":
        return DataMap._built(span.messages, arguments.width,
                              values=_combine(t.fiber_groups, s, False, arguments))
    if strategy.kind == "learned":
        groups = t.fiber_groups
        rows = arguments.rows
        ordered = list(map(rows.__getitem__, groups.order.tolist()))  # fiber after fiber
        folds = strategy.folds or {}
        out = []
        width = strategy.width
        for start, size in zip(groups.starts.tolist(), groups.sizes.tolist()):
            fold = folds.get(size)
            if fold is None:
                raise StrategyError(f"learned fold has no mapping for fiber size {size}")
            row = tuple(fold(tuple(ordered[start:start + size])))
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
    if hook is not None:
        rows = tuple(tuple(hook(r)) for r in messages.rows)
        widths = {len(r) for r in rows}
        if len(widths) > 1:
            raise StrategyError("hook produced rows of differing widths")
        messages = DataMap._built(span.messages, len(rows[0]) if rows else messages.width, rows)
    return DataMap._built(span.outputs, messages.width,
                          values=_combine(t.bucket_groups, s, True, messages))


def integral_transform(span: PolynomialSpan, s: Semiring, strategy: FoldStrategy,
                       inputs: DataMap, hook: Callable[[Row], Row] | None = None) -> DataMap:
    """pullback, then argument_pushforward, then message_pushforward."""
    pulled = pullback(span, inputs)
    messages = argument_pushforward(span, s, strategy, pulled)
    return message_pushforward(span, s, messages, hook)
