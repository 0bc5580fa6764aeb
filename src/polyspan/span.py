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
buckets.  The stages then run as array operations: pullback is an
array take; a fold or reduce whose kernel op is order-free (min-plus
``plus``, and boolean ``plus`` and ``times``) is one ``ufunc.reduceat``
over the groups; any other fold or reduce is one positional loop whose
step k combines the k-th member of every group that has one, which is
the same left-to-right order as a per-group loop.  A table is one
array whose dtype is its encoding (see ``_encode`` for the exactness
rules); it decodes to Python rows only when read.
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


def _encode(flat, width: int) -> np.ndarray:
    """A table's values, listed row after row, as one array ``width``
    wide whose dtype says how to decode it: float64 (Python or numpy
    floats), bool, int64 (Python ints and None, stored as _UNREACHABLE;
    no value may be past int64 or equal to that sentinel), and
    otherwise object, which holds the values themselves.  Decoding gives
    back values equal in value and in type, numpy floats as float."""
    flat = list(flat)
    # A width-0 table (a fold or hook that returned empty rows) has no
    # values; _built rejects it.
    shape = (len(flat) // max(width, 1), width)
    types = set(map(type, flat))
    if types and types <= {float, np.float64}:
        return np.array(flat, dtype=np.float64).reshape(shape)
    if types == {bool}:
        return np.array(flat, dtype=np.bool_).reshape(shape)
    if types and types <= {int, type(None)}:
        try:
            array = np.array([_UNREACHABLE if v is None else v for v in flat], dtype=np.int64)
        except OverflowError:
            pass
        else:
            if np.count_nonzero(array == _UNREACHABLE) == flat.count(None):
                return array.reshape(shape)
    return np.fromiter(flat, dtype=object, count=len(flat)).reshape(shape)


def _as_object(array: np.ndarray) -> np.ndarray:
    """The array's values as Python objects."""
    if array.dtype == object:
        return array
    values = array.astype(object)
    if array.dtype == np.int64:
        values[array == _UNREACHABLE] = None
    return values


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


# Per semiring: the dtype of its array kernel, then its plus and times.
# Only times needs the _fits guard: an int64 plus (np.minimum) stays in
# its inputs' range.  Anything else runs the semiring's own functions.
_KERNELS = {
    MIN_PLUS: (np.dtype(np.int64), np.minimum, _tropical_times),
    REAL: (np.dtype(np.float64), np.add, np.multiply),
    MAX_PLUS: (np.dtype(np.float64), _first_max, np.add),
    BOOLEAN: (np.dtype(np.bool_), np.logical_or, np.logical_and),
}

# Kernel ops whose result does not depend on the order of a group's
# members, so one reduceat may combine them in any order.  Float sums,
# _first_max and the int64 times are order-sensitive or not ufuncs.
_ORDER_FREE = (np.minimum, np.logical_or, np.logical_and)


class DataMap:
    """A dense table: one row of ``width`` values per carrier element,
    in canonical enumeration order.

    A table holds its values as one array, encoded by ``_encode``;
    ``rows`` decodes it on first read and keeps the result.  Tables are
    equal when their carriers, widths and rows are.
    """

    __slots__ = ("carrier", "width", "_rows", "_values")

    def __init__(self, carrier: Carrier, width: int, rows):
        self.carrier = carrier
        self.width = width
        self._rows = rows
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
        self._values = _encode(chain.from_iterable(self._rows), self.width)

    @property
    def rows(self) -> tuple:
        if self._rows is None:
            self._rows = tuple(map(tuple, _as_object(self._values).tolist()))
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
    def _built(cls, carrier: Carrier, values: np.ndarray) -> "DataMap":
        """A table made by the engine from its encoded array, one row per
        element: only the width, ``values.shape[1]``, is checked."""
        width = values.shape[1]
        if width < 1:
            raise CarrierMismatchError(f"width must be >= 1, got {width}")
        data = object.__new__(cls)
        data.carrier, data.width, data._rows, data._values = carrier, width, None, values
        return data


@dataclass(frozen=True, eq=False)
class FoldStrategy:
    """How an ordered fiber of rows becomes one message row.

    ``semiring`` folds componentwise with ``times`` starting from
    ``one`` (an empty fiber yields the all-one row).  ``learned`` maps
    each occurring fiber size to a function from the ordered rows, a
    ``(size, width)`` array whose ``tolist()`` gives the table's values
    in value and type (float64 for a float table, else Python objects),
    to a single row of values, which are encoded like a table's (numpy
    floats as float); all outputs must share one width.
    ``width`` pins that output width so a span with no message sites
    still types.
    """

    kind: str
    folds: Mapping[int, Callable[[np.ndarray], Row]] | None = None
    width: int | None = None

    @staticmethod
    def semiring() -> "FoldStrategy":
        return FoldStrategy("semiring")

    @staticmethod
    def learned(folds: Mapping[int, Callable[[np.ndarray], Row]],
                width: int | None = None) -> "FoldStrategy":
        return FoldStrategy("learned", dict(folds), width)


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
    """Four carriers wired by input/process/output maps, bound to a graph;
    ill-typed wiring raises SpanValidationError on construction."""

    def __init__(self, graph: GraphContext, inputs: Carrier, arguments: Carrier,
                 messages: Carrier, outputs: Carrier,
                 input_map: Arrow, process_map: Arrow, output_map: Arrow):
        issues = []
        for name, arrow, dom, cod in (
            ("i", input_map, arguments, inputs),
            ("p", process_map, arguments, messages),
            ("o", output_map, messages, outputs),
        ):
            if arrow.domain != dom:
                issues.append(f"{name}: domain {arrow.domain} does not match {dom}")
            if arrow.codomain != cod:
                issues.append(f"{name}: codomain {arrow.codomain} does not match {cod}")
        if issues:
            raise SpanValidationError("; ".join(issues))
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

    def compiled(self) -> _Tables:
        if self._tables is None:
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
    if len(data._values) != index.size:
        raise CarrierMismatchError(
            f"table has {len(data._values)} rows but {index.carrier.text()} has "
            f"{index.size} elements on this graph"
        )


def _combine(groups: _Groups, s: Semiring, plus: bool, data: DataMap) -> np.ndarray:
    """Combine the rows of each group componentwise with ``s.plus`` (or
    ``s.times``), left to right; an empty group yields the all-identity
    row.  The semiring's array kernel runs when the table has its dtype
    and, for an int64 fold, the overflow guard passes; otherwise the
    semiring's own functions run on the values as Python objects.  An
    order-free kernel op combines every nonempty group in one reduceat;
    any other op runs the positional loop, whose step k combines the
    k-th member of every group that has one."""
    array = data._values
    identity = s.zero if plus else s.one
    kernel = _KERNELS.get(s)
    if kernel is not None and kernel[0] == array.dtype and (
            plus or array.dtype != np.int64 or _fits(array, groups.largest)):
        op = kernel[1] if plus else kernel[2]
        if identity is None:
            identity = _UNREACHABLE
    else:
        array = _as_object(array)
        op = np.frompyfunc(s.plus if plus else s.times, 2, 1)
    if op in _ORDER_FREE:
        nonempty = groups.sizes > 0
        out = np.full((groups.count, data.width), identity, dtype=array.dtype)
        out[nonempty] = op.reduceat(array[groups.order], groups.starts[nonempty], axis=0)
        return out
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
    return out


def pullback(span: PolynomialSpan, inputs: DataMap) -> DataMap:
    """Copy each argument's input row across the input map."""
    t = span.compiled()
    _require_on(inputs, t.wi, "pullback")
    return DataMap._built(span.arguments, inputs._values[t.input_image])


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
        return DataMap._built(span.messages, _combine(t.fiber_groups, s, False, arguments))
    if strategy.kind == "learned":
        groups = t.fiber_groups
        array = arguments._values
        if array.dtype != np.float64:
            array = _as_object(array)
        ordered = array[groups.order]  # fiber after fiber
        folds = strategy.folds or {}
        flat = []
        width = strategy.width
        for start, size in zip(groups.starts.tolist(), groups.sizes.tolist()):
            fold = folds.get(size)
            if fold is None:
                raise StrategyError(f"learned fold has no mapping for fiber size {size}")
            row = tuple(fold(ordered[start:start + size]))
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise StrategyError(
                    f"learned fold output width changed from {width} to {len(row)}"
                )
            flat.extend(row)
        if width is None:
            raise StrategyError("no messages to fold; cannot infer output width")
        return DataMap._built(span.messages, _encode(flat, width))
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
        rows = [tuple(hook(r)) for r in messages.rows]
        widths = {len(r) for r in rows}
        if len(widths) > 1:
            raise StrategyError("hook produced rows of differing widths")
        width = widths.pop() if widths else messages.width
        messages = DataMap._built(span.messages, _encode(chain.from_iterable(rows), width))
    return DataMap._built(span.outputs, _combine(t.bucket_groups, s, True, messages))


def integral_transform(span: PolynomialSpan, s: Semiring, strategy: FoldStrategy,
                       inputs: DataMap, hook: Callable[[Row], Row] | None = None) -> DataMap:
    """pullback, then argument_pushforward, then message_pushforward."""
    pulled = pullback(span, inputs)
    messages = argument_pushforward(span, s, strategy, pulled)
    return message_pushforward(span, s, messages, hook)
