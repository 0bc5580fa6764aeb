"""Semiring value domains and the bag/list aggregation machinery.

Every transform in this package combines values in exactly two ways: an
ordered fold with ``times`` over the arguments feeding one computation
site, and an unordered reduce with ``plus`` over the messages landing on
one output site.  A semiring packages both operations together with
their identities.  Four instances ship: tropical naturals (min and
saturating +), real sum/product, max-plus over floats, and boolean
or/and.

Tropical infinity ("not reached yet") is the absent-value sentinel
``None``: ``tropical_min`` treats it as larger than every number and
``tropical_add`` saturates on it.

The unordered side is made precise by ``Bag``, a finite multiset with
canonical storage, together with its map/unit/join operations; the
ordered side uses plain tuples.  ``distribute`` turns a list of bags
into the bag of all ordered selections, with multiplicities
multiplying; it is what makes a fold-then-reduce pipeline agree with
naive expansion whenever the semiring laws hold.  ``check_laws`` probes
those laws on concrete samples and reports, rather than raises, so
deliberately broken instances can be inspected.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

Value = Any


def tropical_min(a: Value, b: Value) -> Value:
    """Minimum over naturals extended with the unreachable sentinel."""
    if a is None:
        return b
    if b is None:
        return a
    return a if a <= b else b


def tropical_add(a: Value, b: Value) -> Value:
    """Addition saturating at the unreachable sentinel."""
    if a is None or b is None:
        return None
    return a + b


@dataclass(frozen=True)
class Semiring:
    """A value domain with a commutative reduce (plus) and a fold (times).

    ``zero`` is the identity of ``plus`` and must annihilate under
    ``times``; ``one`` is the identity of ``times``.  ``value_kind``
    tells the law checker how to compare values: exact for
    ``tropical-nat`` and ``boolean``, float tolerance otherwise.
    """

    name: str
    zero: Value
    one: Value
    plus: Callable[[Value, Value], Value]
    times: Callable[[Value, Value], Value]
    value_kind: str = "real"

    def __repr__(self):
        return f"Semiring({self.name!r})"


MIN_PLUS = Semiring("min-plus", None, 0, tropical_min, tropical_add, "tropical-nat")
REAL = Semiring("real", 0.0, 1.0, operator.add, operator.mul, "real")
MAX_PLUS = Semiring("max-plus", float("-inf"), 0.0, max, operator.add, "max-plus-real")
BOOLEAN = Semiring("bool", False, True, operator.or_, operator.and_, "boolean")

SEMIRINGS = {s.name: s for s in (MIN_PLUS, REAL, MAX_PLUS, BOOLEAN)}

# Comparison tolerances for float-valued instances.
REL_TOL = 1e-9
ABS_TOL = 1e-12


def broken_semiring() -> Semiring:
    """Negative control for the law checker: subtraction is not associative."""
    return Semiring("broken-minus", 0.0, 1.0, operator.sub, operator.mul, "real")


def values_close(kind: str, a: Value, b: Value) -> bool:
    """Equality at the tolerance appropriate for the value kind."""
    if kind in ("tropical-nat", "boolean"):
        return a == b
    if a == b:
        # Covers matching infinities exactly.
        return True
    if a is None or b is None:
        return False
    return abs(a - b) <= max(REL_TOL * max(abs(a), abs(b)), ABS_TOL)


def _sort_key(v):
    # Total order over every value kind a bag may hold.  bool compares
    # equal to int in dict keys, so both must sort identically.
    if v is None:
        return (0,)
    if isinstance(v, Bag):
        return (3, tuple((_sort_key(x), c) for x, c in v.pairs()))
    if isinstance(v, tuple):
        return (2, len(v), tuple(_sort_key(x) for x in v))
    if isinstance(v, (bool, int, float)):
        return (1, v)
    if isinstance(v, str):
        return (4, v)
    return (9, repr(v))


class Bag:
    """Finite multiset with canonical storage.

    The bag sees only the value-to-multiplicity mapping: insertion order
    is unobservable, equal bags hash equally, and iteration follows a
    fixed canonical order so downstream reductions are deterministic.
    Multiplicities are always >= 1; values must be hashable.
    """

    __slots__ = ("_pairs",)

    def __init__(self, values: Iterable[Value] = ()):
        counts: dict = {}
        for v in values:
            counts[v] = counts.get(v, 0) + 1
        self._pairs = tuple(sorted(counts.items(), key=lambda kv: _sort_key(kv[0])))

    @classmethod
    def from_counts(cls, counts: Mapping[Value, int] | Iterable[tuple[Value, int]]) -> "Bag":
        items = counts.items() if isinstance(counts, Mapping) else counts
        merged: dict = {}
        for v, c in items:
            if c < 0:
                raise ValueError(f"negative multiplicity {c} for {v!r}")
            if c:
                merged[v] = merged.get(v, 0) + c
        bag = cls()
        bag._pairs = tuple(sorted(merged.items(), key=lambda kv: _sort_key(kv[0])))
        return bag

    def pairs(self) -> tuple:
        """Canonically ordered (value, multiplicity) pairs."""
        return self._pairs

    def counts(self) -> dict:
        return dict(self._pairs)

    def count(self, value: Value) -> int:
        for v, c in self._pairs:
            if v == value:
                return c
        return 0

    def support(self) -> tuple:
        return tuple(v for v, _ in self._pairs)

    def __iter__(self):
        for v, c in self._pairs:
            for _ in range(c):
                yield v

    def __len__(self):
        return sum(c for _, c in self._pairs)

    def __contains__(self, value):
        return self.count(value) > 0

    def __eq__(self, other):
        return isinstance(other, Bag) and self._pairs == other._pairs

    def __hash__(self):
        return hash(self._pairs)

    def __repr__(self):
        inner = ", ".join(f"{v!r}: {c}" for v, c in self._pairs)
        return f"Bag({{{inner}}})"


def unit_bag(value: Value) -> Bag:
    """The singleton multiset."""
    return Bag((value,))


def map_bag(fn: Callable[[Value], Value], bag: Bag) -> Bag:
    """Apply fn to each value; multiplicities of equal images accumulate."""
    out: dict = {}
    for v, c in bag.pairs():
        w = fn(v)
        out[w] = out.get(w, 0) + c
    return Bag.from_counts(out)


def join_bag(nested: Bag) -> Bag:
    """Flatten a bag of bags; multiplicities multiply through."""
    out: dict = {}
    for inner, outer_count in nested.pairs():
        if not isinstance(inner, Bag):
            raise TypeError(f"join_bag needs a bag of bags, found {inner!r}")
        for v, c in inner.pairs():
            out[v] = out.get(v, 0) + c * outer_count
    return Bag.from_counts(out)


def reduce_bag(s: Semiring, bag: Bag) -> Value:
    """Combine all values with ``plus``, counting multiplicity.

    The empty bag reduces to ``zero``.  Iteration follows the bag's
    canonical order, which only matters for float determinism; the laws
    make the result order-independent.
    """
    acc = s.zero
    plus = s.plus
    for v in bag:
        acc = plus(acc, v)
    return acc


def unit_list(value: Value) -> tuple:
    """The singleton sequence."""
    return (value,)


def map_list(fn: Callable[[Value], Value], items: Sequence[Value]) -> tuple:
    return tuple(fn(v) for v in items)


def join_list(nested: Sequence[Sequence[Value]]) -> tuple:
    """Concatenate in order."""
    return tuple(itertools.chain.from_iterable(nested))


def fold_list(s: Semiring, items: Sequence[Value]) -> Value:
    """Left fold with ``times`` starting from ``one``; order preserved."""
    acc = s.one
    times = s.times
    for v in items:
        acc = times(acc, v)
    return acc


def distribute(bags: Sequence[Bag]) -> Bag:
    """The bag of all ordered selections, one value from each input bag.

    Multiplicities multiply, so the output's total count is the product
    of the inputs' total counts; any empty input empties the result.
    """
    out: dict = {}
    for combo in itertools.product(*(b.pairs() for b in bags)):
        values = tuple(v for v, _ in combo)
        mult = 1
        for _, c in combo:
            mult *= c
        out[values] = out.get(values, 0) + mult
    return Bag.from_counts(out)


@dataclass
class LawCheck:
    law: str
    passed: bool
    counterexample: str | None = None


@dataclass
class LawReport:
    """Outcome of probing one semiring instance on concrete samples."""

    semiring: str
    checks: list[LawCheck]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> list[str]:
        return [c.law for c in self.checks if not c.passed]

    def lines(self) -> list[str]:
        out = [f"semiring {self.semiring}"]
        for c in self.checks:
            if c.passed:
                out.append(f"  {c.law}: pass")
            else:
                out.append(f"  {c.law}: FAIL ({c.counterexample})")
        bad = len(self.failed())
        out.append("  all laws hold" if bad == 0 else f"  {bad} law(s) failed")
        return out


def law_samples(r: random.Random, kind: str, count: int) -> list[tuple]:
    """``count`` random (a, b, c) triples of one value kind for
    ``check_laws``.  Unreachable (tropical naturals) and minus infinity
    (max-plus) each make up about 15% of their kind's draws."""
    def value():
        if kind == "tropical-nat":
            return None if r.random() < 0.15 else r.randint(0, 100)
        if kind == "boolean":
            return r.random() < 0.5
        if kind == "max-plus-real":
            return float("-inf") if r.random() < 0.15 else r.uniform(-100.0, 100.0)
        return r.uniform(-1000.0, 1000.0)

    return [(value(), value(), value()) for _ in range(count)]


def check_laws(s: Semiring, samples: Sequence[tuple]) -> LawReport:
    """Probe the semiring axioms on the given (a, b, c) triples.

    Failures are recorded with the first counterexample found, never
    raised, so deliberately broken instances can be reported.
    """
    if not samples:
        raise ValueError("need at least one sample triple")

    eq = lambda x, y: values_close(s.value_kind, x, y)
    plus, times = s.plus, s.times
    zero, one = s.zero, s.one

    def law(name, pred):
        for a, b, c in samples:
            try:
                holds = pred(a, b, c)
            except Exception as exc:
                # An operation that cannot even evaluate has failed the law.
                return LawCheck(name, False, f"a={a!r} b={b!r} c={c!r} raised {exc!r}")
            if not holds:
                return LawCheck(name, False, f"a={a!r} b={b!r} c={c!r}")
        return LawCheck(name, True)

    def nested_bag(a, b, c):
        return Bag((Bag((a, b)), Bag((c,)), Bag()))

    checks = [
        law("plus-identity", lambda a, b, c: eq(plus(a, zero), a) and eq(plus(zero, a), a)),
        law("plus-commutative", lambda a, b, c: eq(plus(a, b), plus(b, a))),
        law("plus-associative", lambda a, b, c: eq(plus(plus(a, b), c), plus(a, plus(b, c)))),
        law("times-identity", lambda a, b, c: eq(times(a, one), a) and eq(times(one, a), a)),
        law("times-associative", lambda a, b, c: eq(times(times(a, b), c), times(a, times(b, c)))),
        law("distributive-left", lambda a, b, c: eq(times(a, plus(b, c)), plus(times(a, b), times(a, c)))),
        law("distributive-right", lambda a, b, c: eq(times(plus(b, c), a), plus(times(b, a), times(c, a)))),
        law("zero-annihilates", lambda a, b, c: eq(times(a, zero), zero) and eq(times(zero, a), zero)),
        law("reduce-singleton", lambda a, b, c: eq(reduce_bag(s, unit_bag(a)), a)),
        law("reduce-nested", lambda a, b, c: eq(
            reduce_bag(s, join_bag(nested_bag(a, b, c))),
            reduce_bag(s, map_bag(lambda inner: reduce_bag(s, inner), nested_bag(a, b, c))),
        )),
        law("fold-singleton", lambda a, b, c: eq(fold_list(s, unit_list(a)), a)),
        law("fold-nested", lambda a, b, c: eq(
            fold_list(s, join_list(((a, b), (c,)))),
            fold_list(s, (fold_list(s, (a, b)), fold_list(s, (c,)))),
        )),
    ]
    return LawReport(s.name, checks)
