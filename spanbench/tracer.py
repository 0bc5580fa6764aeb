"""Outside-in stage trace for the span-engine benchmark.

Only traced runs import this module.  ``Tracer.install`` replaces the
public entry points of ``carrier``, ``span``, ``algorithms`` and
``gnn`` with wrappers that record one span per call (name, start, end,
parent, query id) and count the work each call does; ``uninstall``
puts the originals back.  Spans stay in memory until ``write`` puts
them in a JSON-lines file, and ``per_layer`` derives self times from
that file.

Spans only record inside a root opened by the benchmark (``setup`` or
``query``); anywhere else a wrapper calls straight through.  Carrier
lookups and parses are recorded in queries only, so ``span.build_s``
keeps the index and parse work its builders do at set-up.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import polyspan
from polyspan import algorithms, carrier, gnn, span

_MODULES = (polyspan, carrier, span, algorithms, gnn)
_BUILDERS = ("bellman_ford_span", "floyd_warshall_span", "mpnn_span", "v3_span")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


# The sweep caps that bellman_ford and floyd_warshall stop at when no
# fixpoint comes first; a query that runs that many sweeps hit its cap.
def _bellman_ford_cap(args, kwargs):
    return max(_arg(args, kwargs, 0, "graph").n - 1, 0)


def _floyd_warshall_cap(args, kwargs):
    n = len(_arg(args, kwargs, 0, "d0"))
    return (n - 1).bit_length() + 1 if n >= 1 else 1


class Tracer:
    """Spans and work counts of one traced run, and the patches that
    record them."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent id, query id]
        self.stack = []
        self.phase = None
        self.query_id = None
        self.counts = Counter()
        self.compiles = []  # shape of each span compiled under a root
        self._compiled = {}  # id -> span, kept alive so ids stay unique
        self._shapes = {}
        self._fold_depth = 0
        self._call_sweeps = 0
        self._patches = []

    # --- recording ---------------------------------------------------------

    def _open(self, name):
        self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else None, self.query_id])
        self.stack.append(len(self.spans) - 1)
        rec = self.spans[-1]
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def root(self, phase, query_id=None):
        """Open a root span; wrapped calls inside it record."""
        self.phase, self.query_id = phase, query_id
        rec = self._open(phase)
        try:
            yield
        finally:
            self._close(rec)
            self.phase = self.query_id = None

    def _wrap(self, name, fn, before=None, after=None, queries_only=False):
        def wrapper(*args, **kwargs):
            phase = self.phase
            if phase is None or (queries_only and phase != "query"):
                return fn(*args, **kwargs)
            counting = phase == "query"
            if before and counting:
                before(args, kwargs)
            rec = self._open(name() if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if after and counting:
                after(args, kwargs, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    # --- work counts -------------------------------------------------------

    def _shape(self, sp):
        key = id(sp)
        if key not in self._shapes:
            t = sp.compiled()
            fibers, buckets = t.fibers, t.buckets
            self._shapes[key] = {
                "args": sum(len(f) for f in fibers),
                "messages": len(fibers),
                "outputs": len(buckets),
                "times_per_column": sum(max(len(f) - 1, 0) for f in fibers),
                "plus_per_column": sum(max(len(b) - 1, 0) for b in buckets),
                "fiber_max": max((len(f) for f in fibers), default=0),
                "bucket_max": max((len(b) for b in buckets), default=0),
                "bucket_empty": sum(1 for b in buckets if not b),
            }
        return self._shapes[key]

    def _count(self, key):
        def hook(args, kwargs, result):
            self.counts[key] += 1
        return hook

    def _after_fold(self, args, kwargs, result):
        shape = self._shape(_arg(args, kwargs, 0, "span"))
        if _arg(args, kwargs, 2, "strategy").kind == "semiring":
            self.counts["span.fold.times_ops"] += shape["times_per_column"] * result.width
        else:
            self.counts["span.fold.learned_calls"] += shape["messages"]

    def _after_reduce(self, args, kwargs, result):
        shape = self._shape(_arg(args, kwargs, 0, "span"))
        self.counts["span.reduce.plus_ops"] += shape["plus_per_column"] * result.width

    def _before_driver(self, args, kwargs):
        self._call_sweeps = 0

    def _after_driver(self, cap):
        def hook(args, kwargs, result):
            if self._call_sweeps >= cap(args, kwargs):
                self.counts["algorithms.cap_hits"] += 1
        return hook

    def _after_step(self, args, kwargs, result):
        self._call_sweeps += 1
        self.counts["algorithms.sweeps"] += 1

    def _after_validate(self, args, kwargs, result):
        self.counts["span.datamap.rows"] += len(args[0].rows)

    def _fold_wrapper(self, fn):
        inner = self._wrap("span.argument_pushforward", fn, after=self._after_fold)

        def wrapper(*args, **kwargs):
            self._fold_depth += 1
            try:
                return inner(*args, **kwargs)
            finally:
                self._fold_depth -= 1
        return wrapper

    def _mlp_name(self):
        return "gnn.message_mlp" if self._fold_depth else "gnn.readout_mlp"

    def _after_mlp(self, args, kwargs, result):
        self.counts[self._mlp_name() + "_calls"] += 1

    def _compile_wrapper(self, fn):
        timed = self._wrap("span.compile", fn)

        def wrapper(sp):
            if self.phase is None or id(sp) in self._compiled:
                return fn(sp)
            self._compiled[id(sp)] = sp
            tables = timed(sp)
            self.compiles.append(self._shape(sp))
            return tables
        return wrapper

    # --- installing --------------------------------------------------------

    def _patch_function(self, home, attr, make_wrapper):
        """Replace one function under its name in every module that holds it."""
        original = getattr(home, attr)
        wrapper = make_wrapper(original)
        for module in _MODULES:
            if getattr(module, attr, None) is original:
                self._patches.append((module, attr, original))
                setattr(module, attr, wrapper)

    def _patch_method(self, cls, attr, wrapper):
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self):
        for name, cap in (("bellman_ford", _bellman_ford_cap), ("floyd_warshall", _floyd_warshall_cap)):
            self._patch_function(algorithms, name, lambda fn, cap=cap: self._wrap(
                "algorithms.driver", fn, before=self._before_driver, after=self._after_driver(cap)))
        for name in ("bellman_ford_step", "floyd_warshall_step"):
            self._patch_function(algorithms, name, lambda fn: self._wrap(
                "algorithms.step", fn, after=self._after_step))
        for name in ("mpnn_forward", "v3_forward"):
            self._patch_function(gnn, name, lambda fn: self._wrap("gnn.driver", fn))
        for name in _BUILDERS:
            home = algorithms if hasattr(algorithms, name) else gnn
            self._patch_function(home, name, lambda fn: self._wrap("span.builder", fn))
        self._patch_function(span, "pullback", lambda fn: self._wrap("span.pullback", fn))
        self._patch_function(span, "argument_pushforward", self._fold_wrapper)
        self._patch_function(span, "message_pushforward", lambda fn: self._wrap(
            "span.message_pushforward", fn, after=self._after_reduce))
        self._patch_function(carrier, "carrier_index", lambda fn: self._wrap(
            "carrier.index", fn, after=self._count("carrier.index_calls"), queries_only=True))
        self._patch_function(carrier, "parse_carrier", lambda fn: self._wrap(
            "carrier.parse", fn, after=self._count("carrier.parse_calls"), queries_only=True))
        self._patch_method(span.PolynomialSpan, "compiled",
                           self._compile_wrapper(span.PolynomialSpan.compiled))
        self._patch_method(span.DataMap, "__post_init__", self._wrap(
            "span.datamap_validate", span.DataMap.__post_init__, after=self._after_validate))
        self._patch_method(gnn.MLP, "__call__", self._wrap(
            self._mlp_name, gnn.MLP.__call__, after=self._after_mlp))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path, meta):
        """Write the run's header line, then one line per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({**meta, "counts": dict(self.counts), "compiles": self.compiles}) + "\n")
            for i, (name, start, end, parent, query) in enumerate(self.spans):
                fh.write(json.dumps([i, name, start, end, parent, query]) + "\n")


def cache_counts() -> dict:
    """Hits and misses of the span builders' caches, and the size of the
    carrier-index cache.  A builder without a cache counts nothing."""
    hits = misses = 0
    for name in _BUILDERS:
        for module in (algorithms, gnn):
            info = getattr(getattr(module, name, None), "cache_info", None)
            if info:
                hits += info().hits
                misses += info().misses
    info = getattr(carrier.carrier_index, "cache_info", None)
    return {
        "cache.span.hits": hits,
        "cache.span.misses": misses,
        "cache.carrier_index.currsize": info().currsize if info else 0,
    }


# Per-query self time of each span name, and the metric it feeds.
_QUERY_SELF = {
    "span.pullback": "span.pullback_s",
    "span.argument_pushforward": "span.argument_pushforward_s",
    "span.message_pushforward": "span.message_pushforward_s",
    "span.datamap_validate": "span.datamap_validate_s",
    "span.builder": "span.lookup_s",
    "carrier.index": "carrier.index_s",
    "carrier.parse": "carrier.parse_s",
    "algorithms.driver": "algorithms.driver_s",
    "algorithms.step": "algorithms.driver_s",
    "gnn.message_mlp": "gnn.message_mlp_s",
    "gnn.readout_mlp": "gnn.readout_s",
    "gnn.driver": "gnn.driver_s",
}
_SETUP_SELF = {
    "span.builder": "span.build_s",
    "span.compile": "span.compile_s",
    "setup": "setup.rest_s",
}
_QUERY_COUNTS = (
    "span.datamap.rows", "span.fold.times_ops", "span.fold.learned_calls",
    "span.reduce.plus_ops", "algorithms.sweeps", "gnn.message_mlp_calls",
    "gnn.readout_mlp_calls", "carrier.index_calls", "carrier.parse_calls",
)


def self_times(path) -> tuple[dict, dict]:
    """Read a trace file; return its header and, per (root, span name),
    the summed self time: duration minus the children's durations."""
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        spans = [json.loads(line) for line in fh]
    duration = [end - start for _, _, start, end, _, _ in spans]
    child = [0.0] * len(spans)
    root = [None] * len(spans)
    for i, name, _, _, parent, _ in spans:
        if parent is None:
            root[i] = name
        else:
            child[parent] += duration[i]
            root[i] = root[parent]
    totals = defaultdict(float)
    for i, name, _, _, _, _ in spans:
        totals[(root[i], name)] += duration[i] - child[i]
    return header, dict(totals)


def per_layer(path, queries: int, setups: int) -> dict:
    """Per-layer metrics of one traced run from its trace file: self
    times per query (or per set-up), work counts per query, the shape
    of a compiled span (the mean over the spans a set-up compiles) and
    the arrow evaluations of compiling."""
    header, totals = self_times(path)
    out = {metric: 0.0 for metric in list(_QUERY_SELF.values()) + list(_SETUP_SELF.values())}
    for (root, name), seconds in totals.items():
        if root == "query" and name in _QUERY_SELF:
            out[_QUERY_SELF[name]] += seconds / queries
        elif root == "setup" and name in _SETUP_SELF:
            out[_SETUP_SELF[name]] += seconds / setups
    counts = header["counts"]
    for key in _QUERY_COUNTS:
        out[key] = counts.get(key, 0) / queries
    out["algorithms.cap_hits"] = counts.get("algorithms.cap_hits", 0)
    shapes = header["compiles"]
    spans = len(shapes) or 1
    messages = sum(s["messages"] for s in shapes)
    outputs = sum(s["outputs"] for s in shapes)
    out.update({
        "span.compile.arrow_evals": sum(2 * s["args"] + s["messages"] for s in shapes) / setups,
        "span.args": sum(s["args"] for s in shapes) / spans,
        "span.messages": messages / spans,
        "span.outputs": outputs / spans,
        "span.fiber_size.max": max((s["fiber_max"] for s in shapes), default=0),
        "span.bucket_size.max": max((s["bucket_max"] for s in shapes), default=0),
        "span.bucket_size.mean": messages / outputs if outputs else 0.0,
        "span.bucket.empty": sum(s["bucket_empty"] for s in shapes) / spans,
    })
    return out
