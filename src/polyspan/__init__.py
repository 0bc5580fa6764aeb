"""Semiring-weighted integral transforms over polynomial spans.

A span wires four indexed carriers (inputs, arguments, messages,
outputs) together with three arrows; running it pulls input rows back
along the first arrow, folds argument fibers into messages, and
reduces message preimages into outputs.  Classic relaxation algorithms
and message-passing network layers are both single transforms over the
right span.
"""

from .algebra import (
    BOOLEAN,
    MAX_PLUS,
    MIN_PLUS,
    REAL,
    SEMIRINGS,
    Bag,
    LawReport,
    Semiring,
    check_laws,
    law_samples,
    values_close,
)
from .algorithms import (
    BELLMAN_FORD_SPEC,
    FLOYD_WARSHALL_SPEC,
    bellman_ford,
    bellman_ford_span,
    bellman_ford_step,
    floyd_warshall,
    floyd_warshall_span,
    floyd_warshall_step,
)
from .carrier import (
    Arrow,
    Carrier,
    Element,
    GraphContext,
    build_arrow,
    element_at,
    eval_arrow,
    parse_carrier,
    preimage,
    rank,
    size,
)
from .errors import (
    ArrowTypeError,
    CarrierMismatchError,
    CarrierSyntaxError,
    InputError,
    MemoryCapError,
    PolyspanError,
    SizeCapError,
    SpanValidationError,
    StrategyError,
)
from .gnn import MLP, LayerConfig, finite_diff_check, mpnn_forward, mpnn_span, v2_forward, v3_forward, v3_span
from .span import (
    DataMap,
    FoldStrategy,
    PolynomialSpan,
    argument_fiber_rows,
    argument_pushforward,
    integral_transform,
    load_span_file,
    message_preimage_bags,
    message_pushforward,
    pullback,
    validate_span,
)

__version__ = "0.1.0"

__all__ = [
    "ArrowTypeError", "Arrow", "BELLMAN_FORD_SPEC", "BOOLEAN", "Bag", "Carrier",
    "CarrierMismatchError", "CarrierSyntaxError", "DataMap", "Element",
    "FLOYD_WARSHALL_SPEC", "FoldStrategy", "GraphContext", "InputError",
    "LawReport", "LayerConfig", "MAX_PLUS", "MIN_PLUS", "MLP", "MemoryCapError",
    "PolynomialSpan", "PolyspanError", "REAL", "SEMIRINGS", "Semiring",
    "SizeCapError", "SpanValidationError", "StrategyError", "argument_fiber_rows",
    "argument_pushforward", "bellman_ford", "bellman_ford_span", "bellman_ford_step",
    "build_arrow", "check_laws", "element_at", "eval_arrow", "finite_diff_check",
    "floyd_warshall", "floyd_warshall_span", "floyd_warshall_step",
    "integral_transform", "law_samples", "load_span_file", "message_preimage_bags",
    "message_pushforward", "mpnn_forward", "mpnn_span", "parse_carrier",
    "preimage", "pullback", "rank", "size", "v2_forward", "v3_forward", "v3_span",
    "validate_span", "values_close",
]
