"""Exception hierarchy shared across the package.

Everything raised on bad user input derives from PolyspanError so the
command line can map it to a single exit code.
"""


class PolyspanError(Exception):
    """Base class for all errors this package raises on bad input."""


class CarrierSyntaxError(PolyspanError):
    """A carrier or arrow expression failed to parse.

    ``position`` is the character offset of the offending token.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ArrowTypeError(PolyspanError):
    """An arrow expression does not fit its declared domain and codomain."""


class SizeCapError(PolyspanError):
    """A carrier would enumerate more elements than the hard cap allows."""


class CarrierMismatchError(PolyspanError):
    """A data table or element was used with a carrier it does not belong to."""


class SpanValidationError(PolyspanError):
    """A span's arrows do not match its declared carriers; raised when
    the span is constructed."""


class StrategyError(PolyspanError):
    """A fold strategy cannot handle a fiber that actually occurs."""


class InputError(PolyspanError):
    """Malformed input data: graph files, span files, weights, indices."""


class MemoryCapError(PolyspanError):
    """A layer would materialise more values than the configured cap."""
