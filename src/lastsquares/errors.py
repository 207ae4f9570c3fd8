"""Exception types shared across the package.

Each error class carries the exit code that `lastsq` returns when it
reaches the command line: 2 for bad input (usage, parse or range
errors), 3 for a domain violation, and 4 for a bug. The base class says
4, so that a class added without a code of its own is never reported as
bad input.
"""

# The environment variable that overrides the enumeration size guard.
ENV_MAX_CELLS = "LASTSQ_MAX_CELLS"


class LastSquaresError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 4


class _BadInput(LastSquaresError):
    """Input the caller can correct: a usage, parse or range error."""

    exit_code = 2


class ParseError(_BadInput):
    """Input text does not match the expected grammar.

    Attributes:
        message: what is wrong, without the offset.
        offset: byte offset of the first offending character.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.message = message
        self.offset = offset

    def __reduce__(self):
        return type(self), (self.message, self.offset)


class EmptyBoard(_BadInput):
    """An arrangement must cover at least one cell."""


class FirstCellNotBlack(_BadInput):
    """Domino-family boards must start with a black square."""


class LastCellBlack(_BadInput):
    """Square-family boards must not end with a black square."""


class SizeLimitExceeded(_BadInput):
    """Requested enumeration exceeds the configured size guard.

    Attributes:
        cells: board length of the request.
        limit: the size guard it exceeds.
    """

    def __init__(self, cells: int, limit: int):
        super().__init__(
            f"board of {cells} cells exceeds the size guard of {limit}; "
            f"raise it via the {ENV_MAX_CELLS} environment variable"
        )
        self.cells = cells
        self.limit = limit

    def __reduce__(self):
        return type(self), (self.cells, self.limit)


class RangeError(_BadInput, ValueError):
    """Arguments outside the domain of the requested quantity.

    Also raised for an inconsistent combination of arguments. It is a
    ValueError too, so callers that catch ValueError keep working.
    """


class NonIntegralResult(LastSquaresError):
    """An exact rational that must reduce to an integer did not."""


class ParityMismatch(_BadInput):
    """The requested exceptional arrangement requires the other parity of r."""


class NotPlusClass(LastSquaresError):
    """The input lies outside the map's domain: the plus class, or conjugation's domain."""

    exit_code = 3


class InternalInvariantViolation(LastSquaresError):
    """A structural guarantee failed; indicates a bug, not bad input."""
