"""Exception types shared across the package."""


class LastSquaresError(Exception):
    """Base class for every error raised by this package."""


class ParseError(LastSquaresError):
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


class EmptyBoard(LastSquaresError):
    """An arrangement must cover at least one cell."""


class FirstCellNotBlack(LastSquaresError):
    """Domino-family boards must start with a black square."""


class LastCellBlack(LastSquaresError):
    """Square-family boards must not end with a black square."""


class SizeLimitExceeded(LastSquaresError):
    """Requested enumeration exceeds the configured size guard.

    Attributes:
        cells: board length of the request.
        limit: the size guard it exceeds.
    """

    def __init__(self, cells: int, limit: int, remedy: str):
        super().__init__(
            f"board of {cells} cells exceeds the size guard of {limit}; raise it via {remedy}"
        )
        self.cells = cells
        self.limit = limit
        self.remedy = remedy

    def __reduce__(self):
        return type(self), (self.cells, self.limit, self.remedy)


class RangeError(LastSquaresError, ValueError):
    """Arguments outside the domain of the requested quantity.

    Also raised for an inconsistent combination of arguments. It is a
    ValueError too, so callers that catch ValueError keep working.
    """


class NonIntegralResult(LastSquaresError):
    """An exact rational that must reduce to an integer did not."""


class ParityMismatch(LastSquaresError):
    """The requested exceptional arrangement requires the other parity of r."""


class NotPlusClass(LastSquaresError):
    """The input lies outside the map's domain: the plus class, or conjugation's domain."""


class InternalInvariantViolation(LastSquaresError):
    """A structural guarantee failed; indicates a bug, not bad input."""
