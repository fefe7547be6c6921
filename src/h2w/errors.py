"""Exception types shared across the package."""


class H2WError(Exception):
    """Base class for all package errors."""


class ZeroMass(H2WError):
    """An average was requested over an interval carrying no mass."""


class EndpointCollision(H2WError):
    """A grid endpoint landed on an atom of one of the measures."""


class AtomCollision(H2WError):
    """An untruncated kernel was evaluated at an atom of the measure."""


class InexactPosition(H2WError):
    """An atom position has no exact double-precision mirror."""


class CommonPointMass(H2WError):
    """The two measures share a point mass."""


class AdaptednessViolation(H2WError):
    """A function family violates the required Haar-support constraints."""

    def __init__(self, message: str, offenders=()):
        super().__init__(message)
        self.offenders = tuple(offenders)


class NecessityViolation(H2WError):
    """Computed constants break an inequality the theorem proves, such as
    T <= N; overflowed or NaN constants land here too."""


class PairTooLarge(H2WError):
    """A pair needs an array past the package's memory cap."""


class PreconditionViolation(H2WError):
    """A documented hypothesis of an operation does not hold."""


class ParseError(H2WError):
    """A measure file could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
