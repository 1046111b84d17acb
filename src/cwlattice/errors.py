"""Exception types shared across the package, and the int check that
raises one of the standard ones."""


def require_int(value: int, name: str = "n") -> None:
    """Raise TypeError unless value is an int; name is what the message calls it."""
    if not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {value!r}")


class DomainError(ValueError):
    """A quantity was requested outside the range where it is defined."""


class ArityMismatchError(ValueError):
    """A lattice point has the wrong number of coordinates for the target set."""


class GraphTooLargeError(ValueError):
    """The graph exceeds the exhaustive-search edge cap."""


class EdgeListParseError(ValueError):
    """An edge-list text could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class InternalInconsistencyError(RuntimeError):
    """A cross-check that should be impossible to fail has failed.

    Raised when a closed-form division is inexact, though the count it
    computes is an integer by construction.  Indicates a bug, never bad
    input.
    """
