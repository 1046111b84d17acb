"""Exception types shared across the package."""


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
