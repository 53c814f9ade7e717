"""Exception types shared across the package."""

__all__ = [
    "HeawoodError",
    "GraphFormatError",
    "InvalidGraphError",
    "FaceTraversalError",
    "NotBipartiteError",
    "NotAHeawoodVectorError",
    "ImproperColoringError",
    "ContractionError",
    "EnumerationLimitError",
    "SubsetSearchLimitError",
]


class HeawoodError(Exception):
    """Base class for all domain errors raised by this package."""


class GraphFormatError(HeawoodError):
    """Malformed graph text input."""


class InvalidGraphError(HeawoodError):
    """An operation was given a graph that fails validation."""


class FaceTraversalError(HeawoodError):
    """Face tracing hit a malformed rotation system."""


class NotBipartiteError(HeawoodError):
    """A bipartite-only construction was applied to a non-bipartite graph."""


class NotAHeawoodVectorError(HeawoodError):
    """Spin propagation proved the given spins violate some face equation."""


class ImproperColoringError(HeawoodError):
    """An edge coloring repeats a color at some vertex."""


class ContractionError(HeawoodError):
    """A face contraction is undefined or would break simplicity."""


class EnumerationLimitError(HeawoodError):
    """Raised instead of silently truncating an enumeration."""


class SubsetSearchLimitError(HeawoodError):
    """A subset search was asked for a graph above the supported size."""
