"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "FairRankingError",
    "InfeasibleConstraints",
    "InstanceTooLarge",
    "IterationCapExceeded",
    "ParseError",
    "DuplicateId",
]


class FairRankingError(Exception):
    """Base class for all errors raised by this package."""


class InfeasibleConstraints(FairRankingError):
    """No ranking of the instance satisfies the given prefix bounds."""


class InstanceTooLarge(FairRankingError):
    """An exact enumeration routine was asked to exceed its size guard."""


class IterationCapExceeded(FairRankingError):
    """The solver stalled before certifying its accuracy: it reached its
    oracle-call cap or stopped making progress."""


class ParseError(FairRankingError):
    """Malformed input data.

    ``row`` is the 1-based physical line on which the offending record ends,
    when known (the header is line 1; a quoted line break inside a record
    counts as a line).
    """

    def __init__(self, message: str, row: int | None = None):
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)
        self.row = row


class DuplicateId(ParseError):
    """Two input records share the same individual id."""
