"""Error types raised by the estimation pipeline, and the integer check
shared by its settings."""
from __future__ import annotations

import numbers
from typing import Optional


def _check_integer(name: str, value, minimum: Optional[int] = None) -> None:
    """Raise ValueError unless ``value`` is an integer (Python or numpy, not
    a bool) and, if ``minimum`` is given, at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name}={value!r} must be an integer")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name}={value} must be >= {minimum}")


class DeflationVarimaxError(Exception):
    """Base class for all errors raised by this package."""


class RankDeficiencyError(DeflationVarimaxError):
    """The requested rank exceeds the numerically observable rank of the data."""


class CorrectionInfeasibleError(DeflationVarimaxError):
    """A noise-corrected eigenvalue is not positive.

    Callers should fall back to the uncorrected pipeline.
    """


class DivergenceError(DeflationVarimaxError):
    """Projected gradient descent produced a non-finite or vanishing iterate,
    or a method-of-moments initializer read a non-finite moment slice."""

    def __init__(self, message: str, iteration: int | None = None,
                 column: int | None = None):
        super().__init__(message)
        self.iteration = iteration
        self.column = column


class DegenerateSolutionsError(DeflationVarimaxError):
    """Stacked rotation columns are numerically rank deficient.

    This signals that two deflation rounds recovered (nearly) the same
    column, so no orthogonal matrix is close to the stacked solutions.
    The deflation re-solves such a round in the orthogonal complement of
    the earlier columns, and raises this error only when the round's
    initializer has no component in that complement.
    """


class NoSignalError(DeflationVarimaxError):
    """All eigenvalues are numerically zero; rank selection is impossible."""


class DegenerateProjectorError(DeflationVarimaxError):
    """The orthogonal complement of the solved columns is numerically empty."""


class DegenerateSlicingError(DeflationVarimaxError):
    """Every random slice produced a zero singular-value gap."""
