"""Error types, one per cause of a fit that cannot go on; the integer,
real-number, boolean, choice and type checks shared by the settings, which
raise ValueError; and the real-array cast shared by the array arguments."""
from __future__ import annotations

import numbers
from typing import Optional

import numpy as np


def _check_integer(name: str, value, minimum: Optional[int] = None,
                   maximum: Optional[int] = None) -> None:
    """Raise ValueError unless ``value`` is an integer (Python or numpy, not
    a bool) and at least ``minimum`` and at most ``maximum`` where given."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name}={value!r} must be an integer")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name}={value} must be >= {minimum}")
    if maximum is not None and value > maximum:
        raise ValueError(f"{name}={value} must be <= {maximum}")


def _check_real(name: str, value, low: float, high: float, *,
                low_closed: bool = False, high_closed: bool = False) -> None:
    """Raise ValueError unless ``value`` is a real number (Python or numpy,
    not a bool) inside the interval from ``low`` to ``high``, open at each
    end unless that end is marked closed.  NaN lies in no interval."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not ((low <= value if low_closed else low < value)
            and (value <= high if high_closed else value < high)):
        interval = (f"{'[' if low_closed else '('}{low:g}, "
                    f"{high:g}{']' if high_closed else ')'}")
        raise ValueError(f"{name} must lie in {interval}")


def _check_bool(name: str, value) -> None:
    """Raise ValueError unless ``value`` is a bool (Python or numpy); a
    truthy string, integer or None would silently pick a behaviour."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a bool, got {value!r}")


def _check_choice(name: str, value, choices: tuple) -> None:
    """Raise ValueError unless ``value`` is a str equal to one of ``choices``."""
    if not isinstance(value, str) or value not in choices:
        raise ValueError(f"{name} must be one of {', '.join(choices)}, got {value!r}")


def _check_type(name: str, value, cls: type) -> None:
    """Raise ValueError unless ``value`` is an instance of ``cls``."""
    if not isinstance(value, cls):
        raise ValueError(f"{name} must be of type {cls.__name__}, got {value!r}")


def _real_array(name: str, value, ndim: Optional[int] = None, *,
                finite: bool = False) -> np.ndarray:
    """``value`` as a float array; ValueError naming the dtype if it is
    complex, which a cast to float would cut to its real part, naming the
    shape if it does not have ``ndim`` dimensions where given, or saying
    it holds NaN or Inf where ``finite`` asks."""
    array = np.asarray(value)
    if np.iscomplexobj(array):
        raise ValueError(f"{name} must be real, got dtype {array.dtype}")
    if ndim is not None and array.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-D, got shape {array.shape}")
    array = np.asarray(array, dtype=float)
    if finite and not np.isfinite(array).all():
        raise ValueError(f"{name} contains NaN or Inf entries")
    return array


class DeflationVarimaxError(Exception):
    """Base class of the errors for a fit that cannot go on, one cause per
    subclass.  Bad input raises ValueError instead, before any solve."""


class RankDeficiencyError(DeflationVarimaxError):
    """The requested rank exceeds the numerical rank of the data (0 for a zero spectrum)."""


class CorrectionInfeasibleError(DeflationVarimaxError):
    """The noise correction cannot be formed: p <= r, or a corrected
    eigenvalue falls at or below the eigenvalue floor.

    ``corrected_decomposition`` raises it; ``estimate_loading`` catches it
    and runs ``base``, recording the fallback in the estimate's
    ``fallback`` and ``effective_variant``.
    """


class DivergenceError(DeflationVarimaxError):
    """Projected gradient descent produced a non-finite gradient or iterate,
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


class DegenerateSlicingError(DeflationVarimaxError):
    """Every random slice produced a zero singular-value gap."""
