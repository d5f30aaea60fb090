"""Initialization schemes for the deflation rounds.

Every scheme reads the scores only through their fourth-moment statistic,
the :class:`~dvarimax.rotation.FourthMoment` that ``estimate_loading``
builds once per fit and shares with the rotation.  Three providers start
the column solves, each called with only the prior columns:

- ``random``: a standard-normal draw inside the orthogonal complement of
  the previously solved columns, normalized to the sphere.
- ``multi_random``: several such draws, keeping the one with the lowest
  quartic objective value.
- ``mom`` (method of moments): random slicings of a fourth-moment matrix.
  For each of N standard-normal r x r matrices G, form

      M(G) = (1/(3 n)) * sum_t U_t U_t^T (U_t^T G U_t)  -  <subtraction>,

  project it onto the complement of the solved columns on both sides,
  and keep the slice whose top two singular values have the largest gap.
  Its leading left singular vector is the initializer.  The subtraction is
  linear in G too, so all N slices are one product with an r^2 x r^2 slice
  operator K = T/3 - A, M(G) = reshape(vec(G)^T K), where T is the
  fourth-moment statistic and A the Gaussian term.  :func:`slice_operator`
  forms K once per fit, in :func:`make_init_provider`, and every round's
  :func:`mom_init` reads only K.  The projected slices are symmetric, so
  their gaps come from batched eigenvalue solves (singular values are
  absolute eigenvalues), and only the chosen slice gets a full SVD.  Most
  slices are never solved: two batched products give each slice a proven
  upper bound on its gap (see ``_gap_bounds``).  A first pass solves the
  slices with the largest bounds, a second pass only those whose bound
  reaches the best gap found, and no slice left out can have the largest
  gap, so the choice is that of solving every slice.

Two subtraction modes, ``InitScheme.subtraction``, are supported for the
moment matrix.  The default ``as_written`` subtracts G + G^T.  The
alternative ``lemma_consistent`` subtracts exactly what the fourth-moment
expectation identity for whitened scores prescribes, (1/3) tr(G) I +
(1/3)(G + G^T); the modes differ by a symmetric residual.  So in the
``lemma_consistent`` mode K is a third of T minus the standard Gaussian
fourth moment.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import (DegenerateProjectorError, DegenerateSlicingError, DivergenceError,
                         _check_integer)
from .rotation import FourthMoment, _check_prior, complement_basis

__all__ = [
    "InitScheme",
    "SUBTRACTION_MODES",
    "complement_projector",
    "random_init",
    "multi_random_init",
    "slice_operator",
    "mom_init",
    "make_init_provider",
]

SUBTRACTION_MODES = ("as_written", "lemma_consistent")


def _check_subtraction(subtraction: str) -> None:
    if subtraction not in SUBTRACTION_MODES:
        raise ValueError(f"unknown subtraction mode: {subtraction!r}")


@dataclass(frozen=True)
class InitScheme:
    """Tagged choice of initialization scheme with every setting it takes.

    ``label`` is one of ``LABELS``.  ``draws`` (multi_random) defaults to
    r^2 and ``slices`` (mom) to max(16, 4 r^2) when left unset; both
    resolve against the score dimension at run time.  ``subtraction``
    (mom) is one of ``SUBTRACTION_MODES``.
    A scheme rejects a non-default setting that it does not use.
    """

    label: str
    draws: Optional[int] = None
    slices: Optional[int] = None
    subtraction: str = "as_written"

    LABELS = ("random", "multi_random", "mom")

    def __post_init__(self):
        if self.label not in self.LABELS:
            raise ValueError(f"unknown init scheme: {self.label!r}")
        _check_subtraction(self.subtraction)
        if self.draws is not None:
            _check_integer("draws", self.draws, 1)
            if self.label != "multi_random":
                raise ValueError("draws applies only to the multi_random scheme")
        if self.slices is not None:
            _check_integer("slices", self.slices, 1)
        if self.label != "mom" and (self.slices is not None or self.subtraction != "as_written"):
            raise ValueError("slices and subtraction apply only to the mom scheme")

    @classmethod
    def random(cls) -> "InitScheme":
        return cls("random")

    @classmethod
    def multi_random(cls, draws: Optional[int] = None) -> "InitScheme":
        return cls("multi_random", draws=draws)

    @classmethod
    def method_of_moments(cls, slices: Optional[int] = None,
                          subtraction: str = "as_written") -> "InitScheme":
        return cls("mom", slices=slices, subtraction=subtraction)

    @classmethod
    def from_label(cls, label: str, draws: Optional[int] = None,
                   slices: Optional[int] = None,
                   subtraction: str = "as_written") -> "InitScheme":
        """The scheme ``label`` with only the settings it uses."""
        if label == "multi_random":
            return cls.multi_random(draws)
        if label == "mom":
            return cls.method_of_moments(slices, subtraction)
        return cls(label)

    def draws_for(self, r: int) -> int:
        return self.draws if self.draws is not None else r * r

    def slices_for(self, r: int) -> int:
        return self.slices if self.slices is not None else max(16, 4 * r * r)


def complement_projector(prior: np.ndarray) -> np.ndarray:
    """I - sum_i q_i q_i^T over the prior columns (identity for none)."""
    prior = _check_prior(prior)
    return np.eye(prior.shape[0]) - prior @ prior.T


def random_init(prior: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Normalized standard-normal draw inside the complement of the priors."""
    return _draw_in(complement_basis(prior), rng)


def _draw_in(basis: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Normalized standard-normal draw in the span of the orthonormal columns
    of ``basis``."""
    g = rng.standard_normal(basis.shape[1])
    v = basis @ g
    nrm = np.linalg.norm(v)
    if nrm < 1e-14:
        raise DegenerateProjectorError("random complement draw has zero norm")
    return v / nrm


def multi_random_init(stat: FourthMoment, prior: np.ndarray, draws: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Best of ``draws`` random initializers by the quartic objective that
    ``stat`` gives.  Ties break toward the earliest draw.  The draws are
    those of ``draws`` successive :func:`random_init` calls, from one
    complement basis.
    """
    _check_integer("draws", draws, 1)
    basis = complement_basis(prior)
    candidates = [_draw_in(basis, rng) for _ in range(draws)]
    values = [stat.objective(c) for c in candidates]
    return candidates[int(np.argmin(values))]


def slice_operator(stat: FourthMoment, subtraction: str = "as_written") -> np.ndarray:
    """The r^2 x r^2 operator K = T/3 - A whose product with vec(G) is the
    moment slice for G, M(G) = reshape(vec(G)^T K); linear in G.

    A reads the subtracted term.  A = I + P reads G + G^T, where P swaps
    the two indices of a pair.  In the ``lemma_consistent`` mode A gains
    vec(I) vec(I)^T, which reads tr(G) I, and is divided by 3.  The
    score-based reference is ``mom_matrix`` in ``tests/helpers.py``.
    """
    _check_subtraction(subtraction)
    r = stat.r
    eye = np.eye(r)
    # a[i, j, k, l] = I_ki I_jl reads G, its pair-swapped copy G^T
    a = eye[:, None, :, None] * eye[None, :, None, :]
    a = (a + a.transpose(1, 0, 2, 3)).reshape(r * r, r * r)
    if subtraction == "lemma_consistent":
        a += np.outer(eye, eye)
        a /= 3.0
    return stat.matrix / 3.0 - a


# Relative slack on each gap bound.  It covers the rounding of the bound's
# own products and sums and of eigvalsh's eigenvalues, both a small multiple
# of r^3 * eps relative to the slice's top singular value.
_BOUND_SLACK = 1e-8


def _gaps(low: np.ndarray) -> np.ndarray:
    """Top-two singular-value gaps of a stack (S, r, r) of symmetric slices,
    of which eigvalsh reads only the lower triangles."""
    singulars = np.sort(np.abs(np.linalg.eigvalsh(low)), axis=1)
    return singulars[:, -1] - singulars[:, -2]


def _gap_bounds(low: np.ndarray) -> np.ndarray:
    """An upper bound on each computed gap of :func:`_gaps` for a stack of
    exactly symmetric r x r slices L, r >= 2.

    With t_k = tr(L^k), the top singular value s_1 is at most
    b = t_8^(1/8) = |L^4|_F^(1/4).  The other r - 1 squared singular values
    sum to t_2 - s_1^2, so s_2 >= sqrt((t_2 - s_1^2) / (r - 1)).  That makes
    the gap s_1 - s_2 at most b - sqrt((t_2 - b^2) / (r - 1)), as the
    right-hand side increases with s_1.  b is inflated and t_2 deflated by
    ``_BOUND_SLACK``.  A slice that overflows gets an infinite or NaN bound.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        l2 = low @ low
        l4 = l2 @ l2
        top = np.einsum("sij,sij->s", l4, l4) ** 0.125 * (1 + _BOUND_SLACK)
        rest = np.trace(l2, axis1=1, axis2=2) * (1 - _BOUND_SLACK) - top * top
        return top - np.sqrt(np.maximum(rest, 0.0) / (low.shape[-1] - 1))


def mom_init(operator: np.ndarray, prior: np.ndarray, n_slices: int, *,
             rng: np.random.Generator) -> np.ndarray:
    """Method-of-moments initializer via multiple random slicings.

    Draws ``n_slices`` standard-normal r x r matrices (one (n_slices, r, r)
    draw, the same stream as n_slices separate ones), reads each moment
    slice from the fit's :func:`slice_operator` ``operator``, projects it
    onto the complement of the prior columns on both sides, and returns the
    leading left singular vector of the slice with the largest top-two
    singular-value gap (ties to the earliest slice).  The returned vector's
    largest-magnitude entry is made positive.

    Only slices that can have the largest gap are eigen-solved.  The
    max(4, n_slices // 64) slices with the largest gap bounds are solved
    first, then every other slice whose bound is at least the best gap so
    far.  Each solved gap is the one a solve of every slice would give,
    bit for bit, so the choice is too.

    Raises
    ------
    DivergenceError
        If a projected slice has a NaN or infinite entry.
    DegenerateSlicingError
        If every slice has a gap below 1e-12.
    """
    _check_integer("n_slices", n_slices, 1)
    operator = np.asarray(operator, dtype=float)
    r = math.isqrt(operator.shape[0]) if operator.ndim == 2 else 0
    if r < 1 or operator.shape != (r * r, r * r):
        raise ValueError(f"operator must be r^2 x r^2 for an r >= 1, got shape {operator.shape}")
    proj = complement_projector(prior)
    if proj.shape[0] != r:
        raise ValueError(f"prior must have {r} rows, got {proj.shape[0]}")
    if r == 1:
        return np.ones(1)

    g = rng.standard_normal((n_slices, r, r))
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        slices = g.reshape(n_slices, r * r) @ operator
        m = proj @ slices.reshape(g.shape) @ proj
    if not np.isfinite(m).all():
        bad = np.flatnonzero(~np.isfinite(m).all(axis=(1, 2)))
        raise DivergenceError(
            f"{bad.size} of {n_slices} moment slices are not finite, at indices "
            f"{', '.join(map(str, bad[:5]))}{', ...' if bad.size > 5 else ''}")
    # m need not be exactly symmetric, and eigvalsh reads only its lower
    # triangle, so the bounds are taken on that triangle mirrored.
    idx = np.arange(r)
    low = np.where(idx[:, None] >= idx, m, np.swapaxes(m, 1, 2))
    bounds = _gap_bounds(low)
    # NaN bounds partition as the largest, and "not below" keeps them.
    k = min(max(4, n_slices // 64), n_slices)
    first = np.argpartition(bounds, -k)[-k:]
    gaps = np.full(n_slices, -np.inf)
    gaps[first] = _gaps(low[first])
    todo = ~(bounds < gaps.max())
    todo[first] = False
    rest = np.flatnonzero(todo)
    if rest.size:
        gaps[rest] = _gaps(low[rest])
    if np.max(gaps) < 1e-12:
        raise DegenerateSlicingError(
            "every random slice has a zero singular-value gap")
    # The same LAPACK call on the same matrix as a batched SVD would make,
    # so the vector is the one the batched SVD returns, bit for bit.
    best = np.linalg.svd(m[int(np.argmax(gaps))])[0][:, 0]
    if best[np.argmax(np.abs(best))] < 0:
        best = -best
    return best


def make_init_provider(scheme: InitScheme, stat: FourthMoment,
                       rng: np.random.Generator):
    """Build the ``prior -> q0`` callable used by the deflation loop.

    Every round reads ``stat``, the ``mom`` scheme through its
    :func:`slice_operator`, formed here once per fit.  A fixed ``rng``,
    consumed in sequence across rounds, fixes every start.
    """
    r = stat.r
    if scheme.label == "random":
        return lambda prior: random_init(prior, rng)
    if scheme.label == "multi_random":
        draws = scheme.draws_for(r)
        return lambda prior: multi_random_init(stat, prior, draws, rng)
    operator, n_slices = slice_operator(stat, scheme.subtraction), scheme.slices_for(r)
    return lambda prior: mom_init(operator, prior, n_slices, rng=rng)
