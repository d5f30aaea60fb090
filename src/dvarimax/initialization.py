"""Initialization schemes for the deflation rounds.

Every scheme reads the scores only through their fourth-moment statistic,
the :class:`~dvarimax.rotation.FourthMoment` that ``estimate_loading``
builds once per fit and shares with the rotation.  Three schemes start
the column solves, each through a provider called with only the prior
columns, and ``InitScheme.READS`` names the settings each one reads:

- ``multi_random``: several standard-normal draws inside the orthogonal
  complement of the previously solved columns, normalized to the sphere,
  keeping the one with the lowest quartic objective value.
- ``random``: ``multi_random`` with one draw.
- ``mom`` (method of moments): random slicings of a fourth-moment matrix.
  For each of N standard-normal r x r matrices G, form

      M(G) = (1/(3 n)) * sum_t U_t U_t^T (U_t^T G U_t)  -  <subtraction>,

  multiply it on both sides by I - Q Q^T, Q the solved columns, and keep
  the slice whose top two singular values have the largest gap.  Its
  leading left singular vector is the initializer.  I - Q Q^T is the
  orthogonal projector onto the complement of the solved columns only
  when they are orthonormal, which unconstrained deflation columns need
  not be (ROADMAP item 5a).  The subtraction is
  linear in G too, so all N slices are one product with an r^2 x r^2 slice
  operator K = T/3 - A, M(G) = reshape(vec(G)^T K), where T is the
  fourth-moment statistic and A the Gaussian term.  :func:`slice_operator`
  forms K once per fit, in :func:`make_init_provider`, and every round's
  :func:`mom_init` reads only K.  The two-sided products are symmetric, so
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
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .exceptions import (DegenerateProjectorError, DegenerateSlicingError, DivergenceError,
                         _check_choice, _check_integer, _real_array)
from .rotation import FourthMoment, _check_prior, complement_basis

__all__ = [
    "InitScheme",
    "SUBTRACTION_MODES",
    "complement_projector",
    "multi_random_init",
    "slice_operator",
    "mom_init",
    "make_init_provider",
]

SUBTRACTION_MODES = ("as_written", "lemma_consistent")


@dataclass(frozen=True)
class InitScheme:
    """Tagged choice of initialization scheme with every setting it takes.

    ``label`` is one of ``LABELS``, and ``READS`` names the settings each
    label reads.  ``draws`` (multi_random) defaults to r^2 and ``slices``
    (mom) to max(16, 4 r^2) when left unset; both resolve against the
    score dimension at run time.  ``subtraction`` (mom) is one of
    ``SUBTRACTION_MODES``.  The random scheme is multi_random with one draw.
    A scheme rejects a setting away from its default that it does not read.
    """

    label: str
    draws: Optional[int] = None
    slices: Optional[int] = None
    subtraction: str = SUBTRACTION_MODES[0]

    READS = {"random": (), "multi_random": ("draws",), "mom": ("slices", "subtraction")}
    LABELS = tuple(READS)

    def __post_init__(self):
        _check_choice("label", self.label, self.LABELS)
        _check_choice("subtraction", self.subtraction, SUBTRACTION_MODES)
        for name in ("draws", "slices"):
            if getattr(self, name) is not None:
                _check_integer(name, getattr(self, name), 1)
        for spec in fields(self)[1:]:
            if (spec.name not in self.READS[self.label]
                    and getattr(self, spec.name) != spec.default):
                reader = next(label for label, read in self.READS.items() if spec.name in read)
                raise ValueError(f"{spec.name} applies only to the {reader} scheme")

    @classmethod
    def random(cls) -> "InitScheme":
        return cls("random")

    @classmethod
    def multi_random(cls, draws: Optional[int] = None) -> "InitScheme":
        return cls("multi_random", draws=draws)

    @classmethod
    def method_of_moments(cls, slices: Optional[int] = None,
                          subtraction: str = SUBTRACTION_MODES[0]) -> "InitScheme":
        return cls("mom", slices=slices, subtraction=subtraction)

    def draws_for(self, r: int) -> int:
        if self.label == "random":
            return 1
        return self.draws if self.draws is not None else r * r

    def slices_for(self, r: int) -> int:
        return self.slices if self.slices is not None else max(16, 4 * r * r)


def complement_projector(prior: np.ndarray) -> np.ndarray:
    """I - sum_i q_i q_i^T over the prior columns (identity for none)."""
    prior = _check_prior(prior)
    return np.eye(prior.shape[0]) - prior @ prior.T


def multi_random_init(stat: FourthMoment, prior: np.ndarray, draws: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Best of ``draws`` random initializers by the quartic objective that
    ``stat`` gives.  Ties break toward the earliest draw.  Each draw is a
    standard-normal vector in the orthonormal complement basis of the prior
    columns (computed once), mapped back and normalized to the sphere.
    """
    _check_integer("draws", draws, 1)
    basis = complement_basis(prior)
    candidates = []
    for _ in range(draws):
        v = basis @ rng.standard_normal(basis.shape[1])
        nrm = np.linalg.norm(v)
        if nrm < 1e-14:
            raise DegenerateProjectorError("random complement draw has zero norm")
        candidates.append(v / nrm)
    values = [stat.objective(c) for c in candidates]
    return candidates[int(np.argmin(values))]


def slice_operator(stat: FourthMoment, subtraction: str = SUBTRACTION_MODES[0]) -> np.ndarray:
    """The r^2 x r^2 operator K = T/3 - A whose product with vec(G) is the
    moment slice for G, M(G) = reshape(vec(G)^T K); linear in G.

    A reads the subtracted term.  A = I + P reads G + G^T, where P swaps
    the two indices of a pair.  In the ``lemma_consistent`` mode A gains
    vec(I) vec(I)^T, which reads tr(G) I, and is divided by 3.  The
    score-based reference is ``mom_matrix`` in ``tests/helpers.py``.
    """
    _check_choice("subtraction", subtraction, SUBTRACTION_MODES)
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
    slice from the fit's :func:`slice_operator` ``operator``, multiplies it
    on both sides by :func:`complement_projector` of the prior columns (a
    projector only for orthonormal priors; see ROADMAP item 5a), and
    returns the leading left singular vector of the slice with the largest
    top-two singular-value gap (ties to the earliest slice).  The returned vector's
    largest-magnitude entry is made positive.

    Only slices that can have the largest gap are eigen-solved.  The
    max(4, n_slices // 64) slices with the largest gap bounds are solved
    first, then every other slice whose bound is at least the best gap so
    far.  Each solved gap is the one a solve of every slice would give,
    bit for bit, so the choice is too.

    Raises
    ------
    DivergenceError
        If a multiplied slice has a NaN or infinite entry.
    DegenerateSlicingError
        If every slice has a gap below 1e-12.
    """
    _check_integer("n_slices", n_slices, 1)
    operator = _real_array("operator", operator, ndim=2)
    r = math.isqrt(operator.shape[0])
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
    if scheme.label != "mom":
        draws = scheme.draws_for(r)
        return lambda prior: multi_random_init(stat, prior, draws, rng)
    operator, n_slices = slice_operator(stat, scheme.subtraction), scheme.slices_for(r)
    return lambda prior: mom_init(operator, prior, n_slices, rng=rng)
