"""Initialization schemes for the deflation rounds.

Every scheme reads the scores only through their fourth-moment statistic,
the :class:`~dvarimax.rotation.FourthMoment` that ``estimate_loading``
builds once per fit and shares with the rotation.  Three providers are
available for starting each column solve:

- ``random``: a standard-normal draw inside the orthogonal complement of
  the previously solved columns, normalized to the sphere.
- ``multi_random``: several such draws, keeping the one with the lowest
  quartic objective value.
- ``mom`` (method of moments): random slicings of a fourth-moment matrix.
  For each of N standard-normal r x r matrices G, form

      M(G) = (1/(3 n)) * sum_t U_t U_t^T (U_t^T G U_t)  -  <subtraction>,

  project it onto the complement of the solved columns on both sides,
  and keep the slice whose top two singular values have the largest gap.
  Its leading left singular vector is the initializer.  All N slices are
  read from the fourth-moment statistic T of the scores at once, as
  (1/3) reshape(T vec(G)) minus the subtraction.  The projected slices are
  symmetric, so the gaps come from one batched eigenvalue solve (singular
  values are absolute eigenvalues); only the chosen slice gets a full SVD.

Two subtraction modes, ``InitScheme.subtraction``, are supported for the
moment matrix.  The default ``as_written`` subtracts G + G^T.  The
alternative ``lemma_consistent`` subtracts exactly what the fourth-moment
expectation identity for whitened scores prescribes, (1/3) tr(G) I +
(1/3)(G + G^T); the modes differ by a symmetric residual.  Given a score
covariance estimate ``sigma_u`` S_U = I + sigma_n_hat, which the
``mom_improved`` scheme passes, ``mom_init`` subtracts the noise-corrected
S_U (G + G^T) S_U + tr(G S_U) S_U instead (1/3 of it if lemma_consistent).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import DegenerateProjectorError, DegenerateSlicingError, _check_integer
from .rotation import FourthMoment, _check_prior, complement_basis

__all__ = [
    "InitScheme",
    "SUBTRACTION_MODES",
    "complement_projector",
    "random_init",
    "multi_random_init",
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
    r^2 and ``slices`` (mom, mom_improved) to max(16, 4 r^2) when left
    unset; both resolve against the score dimension at run time.
    ``subtraction`` (mom, mom_improved) is one of ``SUBTRACTION_MODES``.
    A scheme rejects a non-default setting that it does not use.
    """

    label: str
    draws: Optional[int] = None
    slices: Optional[int] = None
    subtraction: str = "as_written"

    LABELS = ("random", "multi_random", "mom", "mom_improved")

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
        if not self.label.startswith("mom") and (
                self.slices is not None or self.subtraction != "as_written"):
            raise ValueError("slices and subtraction apply only to the mom schemes")

    @classmethod
    def random(cls) -> "InitScheme":
        return cls("random")

    @classmethod
    def multi_random(cls, draws: Optional[int] = None) -> "InitScheme":
        return cls("multi_random", draws=draws)

    @classmethod
    def method_of_moments(cls, slices: Optional[int] = None, improved: bool = False,
                          subtraction: str = "as_written") -> "InitScheme":
        return cls("mom_improved" if improved else "mom", slices=slices,
                   subtraction=subtraction)

    @classmethod
    def from_label(cls, label: str, draws: Optional[int] = None,
                   slices: Optional[int] = None,
                   subtraction: str = "as_written") -> "InitScheme":
        """The scheme ``label`` with only the settings it uses."""
        if label == "multi_random":
            return cls.multi_random(draws)
        if label in ("mom", "mom_improved"):
            return cls(label, slices=slices, subtraction=subtraction)
        return cls(label)

    @property
    def improved(self) -> bool:
        """Whether the moment slices subtract the noise-corrected term."""
        return self.label == "mom_improved"

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
    basis = complement_basis(prior)
    g = rng.standard_normal(basis.shape[1])
    v = basis @ g
    nrm = np.linalg.norm(v)
    if nrm < 1e-14:
        raise DegenerateProjectorError("random complement draw has zero norm")
    return v / nrm


def multi_random_init(stat: FourthMoment, prior: np.ndarray, draws: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Best of ``draws`` random initializers by the quartic objective that
    ``stat`` gives.  Ties break toward the earliest draw.
    """
    _check_integer("draws", draws, 1)
    candidates = [random_init(prior, rng) for _ in range(draws)]
    values = [stat.objective(c) for c in candidates]
    return candidates[int(np.argmin(values))]


def _subtracted(g: np.ndarray, sigma_u: Optional[np.ndarray],
                subtraction: str) -> np.ndarray:
    """The term a moment slice subtracts, for one G or a stack (..., r, r);
    the noise-corrected term exactly when ``sigma_u`` is given."""
    _check_subtraction(subtraction)
    r = g.shape[-1]
    sym = g + np.swapaxes(g, -1, -2)
    if sigma_u is None:
        if subtraction == "as_written":
            return sym
        trace = np.trace(g, axis1=-2, axis2=-1)[..., None, None]
        return (trace * np.eye(r) + sym) / 3.0
    sigma_u = np.asarray(sigma_u, dtype=float)
    if sigma_u.shape != (r, r):
        raise ValueError(f"sigma_u must be {r} x {r}")
    trace = np.einsum("...ij,ji->...", g, sigma_u)[..., None, None]
    term = sigma_u @ sym @ sigma_u + trace * sigma_u
    return term if subtraction == "as_written" else term / 3.0


def _mom_slices(stat: FourthMoment, g: np.ndarray, sigma_u: Optional[np.ndarray],
                subtraction: str) -> np.ndarray:
    """Moment slices M(G) for a stack (..., r, r), read from the statistic
    as (1/3) reshape(T vec(G)) - <subtraction>; linear in G.  The
    score-based reference is ``mom_matrix`` in ``tests/helpers.py``."""
    return stat.contract(g) / 3.0 - _subtracted(g, sigma_u, subtraction)


def mom_init(stat: FourthMoment, prior: np.ndarray, n_slices: int,
             sigma_u: Optional[np.ndarray] = None, *, rng: np.random.Generator,
             subtraction: str = "as_written") -> np.ndarray:
    """Method-of-moments initializer via multiple random slicings.

    Draws ``n_slices`` standard-normal r x r matrices (one
    (n_slices, r, r) draw, the same stream as n_slices separate ones),
    reads each moment slice from ``stat``, projects it onto the
    complement of the prior columns on both sides, and returns the leading
    left singular vector of the slice with the largest top-two
    singular-value gap (ties to the earliest slice).  The returned
    vector's largest-magnitude entry is made positive.

    Raises
    ------
    DegenerateSlicingError
        If every slice has a gap below 1e-12.
    """
    _check_integer("n_slices", n_slices, 1)
    r = stat.r
    if r == 1:
        return np.ones(1)
    proj = complement_projector(prior)

    g = rng.standard_normal((n_slices, r, r))
    m = proj @ _mom_slices(stat, g, sigma_u, subtraction) @ proj
    singulars = np.sort(np.abs(np.linalg.eigvalsh(m)), axis=1)
    gaps = singulars[:, -1] - singulars[:, -2]
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
                       rng: np.random.Generator, *,
                       sigma_u: Optional[np.ndarray] = None):
    """Build the ``(k, prior) -> q0`` callable used by the deflation loop.

    Every round reads the statistic ``stat``.  ``sigma_u``, the score
    covariance estimate, is given exactly for the ``mom_improved`` scheme.
    The provider consumes ``rng`` sequentially across rounds, so a fixed
    seed fixes the whole initialization sequence.
    """
    if scheme.improved != (sigma_u is not None):
        raise ValueError("a score covariance estimate sigma_u is given exactly "
                         "for the mom_improved init scheme")
    r = stat.r
    if scheme.label == "random":
        return lambda k, prior: random_init(prior, rng)
    if scheme.label == "multi_random":
        draws = scheme.draws_for(r)
        return lambda k, prior: multi_random_init(stat, prior, draws, rng)
    n_slices = scheme.slices_for(r)
    return lambda k, prior: mom_init(stat, prior, n_slices, sigma_u, rng=rng,
                                     subtraction=scheme.subtraction)
