"""Initialization schemes for the deflation rounds.

Three providers are available for starting each column solve:

- ``random``: a standard-normal draw inside the orthogonal complement of
  the previously solved columns, normalized to the sphere.
- ``multi_random``: several such draws, keeping the one with the lowest
  quartic objective value.
- ``mom`` (method of moments): random slicings of a fourth-moment matrix.
  For each of N standard-normal r x r matrices G, form

      M(G) = (1/(3 n)) * sum_t U_t U_t^T (U_t^T G U_t)  -  <subtraction>,

  project it onto the complement of the solved columns on both sides,
  and keep the slice whose top two singular values have the largest gap.
  Its leading left singular vector is the initializer.

Two subtraction modes are supported for the moment matrix.  The default
``as_written`` subtracts G + G^T (improved form: with the score covariance
estimate S_U = I + sigma_n_hat on both sides plus a trace term).  The
alternative ``lemma_consistent`` subtracts exactly what the fourth-moment
expectation identity for whitened scores prescribes, namely
(1/3) tr(G) I + (1/3)(G + G^T) (and its S_U-weighted analogue); the two
modes differ by a symmetric residual and tests report both.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import DegenerateProjectorError, DegenerateSlicingError
from .rotation import objective

__all__ = [
    "InitScheme",
    "SUBTRACTION_MODES",
    "complement_projector",
    "complement_basis",
    "random_init",
    "multi_random_init",
    "mom_matrix",
    "mom_init",
    "make_init_provider",
]

SUBTRACTION_MODES = ("as_written", "lemma_consistent")

_UNIT_TOL = 1e-8


@dataclass(frozen=True)
class InitScheme:
    """Tagged choice of initialization scheme.

    ``draws`` (multi_random) defaults to r^2 and ``slices`` (mom) to
    max(16, 4 r^2) when left unset; both resolve against the score
    dimension at run time.
    """

    kind: str
    draws: Optional[int] = None
    slices: Optional[int] = None
    improved: bool = False

    _KINDS = ("random", "multi_random", "mom")
    LABELS = _KINDS + ("mom_improved",)

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown init scheme: {self.kind!r}")
        if self.draws is not None and self.draws < 1:
            raise ValueError("draws must be >= 1")
        if self.slices is not None and self.slices < 1:
            raise ValueError("slices must be >= 1")
        if self.improved and self.kind != "mom":
            raise ValueError("improved applies only to the mom scheme")

    @classmethod
    def random(cls) -> "InitScheme":
        return cls("random")

    @classmethod
    def multi_random(cls, draws: Optional[int] = None) -> "InitScheme":
        return cls("multi_random", draws=draws)

    @classmethod
    def method_of_moments(cls, slices: Optional[int] = None,
                          improved: bool = False) -> "InitScheme":
        return cls("mom", slices=slices, improved=improved)

    @classmethod
    def from_label(cls, label: str, draws: Optional[int] = None,
                   slices: Optional[int] = None) -> "InitScheme":
        """Inverse of :attr:`label`; each scheme keeps the setting it uses."""
        if label == "multi_random":
            return cls.multi_random(draws)
        if label in ("mom", "mom_improved"):
            return cls.method_of_moments(slices, label == "mom_improved")
        return cls(label)

    @property
    def label(self) -> str:
        """Short name used in experiment records and CSV output."""
        if self.kind == "mom" and self.improved:
            return "mom_improved"
        return self.kind

    def draws_for(self, r: int) -> int:
        return self.draws if self.draws is not None else r * r

    def slices_for(self, r: int) -> int:
        return self.slices if self.slices is not None else max(16, 4 * r * r)


def _check_prior(prior: np.ndarray) -> np.ndarray:
    prior = np.asarray(prior, dtype=float)
    if prior.ndim != 2:
        raise ValueError("prior columns must form a 2-D r x k array")
    if prior.shape[1]:
        norms = np.linalg.norm(prior, axis=0)
        if np.max(np.abs(norms - 1.0)) > _UNIT_TOL:
            raise ValueError("prior columns must be unit-norm")
    return prior


def complement_projector(prior: np.ndarray) -> np.ndarray:
    """I - sum_i q_i q_i^T over the prior columns (identity for none)."""
    prior = _check_prior(prior)
    return np.eye(prior.shape[0]) - prior @ prior.T


def complement_basis(prior: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the prior columns.

    Computed from the trailing left singular vectors of the prior block,
    which is exact for orthonormal priors and stable when they are only
    nearly so.  Returns r x (r - k).
    """
    prior = _check_prior(prior)
    r, k = prior.shape
    if k >= r:
        raise DegenerateProjectorError(
            f"{k} prior columns leave no complement in dimension {r}")
    if k == 0:
        return np.eye(r)
    left, _, _ = np.linalg.svd(prior, full_matrices=True)
    return left[:, k:]


def random_init(prior: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Normalized standard-normal draw inside the complement of the priors."""
    basis = complement_basis(prior)
    g = rng.standard_normal(basis.shape[1])
    v = basis @ g
    nrm = np.linalg.norm(v)
    if nrm < 1e-14:
        raise DegenerateProjectorError("random complement draw has zero norm")
    return v / nrm


def multi_random_init(u: np.ndarray, prior: np.ndarray, draws: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Best of ``draws`` random initializers by quartic objective value.

    Ties break toward the earliest draw.
    """
    if draws < 1:
        raise ValueError("draws must be >= 1")
    candidates = [random_init(prior, rng) for _ in range(draws)]
    values = [objective(c, u) for c in candidates]
    return candidates[int(np.argmin(values))]


def mom_matrix(u: np.ndarray, g: np.ndarray, improved: bool = False,
               sigma_u: Optional[np.ndarray] = None,
               subtraction: str = "as_written") -> np.ndarray:
    """Fourth-moment slice (1/(3n)) sum_t U_t U_t^T (U_t^T G U_t) - <subtraction>.

    Plain form subtracts G + G^T; the improved form needs ``sigma_u``
    (the score covariance estimate I + sigma_n_hat) and subtracts
    S_U (G + G^T) S_U + tr(G S_U) S_U.  With ``subtraction =
    "lemma_consistent"`` both subtracted terms carry a factor 1/3 and the
    plain form gains a (1/3) tr(G) I term, matching the exact whitened
    fourth-moment expectation.  The map G -> M(G) is linear either way.
    """
    u = np.asarray(u, dtype=float)
    g = np.asarray(g, dtype=float)
    if u.ndim != 2:
        raise ValueError("score matrix must be 2-D (r x n)")
    r, n = u.shape
    if g.shape != (r, r):
        raise ValueError(f"g must be {r} x {r}")
    if subtraction not in SUBTRACTION_MODES:
        raise ValueError(f"unknown subtraction mode: {subtraction!r}")

    quad = np.einsum("it,ij,jt->t", u, g, u)
    m = (u * quad) @ u.T / (3 * n)
    sym = g + g.T
    if improved:
        if sigma_u is None:
            raise ValueError("improved moment matrix requires sigma_u")
        sigma_u = np.asarray(sigma_u, dtype=float)
        if sigma_u.shape != (r, r):
            raise ValueError(f"sigma_u must be {r} x {r}")
        weighted = sigma_u @ sym @ sigma_u
        trace_term = float(np.trace(g @ sigma_u)) * sigma_u
        if subtraction == "as_written":
            return m - weighted - trace_term
        return m - weighted / 3.0 - trace_term / 3.0
    if subtraction == "as_written":
        return m - sym
    return m - float(np.trace(g)) * np.eye(r) / 3.0 - sym / 3.0


def mom_init(u: np.ndarray, prior: np.ndarray, n_slices: int,
             improved: bool = False, sigma_u: Optional[np.ndarray] = None,
             rng: np.random.Generator = None,
             subtraction: str = "as_written") -> np.ndarray:
    """Method-of-moments initializer via multiple random slicings.

    Draws ``n_slices`` standard-normal r x r matrices, projects each
    moment slice onto the complement of the prior columns on both sides,
    and returns the leading left singular vector of the slice with the
    largest top-two singular-value gap (ties to the earliest slice).  The
    returned vector's largest-magnitude entry is made positive.

    Raises
    ------
    DegenerateSlicingError
        If every slice has a gap below 1e-12.
    """
    u = np.asarray(u, dtype=float)
    if n_slices < 1:
        raise ValueError("n_slices must be >= 1")
    r = u.shape[0]
    if r == 1:
        return np.ones(1)
    proj = complement_projector(prior)

    slices = [rng.standard_normal((r, r)) for _ in range(n_slices)]
    gaps = np.empty(n_slices)
    leading = []
    for i, g in enumerate(slices):
        m = proj @ mom_matrix(u, g, improved=improved, sigma_u=sigma_u,
                              subtraction=subtraction) @ proj
        left, singulars, _ = np.linalg.svd(m)
        gaps[i] = singulars[0] - singulars[1]
        leading.append(left[:, 0])
    if np.max(gaps) < 1e-12:
        raise DegenerateSlicingError(
            "every random slice has a zero singular-value gap")
    best = leading[int(np.argmax(gaps))]
    if best[np.argmax(np.abs(best))] < 0:
        best = -best
    return best


def make_init_provider(scheme: InitScheme, u: np.ndarray,
                       rng: np.random.Generator, *,
                       sigma_u: Optional[np.ndarray] = None,
                       subtraction: str = "as_written"):
    """Build the ``(k, prior) -> q0`` callable used by the deflation loop.

    The provider consumes ``rng`` sequentially across rounds, so a fixed
    seed fixes the whole initialization sequence.
    """
    u = np.asarray(u, dtype=float)
    r = u.shape[0]
    if scheme.kind == "random":
        return lambda k, prior: random_init(prior, rng)
    if scheme.kind == "multi_random":
        draws = scheme.draws_for(r)
        return lambda k, prior: multi_random_init(u, prior, draws, rng)
    if scheme.improved and sigma_u is None:
        raise ValueError("improved mom init requires a score covariance estimate")
    n_slices = scheme.slices_for(r)
    chosen_sigma_u = sigma_u if scheme.improved else None
    return lambda k, prior: mom_init(
        u, prior, n_slices, improved=scheme.improved,
        sigma_u=chosen_sigma_u, rng=rng, subtraction=subtraction)
