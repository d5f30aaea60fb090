"""Truncated PCA of the sample second-moment matrix, with noise corrections.

The decomposition is of (1/n) X X^T.  Whitened scores satisfy
U_r @ U_r.T = n * I exactly by construction.  When the noise is close to
isotropic, the trailing eigenvalues estimate the per-coordinate noise
variance; subtracting it from the leading eigenvalues gives corrected
eigenvalues, corrected scores, and a diagonal estimate of the score-noise
covariance used by the bias-corrected rotation solver.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .exceptions import CorrectionInfeasibleError, NoSignalError, RankDeficiencyError

__all__ = [
    "PcaDecomposition",
    "eigendecompose",
    "noise_variance_estimate",
    "corrected_decomposition",
    "select_rank",
    "EIGENVALUE_FLOOR",
]

# Relative floor below which an eigenvalue counts as numerically zero.
EIGENVALUE_FLOOR = 1e-12


def _fix_column_signs(v: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive."""
    idx = np.argmax(np.abs(v), axis=0)
    signs = np.where(v[idx, np.arange(v.shape[1])] < 0, -1.0, 1.0)
    return v * signs


@dataclass(frozen=True)
class PcaDecomposition:
    """Result of the PCA step.

    Attributes
    ----------
    eigvals : np.ndarray
        All min(p, n) eigenvalues of (1/n) X X^T, nonincreasing.
    eigvecs_r : np.ndarray
        p x r matrix of the leading eigenvectors.
    scores : np.ndarray
        r x n whitened principal components, D^{-1/2} V^T X.
    noise_var_hat, eigvals_corrected, scores_corrected, sigma_n_hat
        Filled in by :func:`corrected_decomposition`; ``sigma_n_hat`` is
        the diagonal r x r estimate of the score-noise covariance.
    """

    eigvals: np.ndarray
    eigvecs_r: np.ndarray
    scores: np.ndarray
    r: int
    noise_var_hat: Optional[float] = None
    eigvals_corrected: Optional[np.ndarray] = None
    scores_corrected: Optional[np.ndarray] = None
    sigma_n_hat: Optional[np.ndarray] = None

    @property
    def p(self) -> int:
        return self.eigvecs_r.shape[0]

    @property
    def n(self) -> int:
        return self.scores.shape[1]

    @property
    def top_eigvals(self) -> np.ndarray:
        """The r retained eigenvalues."""
        return self.eigvals[: self.r]


def eigendecompose(x: np.ndarray, r: int) -> PcaDecomposition:
    """Eigendecompose (1/n) X X^T and whiten the leading r components.

    For p > 4n the decomposition goes through the SVD of X / sqrt(n)
    (eigenvalues are squared singular values); otherwise through the
    symmetric p x p second-moment matrix.  Eigenvector signs are fixed so
    the largest-magnitude entry of each column is positive.

    Raises
    ------
    ValueError
        If ``x`` is not 2-D or holds NaN or Inf, or r exceeds min(p, n).
    RankDeficiencyError
        If the r-th eigenvalue is at or below ``EIGENVALUE_FLOOR`` times
        the largest one.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("x must be a 2-D array")
    p, n = x.shape
    if not 1 <= r <= min(p, n):
        raise ValueError(f"r={r} must lie in [1, min(p, n)={min(p, n)}]")
    if not np.isfinite(x).all():
        raise ValueError("observation matrix contains NaN or Inf entries")

    if p > 4 * n:
        u, s, _ = np.linalg.svd(x / np.sqrt(n), full_matrices=False)
        eigvals = s ** 2
        vecs = u
    else:
        gram = (x @ x.T) / n
        gram = (gram + gram.T) / 2.0
        vals, vecs = np.linalg.eigh(gram)
        order = np.argsort(vals)[::-1][: min(p, n)]
        eigvals = np.maximum(vals[order], 0.0)
        vecs = vecs[:, order]

    floor = EIGENVALUE_FLOOR * eigvals[0]
    if eigvals[r - 1] <= floor:
        raise RankDeficiencyError(
            f"eigenvalue {r} is {eigvals[r - 1]:.3e}, at or below the floor "
            f"{floor:.3e}; the data has numerical rank < {r}"
        )

    eigvecs_r = _fix_column_signs(vecs[:, :r])
    scores = (eigvecs_r.T @ x) / np.sqrt(eigvals[:r])[:, None]
    return PcaDecomposition(eigvals=eigvals, eigvecs_r=eigvecs_r, scores=scores, r=r)


def noise_variance_estimate(decomp: PcaDecomposition, p: int) -> float:
    """Average of the trailing eigenvalues, an isotropic noise-variance estimate.

    Returns ``sum(eigvals[r:]) / (p - r)``.  Eigenvalues beyond min(p, n)
    are exactly zero and contribute only to the denominator.  A tail mean
    at or below ``EIGENVALUE_FLOOR`` times the top eigenvalue is returned
    as exactly 0.0, so a noiseless decomposition corrects to itself.

    Raises
    ------
    CorrectionInfeasibleError
        If p <= r; there are no trailing eigenvalues, so callers must use
        the uncorrected pipeline.
    """
    r = decomp.r
    if p <= r:
        raise CorrectionInfeasibleError(
            f"p={p} <= r={r} leaves no trailing eigenvalues; "
            "use the uncorrected pipeline"
        )
    value = float(decomp.eigvals[r:].sum()) / (p - r)
    if value <= EIGENVALUE_FLOOR * decomp.eigvals[0]:
        return 0.0
    return value


def corrected_decomposition(decomp: PcaDecomposition, x: np.ndarray) -> PcaDecomposition:
    """Subtract the estimated noise variance from the retained eigenvalues.

    Adds to the decomposition:

    - ``eigvals_corrected``: D_r - noise_var_hat,
    - ``scores_corrected``: scores rescaled by the corrected eigenvalues,
    - ``sigma_n_hat``: diag(noise_var_hat / eigvals_corrected), the
      estimated covariance of the additive error in the scores.

    Raises
    ------
    CorrectionInfeasibleError
        If any corrected eigenvalue falls at or below the eigenvalue
        floor, in which case callers should fall back to the uncorrected
        pipeline.
    """
    x = np.asarray(x, dtype=float)
    noise_var = noise_variance_estimate(decomp, x.shape[0])
    d_top = decomp.eigvals[: decomp.r]
    corrected = d_top - noise_var
    floor = EIGENVALUE_FLOOR * decomp.eigvals[0]
    if np.min(corrected) <= floor:
        bad = int(np.argmin(corrected)) + 1
        raise CorrectionInfeasibleError(
            f"corrected eigenvalue {bad} is {corrected[bad - 1]:.3e}, at or "
            f"below the floor {floor:.3e}; fall back to the uncorrected pipeline"
        )
    scores_corrected = (decomp.eigvecs_r.T @ x) / np.sqrt(corrected)[:, None]
    sigma_n_hat = np.diag(noise_var / corrected)
    return replace(
        decomp,
        noise_var_hat=noise_var,
        eigvals_corrected=corrected,
        scores_corrected=scores_corrected,
        sigma_n_hat=sigma_n_hat,
    )


def select_rank(eigvals: np.ndarray, r_max: int) -> int:
    """Pick the rank with the largest eigen-ratio d_j / d_{j+1}.

    Candidates are j = 1..min(r_max, len(eigvals) - 1); ties break toward
    the smallest index.  Denominators are floored at ``EIGENVALUE_FLOOR``
    times the top eigenvalue so a zero tail cannot divide by zero.
    """
    eigvals = np.asarray(eigvals, dtype=float)
    if r_max < 1:
        raise ValueError("r_max must be >= 1")
    if eigvals.size == 0 or not np.all(np.isfinite(eigvals)) or eigvals[0] <= 0:
        raise NoSignalError("all eigenvalues are at or below zero")
    m = min(r_max, eigvals.size - 1)
    if m == 0:
        return 1
    denom = np.maximum(eigvals[1 : m + 1], EIGENVALUE_FLOOR * eigvals[0])
    ratios = eigvals[:m] / denom
    return int(np.argmax(ratios)) + 1
