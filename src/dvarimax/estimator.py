"""End-to-end loading estimation: PCA, deflation rotation, normalization.

Two pipeline variants share the same structure and differ in which
decomposition feeds the rotation and the loading:

- ``base``: the plain PCA, plain statistic (the paper's PCA plus
  deflation varimax).
- ``improved2``: the noise-corrected PCA, and the rotation solves the
  bias-corrected statistic for the estimated score-noise covariance
  (:meth:`FourthMoment.bias_corrected`); the init still reads the plain
  one.  This is the paper's modified procedure for structured noise.

The final estimate is V D^{1/2} Q (with D that PCA's eigenvalues and Q
the orthogonalized rotation), rescaled to unit operator norm.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import (CorrectionInfeasibleError, _check_bool, _check_choice, _check_type,
                         _real_array)
from .initialization import InitScheme, make_init_provider
from .rotation import RotationResult, RotationSolveConfig, deflate, fourth_moment
from .spectral import PcaDecomposition, corrected_decomposition, eigendecompose

__all__ = [
    "VARIANTS",
    "LoadingEstimate",
    "estimate_loading",
    "loading_from_rotation",
    "predict_factors",
]

VARIANTS = ("base", "improved2")


@dataclass(frozen=True)
class LoadingEstimate:
    """Estimated loading matrix with the rotation that produced it."""

    lambda_hat: np.ndarray       # p x r, unit operator norm
    decomposition: PcaDecomposition  # the plain PCA, for every variant
    diagnostics: RotationResult  # deflate's own per-column record
    noise_var_hat: Optional[float]  # None unless the correction was formed
    effective_variant: str       # base after a fallback, else the requested one
    fallback: bool
    runtime_ms: float

    @property
    def q_check(self) -> np.ndarray:
        """The r x r orthogonalized rotation."""
        return self.diagnostics.q_check


def _check_rotation(decomposition: PcaDecomposition, q_check: np.ndarray) -> np.ndarray:
    q_check = _real_array("q_check", q_check, ndim=2, finite=True)
    if q_check.shape[0] != decomposition.r:
        raise ValueError("rotation and decomposition dimensions differ")
    return q_check


def loading_from_rotation(decomposition: PcaDecomposition,
                          q_check: np.ndarray) -> np.ndarray:
    """Assemble V D^{1/2} Q and rescale it to unit operator norm."""
    basis = decomposition.eigvecs_r * np.sqrt(decomposition.eigvals)[None, :]
    raw = basis @ _check_rotation(decomposition, q_check)
    opnorm = np.linalg.norm(raw, 2)
    if opnorm <= 0:
        raise ValueError("degenerate loading with zero operator norm")
    return raw / opnorm


def predict_factors(decomposition: PcaDecomposition, q_check: np.ndarray) -> np.ndarray:
    """Predict the factor matrix from the rotated principal components.

    Returns ``Q^T U * sqrt(d_1)``: the rotation applied to the whitened
    scores, rescaled by the top eigenvalue's square root so the scale
    removed by whitening is restored.  ``LoadingEstimate.decomposition``
    is the plain PCA, so every pipeline variant predicts from the
    uncorrected scores and eigenvalue.
    """
    q_check = _check_rotation(decomposition, q_check)
    return (q_check.T @ decomposition.scores) * np.sqrt(decomposition.eigvals[0])


def estimate_loading(x: np.ndarray, r: int,
                     variant: str = "base",
                     init_scheme: Optional[InitScheme] = None,
                     solve_config: Optional[RotationSolveConfig] = None,
                     rng: Optional[np.random.Generator] = None,
                     *,
                     auto_fallback: bool = False) -> LoadingEstimate:
    """Estimate the p x r loading matrix of ``x`` (features x samples).

    Runs the PCA step, solves r rotation columns by deflation with the
    chosen initialization scheme, orthogonalizes them, and assembles the
    unit-operator-norm loading estimate.

    Parameters
    ----------
    variant : str
        Pipeline variant, one of ``VARIANTS``; ``improved2`` requires
        p > r and all corrected eigenvalues positive.
    init_scheme : InitScheme
        Initializer with all its settings (default: ``mom`` with the
        default slice count and subtraction mode).
    auto_fallback : bool
        When the correction is infeasible, fall back to ``base`` instead
        of raising; the estimate's ``fallback`` flags it and its
        ``effective_variant`` reads ``base``.
    rng : np.random.Generator
        Drives every random draw of the initialization scheme (default: a
        fresh ``np.random.default_rng()``).  The output is a pure function
        of (x, r, options, rng state).

    Raises
    ------
    CorrectionInfeasibleError
        If ``improved2`` is requested, the correction cannot be formed,
        and ``auto_fallback`` is off.
    ValueError
        If ``variant`` is not one of ``VARIANTS``; if ``init_scheme``,
        ``solve_config`` or ``rng`` is given and is not an ``InitScheme``,
        a ``RotationSolveConfig`` or a ``np.random.Generator``, or
        ``auto_fallback`` is not a bool; then
        if :func:`eigendecompose` rejects ``x`` or r (a complex ``x``
        before any cast).
    """
    t_start = time.perf_counter()
    _check_choice("variant", variant, VARIANTS)
    if init_scheme is None:
        init_scheme = InitScheme.method_of_moments()
    if solve_config is None:
        solve_config = RotationSolveConfig()
    _check_type("init_scheme", init_scheme, InitScheme)
    _check_type("solve_config", solve_config, RotationSolveConfig)
    _check_bool("auto_fallback", auto_fallback)
    if rng is None:
        rng = np.random.default_rng()
    _check_type("rng", rng, np.random.Generator)

    decomp = fitted = eigendecompose(x, r)
    fallback = False
    if variant == "improved2":
        try:
            fitted = corrected_decomposition(decomp)
        except CorrectionInfeasibleError:
            if not auto_fallback:
                raise
            fallback = True

    # The rotation stage reads the scores only through this statistic.
    stat = fourth_moment(fitted.scores)
    provider = make_init_provider(init_scheme, stat, rng)
    if fitted.noise_var_hat is not None:
        stat = stat.bias_corrected(fitted.sigma_n_hat)
    rotation = deflate(stat, provider, solve_config)
    return LoadingEstimate(
        lambda_hat=loading_from_rotation(fitted, rotation.q_check),
        decomposition=decomp,
        diagnostics=rotation,
        noise_var_hat=fitted.noise_var_hat,
        effective_variant="base" if fallback else variant,
        fallback=fallback,
        runtime_ms=(time.perf_counter() - t_start) * 1000.0,
    )
