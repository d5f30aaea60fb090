"""End-to-end loading estimation: PCA, deflation rotation, normalization.

Three pipeline variants share the same structure and differ in which
decomposition feeds the rotation and the loading:

- ``base``: the plain PCA, plain statistic.
- ``improved1``: the noise-corrected PCA, plain statistic.
- ``improved2``: as improved1, but the rotation solves the bias-corrected
  statistic for the estimated score-noise covariance
  (:meth:`FourthMoment.bias_corrected`); the init still reads the plain one.

The final estimate is V D^{1/2} Q (with D that PCA's eigenvalues and Q
the orthogonalized rotation), rescaled to unit operator norm.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

import numpy as np

from .exceptions import CorrectionInfeasibleError, _check_bool, _check_type
from .initialization import InitScheme, make_init_provider
from .rotation import RotationSolveConfig, deflate, fourth_moment
from .spectral import PcaDecomposition, corrected_decomposition, eigendecompose

__all__ = [
    "EstimatorVariant",
    "EstimateDiagnostics",
    "LoadingEstimate",
    "estimate_loading",
    "loading_from_rotation",
    "predict_factors",
]


class EstimatorVariant(str, Enum):
    BASE = "base"
    IMPROVED1 = "improved1"
    IMPROVED2 = "improved2"


@dataclass(frozen=True)
class EstimateDiagnostics:
    """Per-run bookkeeping for the estimation pipeline."""

    iter_counts: np.ndarray
    grad_norms: np.ndarray
    converged_flags: np.ndarray
    noise_var_hat: Optional[float]
    requested_variant: str
    effective_variant: str
    init_label: str
    fallback: bool
    near_duplicate: bool         # a deflation round was re-solved in the complement
    runtime_ms: float


@dataclass(frozen=True)
class LoadingEstimate:
    """Estimated loading matrix with its rotation and PCA byproducts."""

    lambda_hat: np.ndarray       # p x r, unit operator norm
    q_check: np.ndarray          # r x r, orthogonal
    decomposition: PcaDecomposition  # the plain PCA, for every variant
    diagnostics: EstimateDiagnostics


def _check_rotation(decomposition: PcaDecomposition, q_check: np.ndarray) -> np.ndarray:
    q_check = np.asarray(q_check, dtype=float)
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
                     variant: EstimatorVariant | str = EstimatorVariant.BASE,
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
    variant : EstimatorVariant or str
        Pipeline variant; the improved variants require p > r and all
        corrected eigenvalues positive.
    init_scheme : InitScheme
        Initializer with all its settings (default: ``mom`` with the
        default slice count and subtraction mode).  ``mom_improved`` needs
        the noise correction as the improved variants do.
    auto_fallback : bool
        When the correction is infeasible, fall back to the base variant
        (and from ``mom_improved`` to ``mom`` with the same settings)
        instead of raising; the fallback is flagged in the diagnostics.
    rng : np.random.Generator
        Drives every random draw of the initialization scheme.  The
        output is a pure function of (x, r, options, rng state).

    Raises
    ------
    CorrectionInfeasibleError
        If an improved variant is requested, the correction cannot be
        formed, and ``auto_fallback`` is off.
    ValueError
        If ``init_scheme`` or ``solve_config`` is given and is not an
        ``InitScheme`` or a ``RotationSolveConfig``, or ``auto_fallback``
        is not a bool.
    """
    t_start = time.perf_counter()
    x = np.asarray(x, dtype=float)
    variant = EstimatorVariant(variant)
    if init_scheme is None:
        init_scheme = InitScheme.method_of_moments()
    if solve_config is None:
        solve_config = RotationSolveConfig()
    _check_type("init_scheme", init_scheme, InitScheme)
    _check_type("solve_config", solve_config, RotationSolveConfig)
    _check_bool("auto_fallback", auto_fallback)
    if rng is None:
        rng = np.random.default_rng()

    decomp = eigendecompose(x, r)
    corrected = None
    effective_variant = variant
    effective_scheme = init_scheme
    fallback = False
    if variant != EstimatorVariant.BASE or init_scheme.improved:
        try:
            corrected = corrected_decomposition(decomp)
        except CorrectionInfeasibleError:
            if not auto_fallback:
                raise
            effective_variant = EstimatorVariant.BASE
            if init_scheme.improved:
                effective_scheme = replace(init_scheme, label="mom")
            fallback = True

    fitted = decomp if effective_variant == EstimatorVariant.BASE else corrected
    sigma_u = np.eye(r) + corrected.sigma_n_hat if effective_scheme.improved else None
    # The rotation stage reads the scores only through this statistic.
    stat = fourth_moment(fitted.scores)
    provider = make_init_provider(effective_scheme, stat, rng, sigma_u=sigma_u)
    if effective_variant == EstimatorVariant.IMPROVED2:
        stat = stat.bias_corrected(fitted.sigma_n_hat)
    rotation = deflate(stat, provider, solve_config)

    lambda_hat = loading_from_rotation(fitted, rotation.q_check)

    diagnostics = EstimateDiagnostics(
        iter_counts=rotation.iter_counts,
        grad_norms=rotation.grad_norms,
        converged_flags=rotation.converged_flags,
        noise_var_hat=None if corrected is None else corrected.noise_var_hat,
        requested_variant=variant.value,
        effective_variant=effective_variant.value,
        init_label=effective_scheme.label,
        fallback=fallback,
        near_duplicate=bool(np.any(rotation.restricted)),
        runtime_ms=(time.perf_counter() - t_start) * 1000.0,
    )
    return LoadingEstimate(
        lambda_hat=lambda_hat,
        q_check=rotation.q_check,
        decomposition=decomp,
        diagnostics=diagnostics,
    )
