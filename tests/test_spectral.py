"""Tests for the PCA step and the noise corrections."""
import numpy as np
import pytest

from dvarimax import (CorrectionInfeasibleError, NoSignalError, PcaDecomposition,
                      RankDeficiencyError, SyntheticConfig, corrected_decomposition,
                      eigendecompose, generate_dataset, noise_variance_estimate,
                      select_rank, substream)


def _decomp_from_eigvals(eigvals, r, p=None):
    """Hand-built decomposition for arithmetic-only operations."""
    eigvals = np.asarray(eigvals, dtype=float)
    p = p if p is not None else eigvals.size
    return PcaDecomposition(eigvals=eigvals, eigvecs_r=np.eye(p)[:, :r],
                            scores=np.zeros((r, 2)), r=r)


# ---------------------------------------------------------------------------
# eigendecompose
# ---------------------------------------------------------------------------

def test_identity_two_by_two():
    decomp = eigendecompose(np.eye(2), 2)
    assert np.allclose(decomp.eigvals, [0.5, 0.5])
    gram = decomp.scores @ decomp.scores.T
    assert np.linalg.norm(gram - 2 * np.eye(2)) <= 1e-12


def test_noiseless_tail_is_zero():
    config = SyntheticConfig(n=200, p=20, r=3, varepsilon2=0.0, seed=5)
    observed, _ = generate_dataset(config)
    decomp = eigendecompose(observed.data, 3)
    assert np.all(decomp.eigvals[3:] <= 1e-10 * decomp.eigvals[0])


@pytest.mark.parametrize("p,n,r,seed", [(6, 40, 3, 0), (30, 12, 5, 1),
                                        (100, 10, 4, 2), (11, 11, 11, 3)])
def test_whitening_and_orthonormality(p, n, r, seed):
    x = substream(seed, "x").standard_normal((p, n))
    decomp = eigendecompose(x, r)
    n_actual = x.shape[1]
    gram = decomp.scores @ decomp.scores.T
    assert np.linalg.norm(gram - n_actual * np.eye(r)) <= 1e-8 * n_actual
    vtv = decomp.eigvecs_r.T @ decomp.eigvecs_r
    assert np.linalg.norm(vtv - np.eye(r)) <= 1e-10
    assert np.all(np.diff(decomp.eigvals) <= 1e-12)
    assert decomp.eigvals.size == min(p, n)


def test_spectral_reconstruction_small():
    rng = substream(4, "x")
    x = rng.standard_normal((7, 30))
    decomp = eigendecompose(x, 7)
    gram = x @ x.T / 30
    rebuilt = (decomp.eigvecs_r * decomp.eigvals[:7]) @ decomp.eigvecs_r.T
    assert np.linalg.norm(rebuilt - gram) <= 1e-8 * np.linalg.norm(gram)


def test_svd_path_matches_gram_path():
    # p > 4n forces the SVD route; compare against the Gram route on the
    # transposed regime by checking eigenvalues of the same matrix.
    rng = substream(6, "x")
    x = rng.standard_normal((50, 10))
    decomp = eigendecompose(x, 3)           # 50 > 40: SVD path
    gram_vals = np.linalg.eigvalsh(x @ x.T / 10)[::-1][:10]
    assert np.allclose(decomp.eigvals, np.maximum(gram_vals, 0), atol=1e-10)


def test_rank_deficiency_error_names_index():
    x = np.zeros((4, 10))
    x[0] = 1.0
    with pytest.raises(RankDeficiencyError, match="2"):
        eigendecompose(x, 2)


def test_invalid_rank_rejected():
    x = np.ones((3, 5))
    for r in (0, 4):
        with pytest.raises(ValueError):
            eigendecompose(x, r)


def test_eigenvector_sign_convention():
    rng = substream(8, "x")
    x = rng.standard_normal((10, 50))
    decomp = eigendecompose(x, 4)
    for col in decomp.eigvecs_r.T:
        assert col[np.argmax(np.abs(col))] > 0


# ---------------------------------------------------------------------------
# noise_variance_estimate
# ---------------------------------------------------------------------------

def test_noise_variance_arithmetic():
    decomp = _decomp_from_eigvals([5.0, 4.0, 1.0, 1.0, 1.0], r=2)
    assert noise_variance_estimate(decomp, 5) == pytest.approx(1.0)
    decomp = _decomp_from_eigvals([3.0, 2.0, 2.0, 0.0], r=1)
    assert noise_variance_estimate(decomp, 4) == pytest.approx(4.0 / 3.0)


def test_noise_variance_zero_tail_is_exact_zero():
    config = SyntheticConfig(n=100, p=12, r=3, varepsilon2=0.0, seed=9)
    observed, _ = generate_dataset(config)
    decomp = eigendecompose(observed.data, 3)
    assert noise_variance_estimate(decomp, 12) == 0.0


def test_noise_variance_requires_p_above_r():
    decomp = _decomp_from_eigvals([2.0, 1.0], r=2)
    with pytest.raises(CorrectionInfeasibleError, match="uncorrected"):
        noise_variance_estimate(decomp, 2)


def test_noise_variance_nonnegative():
    for seed in range(5):
        x = substream(seed, "x").standard_normal((15, 40))
        decomp = eigendecompose(x, 4)
        assert noise_variance_estimate(decomp, 15) >= 0.0


# ---------------------------------------------------------------------------
# corrected_decomposition
# ---------------------------------------------------------------------------

def test_correction_arithmetic():
    x = substream(10, "x").standard_normal((5, 200))
    decomp = eigendecompose(x, 2)
    forced = PcaDecomposition(eigvals=np.array([5.0, 4.0, 1.0, 1.0, 1.0]),
                              eigvecs_r=decomp.eigvecs_r, scores=decomp.scores, r=2)
    corrected = corrected_decomposition(forced, x)
    assert np.allclose(corrected.eigvals_corrected, [4.0, 3.0])
    assert np.allclose(corrected.sigma_n_hat, np.diag([0.25, 1.0 / 3.0]))
    # consistency: corrected eigenvalues plus the estimate give back D_r
    assert np.array_equal(corrected.eigvals_corrected + corrected.noise_var_hat,
                          forced.eigvals[:2])


def test_noiseless_correction_is_identity_bitwise():
    config = SyntheticConfig(n=150, p=10, r=2, varepsilon2=0.0, seed=3)
    observed, _ = generate_dataset(config)
    decomp = eigendecompose(observed.data, 2)
    corrected = corrected_decomposition(decomp, observed.data)
    assert corrected.noise_var_hat == 0.0
    assert np.array_equal(corrected.eigvals_corrected, decomp.eigvals[:2])
    assert np.array_equal(corrected.scores_corrected, decomp.scores)
    assert np.allclose(corrected.sigma_n_hat, 0.0)


def test_correction_infeasible_raises():
    x = substream(12, "x").standard_normal((6, 100))
    decomp = eigendecompose(x, 3)
    forced = PcaDecomposition(eigvals=np.array([4.0, 3.0, 1.0, 2.0, 2.0, 2.0]),
                              eigvecs_r=decomp.eigvecs_r, scores=decomp.scores, r=3)
    # tail mean 2.0 exceeds the third retained eigenvalue 1.0
    with pytest.raises(CorrectionInfeasibleError):
        corrected_decomposition(forced, x)


def test_corrected_sigma_n_matches_truth_oracle():
    # With identity noise covariance the score-noise covariance is
    # eps2 * S^{-2}; compare the diagonal estimate against that oracle.
    config = SyntheticConfig(n=4000, p=60, r=3, theta=0.2, varepsilon2=0.5, seed=14)
    observed, truth = generate_dataset(config)
    decomp = corrected_decomposition(eigendecompose(observed.data, 3), observed.data)
    oracle = truth.eps2 / truth.svd_singulars ** 2
    est = np.diag(decomp.sigma_n_hat)
    assert np.max(np.abs(est - oracle)) <= 0.25 * np.max(oracle)


# ---------------------------------------------------------------------------
# select_rank
# ---------------------------------------------------------------------------

def test_select_rank_examples():
    assert select_rank(np.array([100.0, 99.0, 1.0, 0.9]), 3) == 2
    assert select_rank(np.array([10.0, 1.0]), 1) == 1
    assert select_rank(np.array([4.0, 2.0, 1.0]), 2) == 1  # tie -> smallest


def test_select_rank_zero_tail():
    assert select_rank(np.array([5.0, 4.0, 0.0, 0.0]), 3) == 2


def test_select_rank_no_signal():
    with pytest.raises(NoSignalError):
        select_rank(np.zeros(4), 2)
    with pytest.raises(ValueError):
        select_rank(np.array([1.0]), 0)
