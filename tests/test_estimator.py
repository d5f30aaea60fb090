"""Tests for the end-to-end loading estimation pipelines."""
from dataclasses import fields, replace

import numpy as np
import pytest
from helpers import random_orthogonal
from hypothesis import given, settings
from hypothesis import strategies as st

from dvarimax import (VARIANTS, CorrectionInfeasibleError, InitScheme,
                      LoadingEstimate, PcaDecomposition, RotationResult,
                      RotationSolveConfig, SyntheticConfig, deflate, derive_seed,
                      eigendecompose, estimate_loading, generate_dataset,
                      generate_factors, loading_from_rotation, predict_factors,
                      signed_permutation_error, substream, symmetric_orthogonalize)

FAST = RotationSolveConfig(step_size=1e-2, grad_tol=1e-6, max_iters=5000)
MOM = InitScheme.method_of_moments()


def _dataset(n=600, p=12, r=3, theta=0.2, eps2=0.1, seed=0):
    config = SyntheticConfig(n=n, p=p, r=r, theta=theta, varepsilon2=eps2, seed=seed)
    return generate_dataset(config)


def _orthogonal_loading_dataset(n, r, theta, seed):
    """Noiseless X = A Z with an orthogonal loading of unit operator norm."""
    rng = substream(seed, "ortho")
    loading = random_orthogonal(r, rng)
    factors = generate_factors(r, n, theta, rng)
    return loading @ factors, loading


# ---------------------------------------------------------------------------
# assembly and normalization
# ---------------------------------------------------------------------------

def test_identity_rotation_reproduces_pca_columns():
    observed, _ = _dataset()
    decomp = eigendecompose(observed.data, 3)
    loading = loading_from_rotation(decomp, np.eye(3))
    raw = decomp.eigvecs_r * np.sqrt(decomp.eigvals)[None, :]
    assert np.allclose(loading, raw / np.linalg.norm(raw, 2), atol=1e-14)
    for assemble in (loading_from_rotation, predict_factors):
        with pytest.raises(ValueError, match="rotation and decomposition dimensions differ"):
            assemble(decomp, np.eye(2))
    with pytest.raises(ValueError, match="zero operator norm"):
        loading_from_rotation(decomp, np.zeros((3, 3)))


def test_every_variant_has_unit_operator_norm():
    observed, _ = _dataset(eps2=0.2)
    for variant in VARIANTS:
        est = estimate_loading(observed.data, 3, variant, MOM, FAST,
                               substream(1, "est", variant))
        assert abs(np.linalg.norm(est.lambda_hat, 2) - 1.0) <= 1e-10
        q = est.q_check
        assert np.linalg.norm(q.T @ q - np.eye(3)) <= 1e-10


@settings(max_examples=8)
@given(seed=st.integers(0, 3), log_scale=st.floats(-3.0, 3.0),
       variant=st.sampled_from(VARIANTS))
def test_lambda_hat_invariant_to_data_scale(seed, log_scale, variant):
    observed, _ = _dataset(seed=seed)
    fits = [estimate_loading(c * observed.data, 3, variant, MOM, FAST,
                             substream(seed, "scale"))
            for c in (1.0, 10.0 ** log_scale)]
    assert np.max(np.abs(fits[0].lambda_hat - fits[1].lambda_hat)) <= 1e-10


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_rejected(bad):
    observed, _ = _dataset()
    x = observed.data.copy()
    x[1, 2] = bad
    with pytest.raises(ValueError, match="NaN or Inf"):
        estimate_loading(x, 3, "base", MOM, FAST, substream(0, "est"))


def test_complex_input_rejected_by_dtype():
    # A cast to float would keep only the real part, with a ComplexWarning.
    rng = substream(0, "complex")
    x = rng.standard_normal((5, 200)) + 1j * rng.standard_normal((5, 200))
    with pytest.raises(ValueError, match="x must be real, got dtype complex128"):
        estimate_loading(x, 2, "base", MOM, FAST, substream(0, "est"))


def test_estimate_deterministic():
    observed, _ = _dataset(seed=5)
    a = estimate_loading(observed.data, 3, "base", MOM, FAST, substream(9, "est"))
    b = estimate_loading(observed.data, 3, "base", MOM, FAST, substream(9, "est"))
    assert np.array_equal(a.lambda_hat, b.lambda_hat)
    assert np.array_equal(a.q_check, b.q_check)
    # a mis-typed settings object is named, not read as an attribute
    for name, bad in (("init_scheme", dict(init_scheme="mom")),
                      ("solve_config", dict(solve_config={"step_size": 1e-2})),
                      ("rng", dict(rng=5))):
        with pytest.raises(ValueError, match=name):
            estimate_loading(observed.data, 3, "base", **{"rng": substream(9, "est"), **bad})


def test_column_space_matches_pca_subspace():
    observed, _ = _dataset(seed=7)
    est = estimate_loading(observed.data, 3, "base", MOM, FAST, substream(2, "est"))
    basis, _ = np.linalg.qr(est.lambda_hat)
    principal_cosines = np.linalg.svd(est.decomposition.eigvecs_r.T @ basis,
                                      compute_uv=False)
    assert np.max(np.abs(principal_cosines - 1.0)) <= 1e-10


def _assert_bitwise_equal(fit, base):
    assert np.array_equal(fit.lambda_hat, base.lambda_hat)
    assert np.array_equal(fit.diagnostics.q_hat, base.diagnostics.q_hat)
    assert np.array_equal(fit.q_check, base.q_check)
    assert np.array_equal(fit.diagnostics.iter_counts, base.diagnostics.iter_counts)


def test_noiseless_improved2_equals_base_bitwise():
    # the default fit is improved2; with no noise its correction subtracts
    # exactly 0.0, so it is base bit for bit
    observed, _ = _dataset(eps2=0.0, seed=11)
    base = estimate_loading(observed.data, 3, "base", MOM, FAST,
                            substream(3, "est"))
    improved = estimate_loading(observed.data, 3, init_scheme=MOM, solve_config=FAST,
                                rng=substream(3, "est"))
    assert improved.effective_variant == "improved2" and not improved.fallback
    assert improved.noise_var_hat == 0.0
    _assert_bitwise_equal(improved, base)


@pytest.mark.parametrize("scheme", [InitScheme.random(), MOM])
def test_unknown_mom_subtraction_rejected(scheme):
    # the mode is an InitScheme setting, checked when the scheme is built
    with pytest.raises(ValueError, match="subtraction must be one of"):
        replace(scheme, subtraction="bogus")


def test_noiseless_orthogonal_loading_recovery():
    errors = []
    for seed in range(1, 21):
        x, loading = _orthogonal_loading_dataset(20000, 3, 0.1, seed)
        est = estimate_loading(x, 3, "base", MOM, FAST, substream(seed, "est"))
        err, _ = signed_permutation_error(est.lambda_hat, loading)
        errors.append(err)
    assert np.median(errors) <= 0.15


def test_improved2_beats_base_where_the_columns_converge():
    # Criterion 9's cell at a step where the column solves converge, so
    # improved2's lead there does not rest on base solves stopping short.
    solve = RotationSolveConfig(step_size=1e-2)
    errors = {"base": [], "improved2": []}
    converged = {"base": [], "improved2": []}
    for rep in range(20):
        config = SyntheticConfig(n=500, p=20, r=5, theta=0.1, varepsilon2=0.8,
                                 seed=derive_seed(109, "data", rep))
        observed, truth = generate_dataset(config)
        for variant in errors:
            est = estimate_loading(observed.data, 5, variant, MOM, solve,
                                   substream(109, "estimate", variant, rep))
            errors[variant].append(
                signed_permutation_error(est.lambda_hat, truth.loading)[0])
            converged[variant].extend(est.diagnostics.converged_flags)
    base, improved = np.array(errors["base"]), np.array(errors["improved2"])
    assert np.mean(improved <= base) >= 0.70
    assert np.median(improved) < np.median(base)
    for flags in converged.values():
        assert np.mean(flags) >= 0.80


# ---------------------------------------------------------------------------
# fallback behavior
# ---------------------------------------------------------------------------

def _infeasible_input():
    # p = r leaves no trailing eigenvalues, so the correction is undefined
    rng = substream(4, "est")
    return rng.standard_normal((3, 200))


def test_improved_with_fallback_runs_base():
    # the default fit is improved2, whose infeasible correction runs base
    x = _infeasible_input()
    est = estimate_loading(x, 3, init_scheme=MOM, solve_config=FAST,
                           rng=substream(5, "est"))
    base = estimate_loading(x, 3, "base", MOM, FAST, substream(5, "est"))
    assert est.fallback is True
    assert est.effective_variant == "base"
    assert est.noise_var_hat is None
    _assert_bitwise_equal(est, base)


def test_infeasible_correction_falls_back():
    # Because the eigenvalues are sorted, the tail mean can only reach the
    # r-th eigenvalue when the spectrum is flat across it, e.g. for
    # orthogonal data where all eigenvalues coincide and the correction
    # subtracts everything.
    x = np.eye(4)
    decomp = eigendecompose(x, 2)
    from dvarimax import corrected_decomposition
    with pytest.raises(CorrectionInfeasibleError):
        corrected_decomposition(decomp)
    est = estimate_loading(x, 2, "improved2", MOM, FAST, substream(7, "est"))
    assert est.fallback


def test_diagnostics_fields_populated():
    observed, _ = _dataset(seed=13)
    est = estimate_loading(observed.data, 3, "improved2", MOM, FAST,
                           substream(8, "est"))
    diag = est.diagnostics
    assert diag.iter_counts.shape == (3,)
    assert diag.grad_norms.shape == (3,)
    assert diag.converged_flags.shape == (3,)
    assert diag.restricted.shape == (3,) and diag.restricted.dtype == bool
    assert est.noise_var_hat is not None and est.noise_var_hat >= 0
    assert est.runtime_ms > 0


def test_diagnostics_is_deflates_own_result(monkeypatch):
    returned = []

    def keep(*args):
        returned.append(deflate(*args))
        return returned[-1]

    monkeypatch.setattr("dvarimax.estimator.deflate", keep)
    observed, _ = _dataset(seed=13)
    est = estimate_loading(observed.data, 3, "improved2", MOM, FAST,
                           substream(8, "est"))
    assert len(returned) == 1 and est.diagnostics is returned[0]
    assert type(est.diagnostics) is RotationResult
    assert np.array_equal(symmetric_orthogonalize(est.diagnostics.q_hat), est.q_check)
    assert [spec.name for spec in fields(LoadingEstimate)] == [
        "lambda_hat", "decomposition", "diagnostics", "noise_var_hat",
        "effective_variant", "fallback", "runtime_ms"]


# ---------------------------------------------------------------------------
# predict_factors
# ---------------------------------------------------------------------------

def test_predict_factors_identity_case():
    scores = substream(10, "est").standard_normal((2, 6))
    decomp = PcaDecomposition(eigvals=np.ones(2), tail_sum=2.0,
                              eigvecs_r=np.eye(4)[:, :2], scores=scores)
    assert np.array_equal(predict_factors(decomp, np.eye(2)), scores)


@pytest.mark.parametrize("variant", [v for v in VARIANTS if v != "base"])
def test_corrected_fit_keeps_the_plain_decomposition(variant):
    # The rotation and the loading read the corrected decomposition; the
    # estimate hands back the plain PCA, and predict_factors reads it.
    observed, _ = _dataset(eps2=0.3, seed=16)
    plain = eigendecompose(observed.data, 3)
    est = estimate_loading(observed.data, 3, variant, MOM, FAST, substream(13, "est"))
    assert est.noise_var_hat > 0.0
    assert est.decomposition.noise_var_hat is None
    assert np.array_equal(est.decomposition.eigvals, plain.eigvals)
    assert np.array_equal(est.decomposition.scores, plain.scores)
    assert np.array_equal(predict_factors(est.decomposition, est.q_check),
                          (est.q_check.T @ plain.scores) * np.sqrt(plain.eigvals[0]))


def test_predict_factors_frobenius_identity():
    observed, _ = _dataset(seed=15)
    est = estimate_loading(observed.data, 3, "base", MOM, FAST, substream(11, "est"))
    z_hat = predict_factors(est.decomposition, est.q_check)
    d1 = est.decomposition.eigvals[0]
    expected = np.sqrt(d1 * observed.n * 3)
    assert np.linalg.norm(z_hat) == pytest.approx(expected, rel=1e-8)


def test_predict_factors_row_correlation_noiseless():
    from scipy.optimize import linear_sum_assignment
    rng = substream(3, "ortho")
    loading = random_orthogonal(3, rng)
    truth_factors = generate_factors(3, 20000, 0.1, rng)
    x = loading @ truth_factors
    est = estimate_loading(x, 3, "base", MOM, FAST, substream(12, "est"))
    z_hat = predict_factors(est.decomposition, est.q_check)
    corr = np.abs(np.corrcoef(z_hat, truth_factors)[:3, 3:])
    rows, cols = linear_sum_assignment(-corr)
    assert corr[rows, cols].min() >= 0.9


@pytest.mark.parametrize("seed", range(5))
def test_predict_factors_recovers_the_factors(seed):
    # Moderate SNR: each row of z_hat correlates with the true factor row
    # that signed_permutation_error's permutation matches it to.  The rows
    # have mean square d_1, not the truth's scale, so compare up to a
    # per-row scale.
    config = SyntheticConfig(n=900, p=300, r=5, theta=0.1, varepsilon2=0.1, seed=seed)
    observed, truth = generate_dataset(config)
    est = estimate_loading(observed.data, 5, "base", MOM,
                           RotationSolveConfig(step_size=1e-2), substream(seed, "estimate"))
    assert est.diagnostics.converged_flags.all()
    z_hat = predict_factors(est.decomposition, est.q_check)
    _, p_opt = signed_permutation_error(est.lambda_hat, truth.loading)
    matched = p_opt.T @ truth.factors
    corr = np.array([np.corrcoef(row, true_row)[0, 1]
                     for row, true_row in zip(z_hat, matched)])
    assert np.median(corr) >= 0.98
    assert corr.min() >= 0.95
