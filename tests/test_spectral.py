"""Tests for the PCA step and the noise corrections."""
import warnings
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from helpers import full_eigh_decomposition

from dvarimax import (CorrectionInfeasibleError, NoSignalError, PcaDecomposition,
                      RankDeficiencyError, SyntheticConfig, corrected_decomposition,
                      eigendecompose, estimate_loading, generate_dataset,
                      leading_eigenvalues, noise_variance_estimate, select_rank,
                      substream)
from dvarimax import spectral


def _decomp_from_eigvals(eigvals, r, p=None):
    """Hand-built decomposition for arithmetic-only operations; ``eigvals``
    is the whole spectrum, split into the r retained values and the tail."""
    eigvals = np.asarray(eigvals, dtype=float)
    p = p if p is not None else eigvals.size
    return PcaDecomposition(eigvals=eigvals[:r], tail_sum=float(eigvals[r:].sum()),
                            eigvecs_r=np.eye(p)[:, :r], scores=np.zeros((r, 2)))


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
    eigvals = leading_eigenvalues(observed.data, 20)
    assert np.all(eigvals[3:] <= 1e-10 * eigvals[0])
    decomp = eigendecompose(observed.data, 3)
    assert decomp.tail_sum <= 1e-10 * decomp.eigvals[0]


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
    assert decomp.eigvals.size == r


def test_spectral_reconstruction_small():
    rng = substream(4, "x")
    x = rng.standard_normal((7, 30))
    decomp = eigendecompose(x, 7)
    gram = x @ x.T / 30
    rebuilt = (decomp.eigvecs_r * decomp.eigvals[:7]) @ decomp.eigvecs_r.T
    assert np.linalg.norm(rebuilt - gram) <= 1e-8 * np.linalg.norm(gram)


def test_svd_path_matches_gram_path():
    # p > n solves the n x n Gram matrix X^T X / n; its eigenvalues must
    # match those of the p x p matrix X X^T / n.
    rng = substream(6, "x")
    x = rng.standard_normal((50, 10))
    decomp = eigendecompose(x, 3)           # 50 > 10: n x n Gram
    gram_vals = np.maximum(np.linalg.eigvalsh(x @ x.T / 10)[::-1][:10], 0)
    assert np.allclose(decomp.eigvals, gram_vals[:3], atol=1e-10)
    assert decomp.tail_sum == pytest.approx(gram_vals[3:].sum(), abs=1e-10)
    assert np.allclose(leading_eigenvalues(x, 10), gram_vals, atol=1e-10)


def test_rank_deficiency_error_names_index():
    x = np.zeros((4, 10))
    x[0] = 1.0
    with pytest.raises(RankDeficiencyError, match="2"):
        eigendecompose(x, 2)


def test_invalid_rank_rejected():
    x = np.ones((3, 5))
    for solve in (eigendecompose, leading_eigenvalues, estimate_loading):
        for r in (0, 4, 3.0, True, "2"):
            with pytest.raises(ValueError):
                solve(x, r)
    with pytest.raises(ValueError, match="2-D"):
        eigendecompose(np.ones(5), 1)


def test_eigenvector_sign_convention():
    rng = substream(8, "x")
    x = rng.standard_normal((10, 50))
    decomp = eigendecompose(x, 4)
    for col in decomp.eigvecs_r.T:
        assert col[np.argmax(np.abs(col))] > 0


# ---------------------------------------------------------------------------
# partial solve against the full-eigh oracle
# ---------------------------------------------------------------------------

def _projector(vecs):
    return vecs @ vecs.T


@pytest.mark.parametrize("p,n,r", [(40, 120, 5),    # p < n, Gram path
                                   (60, 25, 4),     # p > n, dense n x n solve
                                   (20, 12, 12),    # r = min(p, n), Gram path
                                   (300, 900, 5),   # 20 r <= p, Lanczos
                                   (1000, 2000, 10),  # the estimate-wide shape
                                   (90, 15, 3),     # p = 6n, dense n x n solve
                                   (600, 100, 5)])  # p > n, 20 r <= n, Lanczos
def test_partial_solve_matches_full_eigh_oracle(p, n, r):
    x = substream(p, "oracle").standard_normal((p, n))
    want_vals, want_vecs, want_tail = full_eigh_decomposition(x, r)
    decomp = eigendecompose(x, r)
    top = want_vals[0]
    assert np.max(np.abs(decomp.eigvals - want_vals[:r])) <= 1e-12 * top
    assert np.linalg.norm(_projector(decomp.eigvecs_r) - _projector(want_vecs)) <= 1e-10
    assert abs(decomp.tail_sum - want_tail) <= 1e-12 * np.sum(x * x) / n
    everything = leading_eigenvalues(x, min(p, n))
    assert np.max(np.abs(everything - want_vals)) <= 1e-12 * top


def test_partial_solve_near_tied_eigenvalues():
    # Eigenvalues r and r + 1 differ by 1e-6 relative: the values still
    # agree to rounding, and the top-r spans within the Davis-Kahan bound
    # for a backward error of a few ulps of the largest eigenvalue.  The
    # first shape takes the dense subset solve, the second Lanczos.
    r = 4
    for p, n in ((60, 200), (300, 900)):
        rng = substream(21, "oracle")
        left = np.linalg.qr(rng.standard_normal((p, p)))[0]
        right = np.linalg.qr(rng.standard_normal((n, p)))[0]
        spectrum = np.concatenate([[5.0, 4.0, 3.0, 1.0, 1.0 - 1e-6],
                                   np.linspace(0.9, 0.1, p - 5)])
        x = np.sqrt(n) * (left * np.sqrt(spectrum)) @ right.T
        want_vals, want_vecs, want_tail = full_eigh_decomposition(x, r)
        gap = want_vals[r - 1] - want_vals[r]
        assert gap == pytest.approx(1e-6, rel=1e-3)
        decomp = eigendecompose(x, r)
        top = want_vals[0]
        assert np.max(np.abs(decomp.eigvals - want_vals[:r])) <= 1e-12 * top
        assert abs(decomp.tail_sum - want_tail) <= 1e-12 * np.sum(spectrum)
        drift = np.linalg.norm(_projector(decomp.eigvecs_r) - _projector(want_vecs))
        assert drift <= 8 * np.finfo(float).eps * top / gap

def test_leading_eigenvectors_orthogonal_to_all_ones():
    # The leading eigenvectors are orthogonal to the all-ones vector, so a
    # start vector along it would have no component in the wanted space.
    p, n, r = 300, 900, 5
    rng = substream(22, "oracle")
    raw = rng.standard_normal((p, p))
    raw[:, :r] -= raw[:, :r].mean(axis=0)
    left = np.linalg.qr(raw)[0]
    assert np.max(np.abs(np.ones(p) @ left[:, :r])) <= 1e-12
    right = np.linalg.qr(rng.standard_normal((n, p)))[0]
    spectrum = np.concatenate([[5.0, 4.0, 3.0, 2.5, 2.0], np.linspace(1.0, 0.1, p - r)])
    x = np.sqrt(n) * (left * np.sqrt(spectrum)) @ right.T
    want_vals, want_vecs, want_tail = full_eigh_decomposition(x, r)
    decomp = eigendecompose(x, r)
    assert np.max(np.abs(decomp.eigvals - want_vals[:r])) <= 1e-12 * want_vals[0]
    assert np.linalg.norm(_projector(decomp.eigvecs_r) - _projector(want_vecs)) <= 1e-10


def test_leading_eigenvalues_on_both_sides_of_the_solver_rule():
    p, n = 300, 900
    x = substream(23, "oracle").standard_normal((p, n))
    want_vals = full_eigh_decomposition(x, 1)[0]
    for k in (5, 15, 16, 40):       # 20 k <= 300 up to k = 15
        assert spectral._lanczos_pays(p, k) == (k <= 15)
        got = leading_eigenvalues(x, k)
        assert np.max(np.abs(got - want_vals[:k])) <= 1e-12 * want_vals[0]


def _counting_lanczos(monkeypatch, replacement=None, operands=None):
    """Replace the Lanczos driver by a wrapper that records the size of
    each call, and each product function it solves in ``operands`` if
    given."""
    calls = []
    real = spectral._lanczos

    def wrapper(matvec, size, k, **kwargs):
        calls.append((size, k))
        if operands is not None:
            operands.append(matvec)
        return (replacement or real)(matvec, size, k, **kwargs)

    monkeypatch.setattr(spectral, "_lanczos", wrapper)
    return calls


def _gram_of(matvec):
    """The Gram matrix whose ``dot`` the Gram route solves, or None for the
    operator route's function."""
    return getattr(matvec, "__self__", None)


def _is_operator(matvec):
    return callable(matvec) and _gram_of(matvec) is None


def _factor_data(p, n, r):
    config = SyntheticConfig(n=n, p=p, r=r, varepsilon2=0.1, seed=p)
    return generate_dataset(config)[0].data


@pytest.mark.parametrize("p,n,r,lanczos", [(20, 500, 5, False),     # sweep-careful
                                           (30, 2000, 3, False),    # estimate-tall
                                           (1000, 2000, 10, True)])  # estimate-wide
def test_solver_rule_on_the_benchmark_shapes(monkeypatch, p, n, r, lanczos):
    # The two small shapes take the dense solve of the p x p Gram; the
    # wide one takes Lanczos on X (X^T v) / n and never forms a Gram.
    operands = []
    calls = _counting_lanczos(monkeypatch, operands=operands)
    eigendecompose(_factor_data(p, n, r), r)
    assert calls == ([(p, r)] if lanczos else [])
    assert all(_is_operator(a) for a in operands)
    assert spectral._gram_free_pays(p, n, r) == lanczos


def test_wide_data_solves_the_n_by_n_gram(monkeypatch):
    calls = _counting_lanczos(monkeypatch)
    x = substream(600, "rule").standard_normal((600, 100))
    decomp = eigendecompose(x, 5)
    assert calls == [(100, 5)]
    assert decomp.eigvecs_r.shape == (600, 5)
    assert decomp.scores.shape == (5, 100)


@pytest.mark.parametrize("p,n", [(1000, 2000), (2000, 1000)])
def test_gram_free_route_matches_full_eigh_oracle(monkeypatch, p, n):
    r = 10
    x = _factor_data(p, n, r)
    operands = []
    calls = _counting_lanczos(monkeypatch, operands=operands)
    decomp = eigendecompose(x, r)
    assert calls == [(p, r)]
    assert _is_operator(operands[0])
    want_vals, want_vecs, want_tail = full_eigh_decomposition(x, r)
    top = want_vals[0]
    assert np.max(np.abs(decomp.eigvals - want_vals[:r])) <= 1e-12 * top
    assert np.linalg.norm(_projector(decomp.eigvecs_r) - _projector(want_vecs)) <= 1e-10
    assert abs(decomp.tail_sum - want_tail) <= 1e-12 * np.sum(x * x) / n
    gram = decomp.scores @ decomp.scores.T
    assert np.linalg.norm(gram - n * np.eye(r)) <= 1e-8 * n


def test_gapless_input_falls_back_to_the_gram_route_bitwise(monkeypatch):
    # Pure noise has no gap after the 10th eigenvalue: Lanczos on the
    # operator stops after about one Gram formation's worth of products
    # (1000 / 30 of them) and the Gram route gives the result.
    p, n, r = 1000, 2000, 10
    x = substream(27, "oracle").standard_normal((p, n))
    real = spectral._lanczos
    products = []

    def counting(matvec, size, k, **kwargs):
        if _is_operator(matvec):
            def counted(v, operator=matvec):
                products.append(v)
                return operator(v)
            return real(counted, size, k, **kwargs)
        return real(matvec, size, k, **kwargs)

    operands = []
    calls = _counting_lanczos(monkeypatch, counting, operands)
    got = eigendecompose(x, r)
    assert calls == [(p, r), (p, r)]
    assert _is_operator(operands[0])
    assert isinstance(_gram_of(operands[1]), np.ndarray)
    assert 0 < len(products) <= min(p, n) // 30
    monkeypatch.setattr(spectral, "_gram_free_pays", lambda p, n, k: False)
    want = eigendecompose(x, r)
    assert calls[2:] == [(p, r)]
    assert np.array_equal(got.eigvals, want.eigvals)
    assert np.array_equal(got.eigvecs_r, want.eigvecs_r)
    assert np.array_equal(got.scores, want.scores)
    assert got.tail_sum == want.tail_sum


def _symmetric_test_matrix(kind, size):
    rng = substream(size, "dense", kind)
    if kind == "random":
        x = rng.standard_normal((size, 2 * size))
        return x @ x.T / (2 * size)
    if kind == "tied":
        basis = np.linalg.qr(rng.standard_normal((size, size)))[0]
        values = np.repeat([3.0, 1.0], [size - size // 2, size // 2])
        return (basis * values) @ basis.T
    if kind == "zero":
        return np.zeros((size, size))
    x = rng.standard_normal((size, 2)) @ rng.standard_normal((2, 3 * size))  # rank 2
    return x @ x.T / (3 * size)


@pytest.mark.parametrize("kind", ["random", "tied", "zero", "low_rank"])
def test_dense_subset_matches_eigh_bitwise(kind):
    # The dense step calls dsyevr as eigh(subset_by_index=...) does, so its
    # pairs are eigh's to the bit, k = size included.
    for size in (1, 2, 3, 5, 20, 60, 150):
        gram = _symmetric_test_matrix(kind, size)
        for k in sorted({1, min(2, size), (size + 1) // 2, size}):
            want_vals, want_vecs = scipy.linalg.eigh(
                gram.copy(), subset_by_index=[size - k, size - 1],
                overwrite_a=True, check_finite=False)
            got_vals, got_vecs = spectral._dense_subset(gram.copy(), k)
            assert got_vals.shape == (k,) and got_vecs.shape == (size, k)
            assert got_vals.tobytes() == want_vals.tobytes(), (size, k)
            assert got_vecs.tobytes() == want_vecs.tobytes(), (size, k)


def test_dense_subset_failure_raises_linalg_error(monkeypatch):
    real = spectral._flapack

    class Failing:
        dsyevr_lwork = real.dsyevr_lwork

        @staticmethod
        def dsyevr(a, **kwargs):
            *out, _ = real.dsyevr(a, **kwargs)
            return (*out, 3)

    monkeypatch.setattr(spectral, "_flapack", Failing)
    with pytest.raises(np.linalg.LinAlgError, match="info=3"):
        eigendecompose(substream(5, "rule").standard_normal((30, 100)), 3)


@pytest.mark.parametrize("solve", [eigendecompose, leading_eigenvalues])
def test_complex_input_is_rejected_by_dtype(monkeypatch, solve):
    calls = _counting_lanczos(monkeypatch)
    rng = substream(6, "complex")
    x = rng.standard_normal((5, 200)) + 1j * rng.standard_normal((5, 200))
    with pytest.raises(ValueError, match="x must be real, got dtype complex128"):
        solve(x, 2)
    with pytest.raises(ValueError, match="got dtype complex64"):
        solve(x.astype(np.complex64), 2)
    assert calls == []


# One shape per route: Lanczos on the operator, Lanczos on the Gram, the
# dense subset solve.
ROUTE_SHAPES = [(1000, 2000, 10), (300, 900, 5), (30, 100, 3)]


@pytest.mark.parametrize("p,n,r", ROUTE_SHAPES)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nan_or_inf_raises_before_any_solve(monkeypatch, p, n, r, bad):
    calls = _counting_lanczos(monkeypatch)
    x = substream(p, "rule").standard_normal((p, n))
    x[p // 2, n // 3] = bad
    for solve in (eigendecompose, leading_eigenvalues):
        with pytest.raises(ValueError, match="NaN or Inf"):
            solve(x, r)
    assert calls == []


@pytest.mark.parametrize("p,n,r", ROUTE_SHAPES)
def test_overflowing_sum_of_squares_is_named_without_warnings(monkeypatch, p, n, r):
    calls = _counting_lanczos(monkeypatch)
    x = 1e200 * substream(p, "rule").standard_normal((p, n))
    assert np.isfinite(x).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for solve in (eigendecompose, leading_eigenvalues):
            with pytest.raises(ValueError, match="sum of squares .* overflows"):
                solve(x, r)
    assert calls == []


def test_wide_rank_deficiency_is_named_without_warnings():
    # Rank 2 with p > n: the third eigenvalue is rounding noise, which the
    # rank check must name before any vector is divided by its root.
    rng = substream(26, "oracle")
    x = rng.standard_normal((600, 2)) @ rng.standard_normal((2, 100))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RankDeficiencyError, match="eigenvalue 3 "):
            eigendecompose(x, 3)
        eigvals = leading_eigenvalues(x, 3)
    assert np.all(np.isfinite(eigvals))
    assert eigvals[2] <= spectral.EIGENVALUE_FLOOR * eigvals[0]


def test_lanczos_no_convergence_falls_back_to_the_dense_solve(monkeypatch):
    def fails(matvec, size, k, **kwargs):
        return None

    # (300, 900, 5) tries Lanczos on the Gram matrix; (1000, 2000, 10) tries
    # the operator, then the Gram matrix.
    for (p, n, r), tries in [((300, 900, 5), 1), ((1000, 2000, 10), 2)]:
        x = substream(24, "oracle").standard_normal((p, n))
        with monkeypatch.context() as patch:
            operands = []
            calls = _counting_lanczos(patch, fails, operands)
            got = eigendecompose(x, r)
            assert calls == [(p, r)] * tries
            assert isinstance(_gram_of(operands[-1]), np.ndarray)
            assert all(_is_operator(a) for a in operands[:-1])
            patch.setattr(spectral, "_gram_free_pays", lambda p, n, k: False)
            patch.setattr(spectral, "_lanczos_pays", lambda size, k: False)
            want = eigendecompose(x, r)
            assert calls == [(p, r)] * tries
        assert np.array_equal(got.eigvals, want.eigvals)
        assert np.array_equal(got.eigvecs_r, want.eigvecs_r)
        assert np.array_equal(got.scores, want.scores)
        assert got.tail_sum == want.tail_sum


def test_lanczos_solve_ignores_global_random_state():
    x = substream(25, "oracle").standard_normal((300, 900))
    np.random.seed(1)
    first = eigendecompose(x, 5)
    np.random.seed(2)
    np.random.standard_normal(17)
    second = eigendecompose(x, 5)
    assert np.array_equal(first.eigvals, second.eigvals)
    assert np.array_equal(first.eigvecs_r, second.eigvecs_r)
    assert np.array_equal(first.scores, second.scores)
    assert first.tail_sum == second.tail_sum


# The shapes of the oracle test: Lanczos on the operator either way round,
# on the Gram matrix, and an operator solve that runs out of restarts.
ORACLE_CELLS = [(1000, 2000, 10, 0.1, 1000), (2000, 1000, 10, 0.1, 2000),
                (300, 900, 5, 0.1, 300), (1000, 2000, 10, 3.2, 1)]


@pytest.mark.parametrize("p,n,r,varepsilon2,seed", ORACLE_CELLS)
def test_lanczos_driver_matches_eigsh_bitwise(monkeypatch, p, n, r, varepsilon2, seed):
    # eigsh, kept here as the reference, solves what the route handed the
    # driver, with the same start vector, basis size and restart budget.
    real = spectral._lanczos
    solves = []

    def recording(matvec, size, k, **kwargs):
        pairs = real(matvec, size, k, **kwargs)
        solves.append((matvec, size, k, kwargs, pairs))
        return pairs

    monkeypatch.setattr(spectral, "_lanczos", recording)
    config = SyntheticConfig(n=n, p=p, r=r, varepsilon2=varepsilon2, seed=seed)
    eigendecompose(generate_dataset(config)[0].data, r)
    matvec, size, k, kwargs, pairs = solves[0]
    gram = _gram_of(matvec)
    a = gram if gram is not None else scipy.sparse.linalg.LinearOperator(
        (size, size), matvec=matvec, dtype=float)
    assert (gram is None) == spectral._gram_free_pays(p, n, r)
    v0 = np.random.default_rng(spectral._LANCZOS_START_SEED).standard_normal(size)
    solve = dict(which="LA", tol=0, v0=v0, ncv=spectral._lanczos_basis_size(k), **kwargs)
    if varepsilon2 > 1:
        assert pairs is None and len(solves) == 2
        with pytest.raises(scipy.sparse.linalg.ArpackNoConvergence):
            scipy.sparse.linalg.eigsh(a, k, **solve)
        return
    want_vals, want_vecs = scipy.sparse.linalg.eigsh(a, k, **solve)
    assert want_vals.shape == (k,)
    assert pairs[0].tobytes() == want_vals.tobytes()
    assert pairs[1].tobytes() == want_vecs.tobytes()


def _stub_arpack(monkeypatch, **routines):
    """Put in ``spectral`` an ARPACK extension whose routines are the real
    ones except those given as keywords."""
    real = spectral._arpacklib
    stub = SimpleNamespace(**{"dsaupd_wrap": real.dsaupd_wrap,
                              "dseupd_wrap": real.dseupd_wrap, **routines})
    monkeypatch.setattr(spectral, "_arpacklib", stub)


def test_lanczos_new_start_vector_is_drawn_from_the_fixed_seed(monkeypatch):
    # The stub asks for a new start vector (ido = 4) before ARPACK's first
    # step, which then starts from it; eigsh would draw it from fresh entropy.
    gram = _symmetric_test_matrix("random", 60)
    real = spectral._arpacklib.dsaupd_wrap
    starts, results = [], []

    def restart_once(state, resid, *buffers):
        if state["ido"] == 0 and len(starts) == len(results):  # not yet this solve
            state["ido"] = 4
            return
        if state["ido"] == 4:
            starts.append(resid.copy())
            state["ido"] = 0
        real(state, resid, *buffers)

    _stub_arpack(monkeypatch, dsaupd_wrap=restart_once)
    for _ in range(2):
        results.append(spectral._lanczos(gram.dot, 60, 3))
    assert len(starts) == 2
    fixed = np.random.default_rng(spectral._LANCZOS_START_SEED).standard_normal(60)
    assert not np.array_equal(starts[0], fixed)
    assert starts[0].tobytes() == starts[1].tobytes()
    assert results[0][0].tobytes() == results[1][0].tobytes()
    assert results[0][1].tobytes() == results[1][1].tobytes()
    want = np.linalg.eigvalsh(gram)[-3:]
    assert np.max(np.abs(results[0][0] - want)) <= 1e-12 * want[-1]


@pytest.mark.parametrize("routine,info", [("dsaupd", -9), ("dsaupd", 3),
                                          ("dseupd", -14)])
def test_lanczos_arpack_error_raises_linalg_error(monkeypatch, routine, info):
    def fails(state, *args):
        state["ido"], state["info"] = 99, info

    _stub_arpack(monkeypatch, **{routine + "_wrap": fails})
    gram = _symmetric_test_matrix("random", 60)
    message = f"ARPACK {routine} failed with info={info}$"
    with pytest.raises(np.linalg.LinAlgError, match=message):
        spectral._lanczos(gram.dot, 60, 3)


def test_arpack_state_is_the_one_scipy_builds(monkeypatch):
    # The driver binds to a private protocol of scipy's extension; this
    # compares the state it hands dsaupd with the one eigsh's parameter
    # object builds for the same solve.
    from scipy.sparse.linalg._eigen.arpack.arpack import _SymmetricArpackParams
    states = []

    def record(state, *args):
        states.append(dict(state))
        state["ido"], state["info"] = 99, -9

    _stub_arpack(monkeypatch, dsaupd_wrap=record)
    gram = _symmetric_test_matrix("random", 60)
    with pytest.raises(np.linalg.LinAlgError):
        spectral._lanczos(gram.dot, 60, 3, maxiter=7)
    want = _SymmetricArpackParams(60, 3, "d", gram.dot, ncv=20, v0=np.ones(60),
                                  maxiter=7, which="LA", tol=0).arpack_dict
    assert states[0] == want
    assert {key: type(value) for key, value in states[0].items()} == \
        {key: type(value) for key, value in want.items()}


# ---------------------------------------------------------------------------
# noise_variance_estimate
# ---------------------------------------------------------------------------

def test_noise_variance_arithmetic():
    decomp = _decomp_from_eigvals([5.0, 4.0, 1.0, 1.0, 1.0], r=2)
    assert noise_variance_estimate(decomp) == pytest.approx(1.0)
    decomp = _decomp_from_eigvals([3.0, 2.0, 2.0, 0.0], r=1)
    assert noise_variance_estimate(decomp) == pytest.approx(4.0 / 3.0)


def test_noise_variance_zero_tail_is_exact_zero():
    config = SyntheticConfig(n=100, p=12, r=3, varepsilon2=0.0, seed=9)
    observed, _ = generate_dataset(config)
    decomp = eigendecompose(observed.data, 3)
    assert noise_variance_estimate(decomp) == 0.0


def test_noise_variance_requires_p_above_r():
    decomp = _decomp_from_eigvals([2.0, 1.0], r=2)
    with pytest.raises(CorrectionInfeasibleError, match="uncorrected"):
        noise_variance_estimate(decomp)


def test_noise_variance_nonnegative():
    for seed in range(5):
        x = substream(seed, "x").standard_normal((15, 40))
        decomp = eigendecompose(x, 4)
        assert noise_variance_estimate(decomp) >= 0.0


# ---------------------------------------------------------------------------
# corrected_decomposition
# ---------------------------------------------------------------------------

def test_correction_arithmetic():
    x = substream(10, "x").standard_normal((5, 200))
    decomp = eigendecompose(x, 2)
    forced = PcaDecomposition(eigvals=np.array([5.0, 4.0]), tail_sum=3.0,
                              eigvecs_r=decomp.eigvecs_r, scores=decomp.scores)
    corrected = corrected_decomposition(forced)
    assert np.allclose(corrected.eigvals, [4.0, 3.0])
    assert np.allclose(corrected.sigma_n_hat, np.diag([0.25, 1.0 / 3.0]))
    # consistency: corrected eigenvalues plus the estimate give back D_r
    assert np.array_equal(corrected.eigvals + corrected.noise_var_hat,
                          forced.eigvals[:2])


def test_decomposition_fields_and_derived_properties():
    x = substream(11, "x").standard_normal((6, 80))
    decomp = eigendecompose(x, 2)
    assert [f.name for f in fields(PcaDecomposition)] == [
        "eigvals", "tail_sum", "eigvecs_r", "scores", "noise_var_hat"]
    assert (decomp.p, decomp.r) == (6, 2) == decomp.eigvecs_r.shape
    assert decomp.noise_var_hat is None and decomp.sigma_n_hat is None
    corrected = corrected_decomposition(decomp)
    assert corrected.r == 2
    assert corrected.eigvecs_r is decomp.eigvecs_r
    assert corrected.tail_sum == decomp.tail_sum
    assert np.array_equal(corrected.sigma_n_hat,
                          np.diag(corrected.noise_var_hat / corrected.eigvals))


def test_correction_applies_once():
    decomp = eigendecompose(substream(11, "x").standard_normal((6, 80)), 2)
    with pytest.raises(ValueError, match="already noise-corrected"):
        corrected_decomposition(corrected_decomposition(decomp))


def test_noiseless_correction_is_identity_bitwise():
    config = SyntheticConfig(n=150, p=10, r=2, varepsilon2=0.0, seed=3)
    observed, _ = generate_dataset(config)
    decomp = eigendecompose(observed.data, 2)
    corrected = corrected_decomposition(decomp)
    assert corrected.noise_var_hat == 0.0
    assert np.array_equal(corrected.eigvals, decomp.eigvals[:2])
    assert np.array_equal(corrected.scores, decomp.scores)
    assert np.allclose(corrected.sigma_n_hat, 0.0)


def test_corrected_scores_match_recomputed_whitening():
    # The corrected scores rescale the plain ones; on noisy data they must
    # equal V_r^T X whitened by the corrected eigenvalues.
    config = SyntheticConfig(n=4000, p=60, r=3, varepsilon2=0.5, seed=21)
    observed, _ = generate_dataset(config)
    decomp = eigendecompose(observed.data, 3)
    corrected = corrected_decomposition(decomp)
    assert corrected.noise_var_hat > 0.0
    oracle = (decomp.eigvecs_r.T @ observed.data) / np.sqrt(corrected.eigvals)[:, None]
    assert np.max(np.abs(corrected.scores - oracle)) <= 1e-12 * np.max(np.abs(oracle))


def test_correction_infeasible_raises():
    x = substream(12, "x").standard_normal((6, 100))
    decomp = eigendecompose(x, 3)
    forced = PcaDecomposition(eigvals=np.array([4.0, 3.0, 1.0]), tail_sum=6.0,
                              eigvecs_r=decomp.eigvecs_r, scores=decomp.scores)
    # tail mean 2.0 exceeds the third retained eigenvalue 1.0
    with pytest.raises(CorrectionInfeasibleError):
        corrected_decomposition(forced)


def test_corrected_sigma_n_matches_truth_oracle():
    # With identity noise covariance the score-noise covariance is
    # eps2 * S^{-2}; compare the diagonal estimate against that oracle.
    config = SyntheticConfig(n=4000, p=60, r=3, theta=0.2, varepsilon2=0.5, seed=14)
    observed, truth = generate_dataset(config)
    decomp = corrected_decomposition(eigendecompose(observed.data, 3))
    eps2 = config.varepsilon2 / (config.p * config.theta)
    oracle = eps2 / np.linalg.svd(truth.loading, compute_uv=False) ** 2
    est = np.diag(decomp.sigma_n_hat)
    assert np.max(np.abs(est - oracle)) <= 0.25 * np.max(oracle)


# ---------------------------------------------------------------------------
# select_rank
# ---------------------------------------------------------------------------

def test_select_rank_examples():
    assert select_rank(np.array([100.0, 99.0, 1.0, 0.9]), 3) == 2
    assert select_rank(np.array([10.0, 1.0]), 1) == 1
    assert select_rank(np.array([4.0, 2.0, 1.0]), 2) == 1  # tie -> smallest
    assert select_rank(np.array([3.0]), 2) == 1  # no ratio to compare


def test_select_rank_zero_tail():
    assert select_rank(np.array([5.0, 4.0, 0.0, 0.0]), 3) == 2


def test_select_rank_no_signal():
    with pytest.raises(NoSignalError):
        select_rank(np.zeros(4), 2)
    with pytest.raises(ValueError):
        select_rank(np.array([1.0]), 0)
    for r_max in (2.5, True, "2"):
        with pytest.raises(ValueError, match="r_max"):
            select_rank(np.array([1.0, 0.5]), r_max)
