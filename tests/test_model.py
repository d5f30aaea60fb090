"""Tests for the domain types and synthetic generators."""
import itertools
import tracemalloc

import numpy as np
import pytest
from helpers import ZeroDraws, reference_generate_dataset
from hypothesis import given, settings
from hypothesis import strategies as st

from dvarimax import (NOISE_KINDS, GroundTruth, ObservationMatrix,
                      SyntheticConfig, derive_seed, generate_dataset,
                      generate_factors, generate_loading, substream)
from dvarimax.model import _heteroscedastic_variances


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

def test_observation_matrix_validates():
    ObservationMatrix(np.zeros((3, 5)))
    with pytest.raises(ValueError):
        ObservationMatrix(np.zeros((3, 1)))          # n < 2
    with pytest.raises(ValueError):
        ObservationMatrix(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        ObservationMatrix(np.zeros(4))               # not 2-D
    with pytest.raises(ValueError, match="must be real, got dtype complex128"):
        ObservationMatrix(np.ones((2, 3)) + 1j)
    obs = ObservationMatrix(np.ones((2, 3)))
    assert obs.data.shape == (2, 3)


def test_noise_covariance_validates():
    base = dict(n=10, p=4, r=2, seed=1)
    for kind in NOISE_KINDS:
        SyntheticConfig(**base, noise_kind=kind)
    with pytest.raises(ValueError, match="noise_kind"):
        SyntheticConfig(**base, noise_kind="weird")
    with pytest.raises(ValueError):
        SyntheticConfig(**base, noise_kind="toeplitz", noise_rho=1.0)
    for alpha in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            SyntheticConfig(**base, noise_kind="heteroscedastic", noise_alpha=alpha)
    # a bool or a string is no exponent or decay
    for kind, name, value in (("heteroscedastic", "alpha", True),
                              ("heteroscedastic", "alpha", "1"), ("toeplitz", "rho", "0.5")):
        with pytest.raises(ValueError, match=name):
            SyntheticConfig(**base, noise_kind=kind, **{f"noise_{name}": value})
    # a setting that the kind does not read is checked too
    for name, value in (("rho", 1.5), ("alpha", "x")):
        with pytest.raises(ValueError, match=name):
            SyntheticConfig(**base, noise_kind="identity", **{f"noise_{name}": value})


def test_synthetic_config_validates():
    SyntheticConfig(n=10, p=4, r=2, seed=1)
    with pytest.raises(ValueError):
        SyntheticConfig(n=10, p=4, r=5, seed=1)      # r > min(p, n)
    with pytest.raises(ValueError):
        SyntheticConfig(n=10, p=4, r=2, theta=0.0, seed=1)
    for eps2 in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError):
            SyntheticConfig(n=10, p=4, r=2, varepsilon2=eps2, seed=1)
    for bad in (dict(n=100.5), dict(r=2.0), dict(seed=1.5), dict(p=True),
                dict(seed=-1), dict(seed=2 ** 64)):
        with pytest.raises(ValueError):
            SyntheticConfig(**{**dict(n=10, p=4, r=2, seed=1), **bad})
    SyntheticConfig(n=np.int64(10), p=np.int32(4), r=np.int64(2), seed=np.int64(1))
    # theta=True would draw Gaussian factors, as theta=1 does
    for bad in (dict(theta=True), dict(theta=np.True_), dict(varepsilon2=True),
                dict(theta="0.5"), dict(varepsilon2="0.1")):
        with pytest.raises(ValueError, match=next(iter(bad))):
            SyntheticConfig(**{**dict(n=10, p=4, r=2, seed=1), **bad})


# ---------------------------------------------------------------------------
# generate_loading
# ---------------------------------------------------------------------------

def test_loading_scalar_is_sign():
    loading = generate_loading(1, 1, substream(3, "loading"))
    assert loading.shape == (1, 1)
    assert abs(abs(loading[0, 0]) - 1.0) < 1e-15


@pytest.mark.parametrize("p,r,seed", [(300, 5, 7), (10, 3, 0), (50, 50, 2)])
def test_loading_unit_operator_norm_and_full_rank(p, r, seed):
    loading = generate_loading(p, r, substream(seed, "loading"))
    singulars = np.linalg.svd(loading, compute_uv=False)
    assert abs(singulars[0] - 1.0) <= 1e-12
    assert singulars[-1] > 0


def test_loading_deterministic():
    a = generate_loading(20, 4, substream(11, "loading"))
    b = generate_loading(20, 4, substream(11, "loading"))
    assert np.array_equal(a, b)
    with pytest.raises(ValueError, match="unsupported stream tag type: object"):
        substream(1, object())
    # a bool tag keys the stream of the integer it equals
    assert np.array_equal(substream(1, True).random(3), substream(1, 1).random(3))
    # a seed is an integer in [0, 2**64), passed as it is: 1.5 would key the
    # stream of 1, and -1 or 2**64 that of 2**64 - 1 or 0 under a 64-bit mask
    for bad in (1.5, 1.0, True, "1", None, -1, 2 ** 64):
        for derive in (substream, derive_seed):
            with pytest.raises(ValueError, match="seed"):
                derive(bad, "a")
    assert derive_seed(np.int64(3), "x") == derive_seed(3, "x")
    assert derive_seed(np.uint64(2 ** 64 - 1), "x") == derive_seed(2 ** 64 - 1, "x")


def test_loading_rejects_r_above_p():
    with pytest.raises(ValueError):
        generate_loading(3, 4, substream(0, "loading"))
    with pytest.raises(ValueError, match="r=0 must be >= 1"):
        generate_loading(3, 0, substream(0, "loading"))
    with pytest.raises(ValueError, match="zero operator norm"):
        generate_loading(3, 2, ZeroDraws())
    for p, r in ((2.5, 1), (3, 1.0), (0, 0), (True, 1), (3, "1")):
        with pytest.raises(ValueError, match="p=|r="):
            generate_loading(p, r, substream(0, "loading"))


# ---------------------------------------------------------------------------
# generate_factors
# ---------------------------------------------------------------------------

def test_factors_rejects_bad_theta():
    rng = substream(0, "factors")
    for theta in (0.0, -0.2, 1.5, True, "0.5"):
        with pytest.raises(ValueError, match="theta"):
            generate_factors(2, 10, theta, rng)
    # so are the shape arguments: integers, each at least 1
    for r, n in ((2, 5.0), (-1, 5), (0, 5), (2, 0), (True, 5)):
        with pytest.raises(ValueError, match="r=|n="):
            generate_factors(r, n, 0.5, rng)


def test_factors_theta_one_is_gaussian():
    z = generate_factors(1, 200_000, 1.0, substream(5, "factors"))
    assert np.all(z != 0)  # no mask zeros
    m2 = np.mean(z ** 2)
    m4 = np.mean(z ** 4)
    kappa = (m4 / m2 ** 2 - 3.0) / 3.0
    assert abs(kappa) < 0.05


def test_factors_excess_kurtosis_matches_moment_identity():
    # For mask probability theta: E[Z^2] = theta, E[Z^4] = 3 theta, so the
    # excess kurtosis m4 / m2^2 - 3 is 3/theta - 3, and kappa, one third of
    # it, is (3/theta - 3) / 3 = 9 at theta = 0.1.  Monte-Carlo on 10^6 draws.
    z = generate_factors(1, 1_000_000, 0.1, substream(42, "factors"))
    m2 = np.mean(z ** 2)
    m4 = np.mean(z ** 4)
    kappa = (m4 / m2 ** 2 - 3.0) / 3.0
    assert abs(kappa - 9.0) <= 0.5


def test_factors_zero_fraction():
    theta, n = 0.3, 100_000
    z = generate_factors(1, n, theta, substream(9, "factors"))
    frac_zero = np.mean(z == 0.0)
    sd = np.sqrt(theta * (1 - theta) / n)
    assert abs(frac_zero - (1 - theta)) <= 3 * sd


def test_factors_rows_uncorrelated():
    n = 100_000
    z = generate_factors(4, n, 0.2, substream(13, "factors"))
    cov = z @ z.T / n
    off = cov - np.diag(np.diag(cov))
    assert np.max(np.abs(off)) <= 4 / np.sqrt(n)


# ---------------------------------------------------------------------------
# heteroscedastic noise variances
# ---------------------------------------------------------------------------

def test_heteroscedastic_alpha_zero_is_identity():
    variances = _heteroscedastic_variances(4, 0.0, substream(1, "cov"))
    assert np.allclose(variances, np.ones(4), atol=1e-12)


def test_heteroscedastic_trace_is_p():
    for seed in range(5):
        variances = _heteroscedastic_variances(31, 0.7, substream(seed, "cov"))
        assert abs(variances.sum() - 31) <= 1e-10
        assert np.all(variances >= 0)


# ---------------------------------------------------------------------------
# generate_dataset
# ---------------------------------------------------------------------------

def test_noiseless_dataset_is_exact_product():
    config = SyntheticConfig(n=40, p=10, r=3, theta=0.5, varepsilon2=0.0, seed=21)
    observed, truth = generate_dataset(config)
    assert np.array_equal(observed.data, truth.loading @ truth.factors)
    assert np.linalg.matrix_rank(observed.data) <= 3


def test_dataset_paper_grid_point_shapes():
    config = SyntheticConfig(n=900, p=300, r=5, theta=0.1, varepsilon2=0.1, seed=1)
    observed, truth = generate_dataset(config)
    assert observed.data.shape == (300, 900)
    assert truth.loading.shape == (300, 5)
    assert truth.factors.shape == (5, 900)


def test_dataset_deterministic():
    config = SyntheticConfig(n=50, p=8, r=2, seed=77,
                             noise_kind="toeplitz", noise_rho=0.5)
    obs_a, truth_a = generate_dataset(config)
    obs_b, truth_b = generate_dataset(config)
    assert np.array_equal(obs_a.data, obs_b.data)
    assert np.array_equal(truth_a.loading, truth_b.loading)


@settings(max_examples=40)
@given(seed=st.integers(0, 2 ** 64 - 1), eps2=st.floats(0.0, 3.2),
       kind=st.sampled_from(NOISE_KINDS), data=st.data())
def test_loading_and_factor_draws_ignore_the_noise_settings(seed, eps2, kind, data):
    # the loading and factors come from their own streams of the seed, so
    # the noise level and kind leave them as the noiseless identity draw has them
    p = data.draw(st.integers(1, 12), label="p")
    n = data.draw(st.integers(2, 60), label="n")
    r = data.draw(st.integers(1, min(p, n)), label="r")
    _, truth = generate_dataset(SyntheticConfig(n=n, p=p, r=r, varepsilon2=eps2,
                                                noise_kind=kind, seed=seed))
    _, plain = generate_dataset(SyntheticConfig(n=n, p=p, r=r, varepsilon2=0.0,
                                                noise_kind="identity", seed=seed))
    assert truth.loading.tobytes() == plain.loading.tobytes()
    assert truth.factors.tobytes() == plain.factors.tobytes()


def test_ground_truth_svd_reconstruction_and_scaling():
    for seed in range(4):
        config = SyntheticConfig(n=60, p=20, r=4, seed=seed)
        _, truth = generate_dataset(config)
        assert abs(np.linalg.norm(truth.loading, 2) - 1.0) <= 1e-10


def test_ground_truth_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        GroundTruth(loading=np.zeros((4, 2)), factors=np.zeros((3, 5)))


@pytest.mark.parametrize("p,n,r", [
    (40, 7, 3),        # p > n
    (1, 30, 1),        # p = 1: numpy multiplies a row vector by the factors
    (25, 60, 1),       # r = 1
    (3, 2, 2),         # n = 2
    (700, 100, 4),     # several noise blocks, the last one short
    (3, 40000, 2),     # rows longer than a noise block
    (300, 900, 5),     # where a two-thread scipy dgemm rounds unlike numpy
    (400, 450, 385),   # an inner dimension that a BLAS sums in pieces
])
def test_dataset_matches_the_reference_bytewise(p, n, r):
    # Toeplitz rows come from the AR(1) recursion, which applies the
    # Cholesky factor of the oracle's Sigma_E one row at a time and so
    # rounds its noise differently; every other draw is the same bytes.
    settings = itertools.product(NOISE_KINDS, (0.0, 0.1, 0.8), (0.0, 0.7, 4.0),
                                 (0.5, 0.9, 0.99))
    for seed, (kind, eps2, alpha, rho) in enumerate(settings):
        config = SyntheticConfig(n=n, p=p, r=r, varepsilon2=eps2, noise_kind=kind,
                                 noise_alpha=alpha, noise_rho=rho, seed=seed)
        observed, truth = generate_dataset(config)
        x, loading, factors = reference_generate_dataset(config)
        if kind == "toeplitz" and eps2 > 0:
            noise = np.max(np.abs(x - loading @ factors))
            assert np.max(np.abs(observed.data - x)) <= 1e-12 * noise, config
        else:
            assert observed.data.tobytes() == x.tobytes(), config
        assert truth.loading.tobytes() == loading.tobytes(), config
        assert truth.factors.tobytes() == factors.tobytes(), config


@pytest.mark.parametrize("kind", NOISE_KINDS)
@pytest.mark.parametrize("p,n", [(2000, 200), (200, 2000)])
def test_dataset_holds_one_data_sized_buffer(kind, p, n):
    # a p x n noise array or product beside X would take the peak to twice
    # X's bytes, and a p x p Sigma_E or its Cholesky factor at p = 2000 to
    # over ten times
    config = SyntheticConfig(n=n, p=p, r=5, noise_kind=kind, seed=3)
    generate_dataset(config)
    tracemalloc.start()
    try:
        observed, _ = generate_dataset(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * observed.data.nbytes
