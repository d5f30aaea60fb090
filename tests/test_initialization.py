"""Tests for the deflation-round initializers."""
from dataclasses import fields

import numpy as np
import pytest
from helpers import (ZeroDraws, batched_svd_mom_init, hand_instance, mom_matrix,
                     mom_slices, objective, random_draw, random_orthogonal, unit_columns,
                     unpruned_mom_init)
from hypothesis import given, settings
from hypothesis import strategies as st

from dvarimax import (DegenerateSlicingError, DivergenceError, FourthMoment, InitScheme,
                      RotationSolveConfig, SyntheticConfig, complement_basis, deflate,
                      estimate_loading, fourth_moment, generate_dataset, generate_factors,
                      initialization, make_init_provider, mom_init, multi_random_init,
                      slice_operator, substream)
from dvarimax.initialization import SUBTRACTION_MODES


def _empty_prior(r):
    return np.zeros((r, 0))


def _random_start(prior, rng):
    """The start that the ``random`` scheme's provider draws for ``prior``."""
    stat = fourth_moment(substream(0, "stat").standard_normal((prior.shape[0], 30)))
    return make_init_provider(InitScheme.random(), stat, rng)(prior)


# ---------------------------------------------------------------------------
# InitScheme
# ---------------------------------------------------------------------------

def test_init_scheme_defaults_and_labels():
    assert InitScheme.random().label == "random"
    assert InitScheme.multi_random().draws_for(5) == 25
    assert InitScheme.multi_random(7).draws_for(5) == 7
    assert InitScheme.method_of_moments().slices_for(5) == 100
    assert InitScheme.method_of_moments().slices_for(1) == 16
    assert InitScheme.method_of_moments().subtraction == "as_written"
    assert [spec.name for spec in fields(InitScheme)] == [
        "label", "draws", "slices", "subtraction"]
    with pytest.raises(ValueError):
        InitScheme("bogus")
    for mode in SUBTRACTION_MODES:
        assert InitScheme("mom", subtraction=mode).subtraction == mode
    for label in ("random", "multi_random"):
        with pytest.raises(ValueError, match="subtraction applies only to the mom scheme"):
            InitScheme(label, subtraction="lemma_consistent")
    with pytest.raises(ValueError, match="subtraction must be one of"):
        InitScheme.method_of_moments(subtraction="lemma-consistent")
    with pytest.raises(ValueError):
        InitScheme.multi_random(0)
    with pytest.raises(ValueError):
        InitScheme("random", draws=5)
    with pytest.raises(ValueError):
        InitScheme("mom", draws=3)
    with pytest.raises(ValueError):
        InitScheme("multi_random", slices=9)
    for bad in (2.5, True):
        with pytest.raises(ValueError):
            InitScheme.multi_random(bad)
        with pytest.raises(ValueError):
            InitScheme.method_of_moments(bad)
    assert InitScheme.multi_random(np.int64(7)).draws_for(5) == 7
    assert InitScheme.method_of_moments(np.int64(9)).slices_for(5) == 9


# A value away from each setting's default, and the one scheme that reads it.
_SETTINGS = {"draws": (3, "multi_random"), "slices": (5, "mom"),
             "subtraction": ("lemma_consistent", "mom")}


@pytest.mark.parametrize("setting", _SETTINGS)
@pytest.mark.parametrize("label", InitScheme.LABELS)
def test_a_scheme_takes_exactly_the_settings_it_reads(label, setting):
    value, reader = _SETTINGS[setting]
    if setting in InitScheme.READS[label]:
        assert getattr(InitScheme(label, **{setting: value}), setting) == value
    else:
        with pytest.raises(ValueError,
                           match=f"^{setting} applies only to the {reader} scheme$"):
            InitScheme(label, **{setting: value})
    # each setting has one reader, and _SETTINGS names every setting
    assert [name for name, read in InitScheme.READS.items() if setting in read] == [reader]
    assert set(_SETTINGS) == {spec.name for spec in fields(InitScheme)} - {"label"}


def test_init_scheme_rejects_unknown_labels_and_a_positional_flag():
    for label in ("bogus", "mom_improved"):
        with pytest.raises(ValueError, match="label must be one of"):
            InitScheme(label)
    # the removed positional ``improved`` flag must not bind to ``subtraction``
    with pytest.raises(ValueError, match="subtraction must be one of"):
        InitScheme.method_of_moments(8, True)


# ---------------------------------------------------------------------------
# complement projector / basis
# ---------------------------------------------------------------------------

def test_complement_projector_cases():
    # mom_init multiplies each slice on both sides by I - QQ^T: the identity
    # for no prior columns, diag(0, 1, 1) for Q = e1
    u = substream(12, "init").standard_normal((3, 60))
    operator = slice_operator(fourth_moment(u))
    e1 = np.eye(3)[:, :1]
    for prior, proj in ((_empty_prior(3), np.eye(3)), (e1, np.diag([0.0, 1.0, 1.0]))):
        q0 = mom_init(operator, prior, 1, rng=substream(13, "init"))
        g = substream(13, "init").standard_normal((1, 3, 3))
        left = np.linalg.svd(proj @ mom_slices(operator, g)[0] @ proj)[0][:, 0]
        if left[np.argmax(np.abs(left))] < 0:
            left = -left
        assert np.allclose(q0, left, atol=1e-12)
    assert abs(q0[0]) <= 1e-12


def test_complement_projector_rejects_non_unit():
    operator = slice_operator(fourth_moment(substream(14, "init").standard_normal((3, 60))))
    with pytest.raises(ValueError, match="prior columns must be unit-norm"):
        mom_init(operator, 2.0 * np.eye(3)[:, :1], 4, rng=substream(15, "init"))


def test_complement_basis_spans_orthocomplement():
    rng = substream(1, "init")
    prior = random_orthogonal(6, rng)[:, :2]
    basis = complement_basis(prior)
    assert basis.shape == (6, 4)
    assert np.linalg.norm(basis.T @ basis - np.eye(4)) <= 1e-12
    assert np.max(np.abs(prior.T @ basis)) <= 1e-12


def test_complement_basis_full_prior_raises():
    with pytest.raises(ValueError, match="3 prior columns leave no complement"):
        complement_basis(np.eye(3))
    with pytest.raises(ValueError, match="2-D"):
        complement_basis(np.ones(3))
    # a non-finite column has no norm to check, and no complement
    for bad in (np.nan, np.inf):
        prior = np.eye(3)[:, :2]
        prior[0, 1] = bad
        for call in (complement_basis,
                     lambda prior: _random_start(prior, substream(0, "init")),
                     lambda prior: mom_init(slice_operator(fourth_moment(np.eye(3))),
                                            prior, 4, rng=substream(0, "init"))):
            with pytest.raises(ValueError, match="unit-norm"):
                call(prior)
    # a draw of zeros has no direction to normalize
    with pytest.raises(ValueError, match="zero norm"):
        _random_start(_empty_prior(3), ZeroDraws())


# ---------------------------------------------------------------------------
# the random scheme
# ---------------------------------------------------------------------------

def test_random_init_unconstrained_is_normalized_gaussian():
    rng_a = substream(2, "init")
    rng_b = substream(2, "init")
    q0 = _random_start(_empty_prior(4), rng_a)
    g = rng_b.standard_normal(4)
    assert np.allclose(q0, g / np.linalg.norm(g), atol=1e-15)


def test_random_init_one_dimensional_complement():
    rng = substream(3, "init")
    q0 = _random_start(np.eye(2)[:, :1], rng)
    assert abs(abs(q0[1]) - 1.0) <= 1e-12
    assert abs(q0[0]) <= 1e-12


def test_random_init_orthogonal_to_orthonormal_priors():
    rng = substream(4, "init")
    for _ in range(10):
        prior = random_orthogonal(6, rng)[:, :3]
        q0 = _random_start(prior, rng)
        assert abs(np.linalg.norm(q0) - 1.0) <= 1e-12
        assert np.max(np.abs(prior.T @ q0)) <= 1e-10


# ---------------------------------------------------------------------------
# multi_random_init
# ---------------------------------------------------------------------------

def test_multi_random_single_draw_equals_random_init():
    # The random scheme is multi_random with one draw: both give the
    # reference draw, and the same fit bit for bit.
    u = hand_instance()
    a = multi_random_init(fourth_moment(u), _empty_prior(2), 1, substream(5, "init"))
    b = random_draw(_empty_prior(2), substream(5, "init"))
    assert np.array_equal(a, b)
    assert np.array_equal(_random_start(_empty_prior(2), substream(5, "init")), b)
    assert InitScheme.random().draws_for(5) == 1
    observed, _ = generate_dataset(SyntheticConfig(n=300, p=12, r=3, varepsilon2=0.3, seed=5))
    fits = [estimate_loading(observed.data, 3, "improved2", scheme,
                             RotationSolveConfig(step_size=1e-2), substream(5, "fit"))
            for scheme in (InitScheme.random(), InitScheme.multi_random(1))]
    assert np.array_equal(fits[0].lambda_hat, fits[1].lambda_hat)
    assert np.array_equal(fits[0].diagnostics.iter_counts, fits[1].diagnostics.iter_counts)
    c = multi_random_init(fourth_moment(u), _empty_prior(2), np.int64(1),
                          substream(5, "init"))
    assert np.array_equal(c, b)
    for bad in (0, 2.5, True):
        with pytest.raises(ValueError, match="draws"):
            multi_random_init(fourth_moment(u), _empty_prior(2), bad, substream(5, "init"))


def test_multi_random_selects_argmin_objective():
    u = hand_instance()
    chosen = multi_random_init(fourth_moment(u), _empty_prior(2), 64, substream(6, "init"))
    # reproduce the candidate sequence with an identical stream
    rng = substream(6, "init")
    candidates = [random_draw(_empty_prior(2), rng) for _ in range(64)]
    values = [objective(c, u) for c in candidates]
    assert objective(chosen, u) == min(values)
    assert np.array_equal(chosen, candidates[int(np.argmin(values))])


def test_multi_random_with_a_prior_draws_from_one_complement_basis(monkeypatch):
    # The chosen start is the one the per-draw reference loop picks, and
    # the complement of the prior columns is computed once for all draws.
    rng = substream(8, "init")
    r, draws = 5, 25
    stat = fourth_moment(generate_factors(r, 300, 0.2, rng))
    prior = np.linalg.qr(rng.standard_normal((r, 2)))[0]
    loop_rng = substream(9, "init")
    candidates = [random_draw(prior, loop_rng) for _ in range(draws)]
    want = candidates[int(np.argmin([stat.objective(c) for c in candidates]))]
    calls = []

    def counting_basis(p):
        calls.append(p)
        return complement_basis(p)

    monkeypatch.setattr(initialization, "complement_basis", counting_basis)
    got = multi_random_init(stat, prior, draws, substream(9, "init"))
    assert np.array_equal(got, want)
    assert len(calls) == 1


def test_multi_random_deterministic():
    u = hand_instance()
    a = multi_random_init(fourth_moment(u), _empty_prior(2), 16, substream(7, "init"))
    b = multi_random_init(fourth_moment(u), _empty_prior(2), 16, substream(7, "init"))
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# mom_matrix
# ---------------------------------------------------------------------------

def test_mom_matrix_zero_slice():
    u = hand_instance()
    assert np.array_equal(mom_matrix(u, np.zeros((2, 2))), np.zeros((2, 2)))


def test_mom_matrix_hand_arithmetic():
    got = mom_matrix(hand_instance(), np.eye(2))
    assert np.allclose(got, np.diag([-4.0 / 3.0, -4.0 / 3.0]), atol=1e-14)


def test_mom_matrix_linear_in_slice():
    rng = substream(8, "init")
    u = rng.standard_normal((4, 50))
    g1 = rng.standard_normal((4, 4))
    g2 = rng.standard_normal((4, 4))
    for kwargs in ({}, {"subtraction": "lemma_consistent"}):
        combo = mom_matrix(u, 2.0 * g1 - 3.0 * g2, **kwargs)
        parts = 2.0 * mom_matrix(u, g1, **kwargs) - 3.0 * mom_matrix(u, g2, **kwargs)
        assert np.linalg.norm(combo - parts) <= 1e-10 * max(np.linalg.norm(parts), 1.0)


def test_mom_matrix_mode_difference_is_deterministic():
    # the two subtraction modes differ by tr(G)/3 * I - (2/3)(G + G^T)
    rng = substream(9, "init")
    u = rng.standard_normal((3, 40))
    g = rng.standard_normal((3, 3))
    diff = mom_matrix(u, g, subtraction="lemma_consistent") - mom_matrix(u, g)
    expected = -np.trace(g) * np.eye(3) / 3.0 + (2.0 / 3.0) * (g + g.T)
    assert np.allclose(diff, expected, atol=1e-12)


def test_mom_matrix_expectation_oracle():
    # Monte-Carlo expectation over resampled unit-variance sparse factors
    # with identity mixing: the kurtosis term is kappa * diag(G), and each
    # subtraction mode leaves its own deterministic residual.
    rng = substream(10, "init")
    r, theta, resamples, n = 3, 0.1, 200, 20000
    kappa = 1.0 / theta - 1.0
    g = rng.standard_normal((r, r))
    acc_written = np.zeros((r, r))
    acc_lemma = np.zeros((r, r))
    for _ in range(resamples):
        u = generate_factors(r, n, theta, rng) / np.sqrt(theta)
        acc_written += mom_matrix(u, g)
        acc_lemma += mom_matrix(u, g, subtraction="lemma_consistent")
    sym = g + g.T
    kappa_term = kappa * np.diag(np.diag(g))
    expect_written = kappa_term + np.trace(g) * np.eye(r) / 3.0 + sym / 3.0 - sym
    expect_lemma = kappa_term
    assert np.max(np.abs(acc_written / resamples - expect_written)) <= 0.35
    assert np.max(np.abs(acc_lemma / resamples - expect_lemma)) <= 0.35


# ---------------------------------------------------------------------------
# mom_init
# ---------------------------------------------------------------------------

def test_mom_init_scalar_dimension():
    q0 = mom_init(slice_operator(fourth_moment(np.ones((1, 10)))), _empty_prior(1), 4,
                  rng=substream(11, "init"))
    assert np.array_equal(q0, np.ones(1))


def test_mom_init_single_slice_is_leading_singular_vector():
    rng = substream(12, "init")
    u = rng.standard_normal((3, 60))
    operator = slice_operator(fourth_moment(u))
    # with no prior columns the slice is multiplied by the identity only
    q0 = mom_init(operator, _empty_prior(3), 1, rng=substream(13, "init"))
    g = substream(13, "init").standard_normal((3, 3))
    m = mom_matrix(u, g)
    left = np.linalg.svd(m)[0][:, 0]
    if left[np.argmax(np.abs(left))] < 0:
        left = -left
    assert np.allclose(q0, left, atol=1e-12)
    same = mom_init(operator, _empty_prior(3), np.int64(1), rng=substream(13, "init"))
    assert np.array_equal(same, q0)
    for bad in (0, 2.5, True):
        with pytest.raises(ValueError, match="n_slices"):
            mom_init(operator, _empty_prior(3), bad, rng=substream(13, "init"))
    with pytest.raises(TypeError, match="rng"):
        mom_init(operator, _empty_prior(3), 1)


def test_mom_init_gap_selection_dominates():
    rng = substream(14, "init")
    u = generate_factors(3, 5000, 0.2, rng) / np.sqrt(0.2)
    draws = substream(15, "init")
    q0 = mom_init(slice_operator(fourth_moment(u)), _empty_prior(3), 8, rng=draws)
    # recompute every slice's gap with an identical stream
    fresh = substream(15, "init")
    gaps, vectors = [], []
    for _ in range(8):
        g = fresh.standard_normal((3, 3))
        sv = np.linalg.svd(mom_matrix(u, g), compute_uv=False)
        gaps.append(sv[0] - sv[1])
    assert max(gaps) == pytest.approx(gaps[int(np.argmax(gaps))])
    # the selected slice's gap is >= every other slice's gap
    best = int(np.argmax(gaps))
    assert all(gaps[best] >= gap for gap in gaps)
    assert abs(np.linalg.norm(q0) - 1.0) <= 1e-12


def test_mom_init_recovers_axes_noiseless():
    hits = 0
    for seed in range(1, 51):
        rng = substream(seed, "mom-axis")
        u = generate_factors(2, 50000, 0.1, rng) / np.sqrt(0.1)
        q0 = mom_init(slice_operator(fourth_moment(u)), _empty_prior(2), 16, rng=rng)
        dist = min(min(np.linalg.norm(q0 - e), np.linalg.norm(q0 + e))
                   for e in np.eye(2))
        hits += dist <= 0.2
    assert hits >= 45  # >= 90% of 50 seeds


def test_mom_init_projected_round_stays_in_complement():
    rng = substream(16, "init")
    u = generate_factors(3, 4000, 0.2, rng) / np.sqrt(0.2)
    prior = np.eye(3)[:, :1]
    q0 = mom_init(slice_operator(fourth_moment(u)), prior, 8, rng=rng)
    assert abs(q0[0]) <= 1e-10


def test_mom_init_checks_the_slice_operator_settings():
    stat = fourth_moment(substream(14, "init").standard_normal((3, 60)))
    with pytest.raises(ValueError, match="subtraction must be one of as_written, "
                                         "lemma_consistent, got 'lemma-consistent'"):
        slice_operator(stat, subtraction="lemma-consistent")
    operator = slice_operator(stat)
    for bad in (operator[:8, :8], operator[:, :8], np.zeros((0, 0))):
        with pytest.raises(ValueError, match="operator must be r\\^2 x r\\^2"):
            mom_init(bad, _empty_prior(3), 4, rng=substream(15, "init"))
    with pytest.raises(ValueError, match="operator must be 2-D, got shape \\(81,\\)"):
        mom_init(operator.ravel(), _empty_prior(3), 4, rng=substream(15, "init"))
    with pytest.raises(ValueError, match="prior must have 3 rows, got 2"):
        mom_init(operator, _empty_prior(2), 4, rng=substream(15, "init"))


def test_mom_init_deterministic():
    rng_data = substream(17, "init")
    u = rng_data.standard_normal((4, 200))
    operator = slice_operator(fourth_moment(u))
    a = mom_init(operator, _empty_prior(4), 8, rng=substream(18, "init"))
    b = mom_init(operator, _empty_prior(4), 8, rng=substream(18, "init"))
    assert np.array_equal(a, b)


@settings(max_examples=20)
@given(r=st.integers(2, 8), k=st.integers(0, 7), slices=st.integers(1, 40),
       seed=st.integers(0, 2 ** 32 - 1),
       mode=st.sampled_from(["as_written", "lemma_consistent"]))
def test_mom_init_picks_the_slice_a_loop_over_mom_matrix_picks(r, k, slices, seed, mode):
    rng = np.random.default_rng(seed)
    u = generate_factors(r, 400, 0.2, rng) / np.sqrt(0.2)
    prior = random_orthogonal(r, rng)[:, :min(k, r - 2)]
    got = mom_init(slice_operator(fourth_moment(u), mode), prior, slices,
                   rng=substream(seed, "batched"))
    # the reference: one draw, one moment slice and one SVD per slice
    draws = substream(seed, "batched")
    proj = np.eye(r) - prior @ prior.T
    gaps, leading = [], []
    for _ in range(slices):
        m = proj @ mom_matrix(u, draws.standard_normal((r, r)), mode) @ proj
        left, singulars, _ = np.linalg.svd(m)
        gaps.append(singulars[0] - singulars[1])
        leading.append(left[:, 0])
    want = leading[int(np.argmax(gaps))]
    want = want if want[np.argmax(np.abs(want))] > 0 else -want
    assert np.max(np.abs(got - want)) <= 1e-8


@settings(max_examples=30)
@given(r=st.integers(2, 10), k=st.integers(0, 9), slices=st.integers(1, 400),
       seed=st.integers(0, 2 ** 32 - 1),
       mode=st.sampled_from(["as_written", "lemma_consistent"]))
def test_mom_init_returns_the_batched_svd_selection_bitwise(r, k, slices, seed, mode):
    rng = np.random.default_rng(seed)
    u = generate_factors(r, 300, 0.2, rng) / np.sqrt(0.2)
    prior = random_orthogonal(r, rng)[:, :min(k, r - 1)]
    operator = slice_operator(fourth_moment(u), mode)
    got = mom_init(operator, prior, slices, rng=substream(seed, "slices"))
    want = batched_svd_mom_init(operator, prior, slices, rng=substream(seed, "slices"))
    assert np.array_equal(got, want)
    # A stack whose every slice is zero has no gap to pick by.
    zeros = np.zeros((r * r, r * r))
    for init in (mom_init, batched_svd_mom_init):
        with pytest.raises(DegenerateSlicingError):
            init(zeros, prior, slices, rng=substream(seed, "slices"))


class _FixedDraws(np.random.Generator):
    """The rng of ``mom_init``: its one standard-normal draw returns the
    given stack of slicing matrices."""

    def __init__(self, g):
        super().__init__(np.random.PCG64(0))
        self.g = g

    def standard_normal(self, shape):
        assert shape == self.g.shape
        return self.g.copy()


@settings(max_examples=60)
@given(r=st.integers(1, 10), k=st.integers(0, 9), slices=st.integers(1, 400),
       distinct=st.integers(1, 400), tilt=st.sampled_from([0.0, 0.05, 1.0]),
       scale=st.sampled_from([1.0, 1e40]), seed=st.integers(0, 2 ** 32 - 1),
       mode=st.sampled_from(["as_written", "lemma_consistent"]))
def test_mom_init_returns_the_unpruned_selection_bitwise(
        r, k, slices, distinct, tilt, scale, seed, mode):
    # Priors are unit columns that need not be orthogonal, as deflate
    # passes them.  The slicing matrices repeat with period ``distinct``,
    # so when it is below ``slices`` the stack holds exactly tied slices.
    # Scores scaled by 1e40 give slices near 1e160, whose bounds overflow.
    rng = np.random.default_rng(seed)
    stat = fourth_moment(scale * generate_factors(r, 300, 0.2, rng) / np.sqrt(0.2))
    prior = unit_columns(r, min(k, r - 1), tilt, rng)
    g = rng.standard_normal((distinct, r, r))[np.arange(slices) % distinct]
    operator = slice_operator(stat, mode)
    got = mom_init(operator, prior, slices, rng=_FixedDraws(g))
    want = unpruned_mom_init(operator, prior, slices, rng=_FixedDraws(g))
    assert np.array_equal(got, want)


def test_mom_init_bounds_the_triangle_that_eigvalsh_reads():
    # T = 3 (I + swap) reads G + G^T from each slicing matrix, which the
    # subtraction cancels, so each slice is what a perturbation E reads.
    # E is symmetric but breaks the i <-> j symmetry by about 1e-10 max|T|,
    # which the constructor admits, so the slices are far from symmetric
    # and their lower triangles, which eigvalsh reads, set the gaps.
    for seed in range(60):
        rng = np.random.default_rng(seed)
        r = int(rng.integers(2, 7))
        eye = np.eye(r * r)
        swap = eye.reshape(r, r, r * r).transpose(1, 0, 2).reshape(r * r, r * r)
        noise = rng.standard_normal((r * r, r * r))
        stat = FourthMoment(3.0 * (eye + swap) + 5e-11 * (noise + noise.T))
        prior = unit_columns(r, int(rng.integers(0, r)), 0.05, rng)
        operator = slice_operator(stat)
        got = mom_init(operator, prior, 4 * r * r, rng=np.random.default_rng(seed))
        want = unpruned_mom_init(operator, prior, 4 * r * r, rng=np.random.default_rng(seed))
        assert np.array_equal(got, want), seed


@pytest.mark.parametrize("seed", range(5))
def test_mom_init_breaks_exact_gap_ties_toward_the_earliest_slice(seed):
    # With a zero statistic and no prior each slice is -2 G exactly, and a
    # diagonal G with small integer entries gives exact, often tied gaps
    # whose leading vectors are different axes.
    rng = np.random.default_rng(seed)
    r, slices = 4, 64
    g = np.zeros((slices, r, r))
    g[:, np.arange(r), np.arange(r)] = rng.integers(-3, 4, (slices, r))
    operator, prior = slice_operator(fourth_moment(np.zeros((r, 10)))), _empty_prior(r)
    got = mom_init(operator, prior, slices, rng=_FixedDraws(g))
    diag = np.abs(g[:, np.arange(r), np.arange(r)])
    top = np.sort(diag, axis=1)
    gaps = top[:, -1] - top[:, -2]
    first = int(np.argmax(gaps))
    assert np.sum(gaps == gaps[first]) > 1
    assert np.array_equal(got, np.eye(r)[np.argmax(diag[first])])
    assert np.array_equal(got, unpruned_mom_init(operator, prior, slices,
                                                 rng=_FixedDraws(g)))


def test_mom_init_eigen_solves_under_half_of_the_slices(monkeypatch):
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        solved[-1] += a.shape[0]
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    rng = substream(24, "init")
    stat = fourth_moment(generate_factors(10, 2000, 0.2, rng) / np.sqrt(0.2))
    operator = slice_operator(stat)
    columns = unit_columns(10, 9, 0.05, rng)
    for k in range(10):
        solved.append(0)
        mom_init(operator, columns[:, :k], 400, rng=rng)
    assert max(solved) < 200, solved


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_mom_init_raises_divergence_on_a_non_finite_statistic(bad):
    stat = FourthMoment(np.full((9, 9), bad))
    with pytest.raises(DivergenceError, match="16 of 16 moment slices are not finite, "
                                              "at indices 0, 1, 2, 3, 4, ...$"):
        mom_init(slice_operator(stat), _empty_prior(3), 16, rng=substream(25, "init"))
    t = np.zeros((9, 9))
    t[0, 0] = bad
    with pytest.raises(DivergenceError, match="moment slices are not finite"):
        mom_init(slice_operator(FourthMoment(t)), _empty_prior(3), 16,
                 rng=substream(25, "init"))


def test_deflate_from_mom_init_on_overflowing_scores_raises_divergence():
    with np.errstate(over="ignore", invalid="ignore"):
        huge = fourth_moment(1e200 * hand_instance())
    provider = make_init_provider(InitScheme.method_of_moments(), huge,
                                  substream(26, "init"))
    with pytest.raises(DivergenceError, match="16 of 16 moment slices are not finite"):
        deflate(huge, provider, RotationSolveConfig())


# ---------------------------------------------------------------------------
# provider factory
# ---------------------------------------------------------------------------

def test_provider_outputs_unit_vectors():
    rng = substream(19, "init")
    u = generate_factors(3, 2000, 0.3, rng) / np.sqrt(0.3)
    for scheme in (InitScheme.random(), InitScheme.multi_random(4),
                   InitScheme.method_of_moments(8)):
        provider = make_init_provider(scheme, fourth_moment(u), substream(20, scheme.label))
        prior = _empty_prior(3)
        for _ in range(2):
            q0 = provider(prior)
            assert abs(np.linalg.norm(q0) - 1.0) <= 1e-12
            prior = np.column_stack([prior, q0]) if prior.size else q0[:, None]


@pytest.mark.parametrize("mode", SUBTRACTION_MODES)
def test_provider_reads_the_scheme_subtraction(mode):
    rng = substream(22, "init")
    u = generate_factors(3, 2000, 0.3, rng) / np.sqrt(0.3)
    stat, prior = fourth_moment(u), _empty_prior(3)
    scheme = InitScheme.method_of_moments(8, mode)
    provider = make_init_provider(scheme, stat, substream(23, "init"))
    want = mom_init(slice_operator(stat, mode), prior, 8, rng=substream(23, "init"))
    assert np.array_equal(provider(prior), want)


def test_a_mom_fit_forms_the_slice_operator_once(monkeypatch):
    # all five rounds read the one operator that make_init_provider forms
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return slice_operator(*args, **kwargs)

    monkeypatch.setattr(initialization, "slice_operator", counting)
    observed, _ = generate_dataset(SyntheticConfig(n=400, p=12, r=5, seed=27))
    est = estimate_loading(observed.data, 5, init_scheme=InitScheme.method_of_moments(),
                           rng=substream(27, "init"))
    assert est.diagnostics.iter_counts.shape == (5,)
    assert len(calls) == 1
