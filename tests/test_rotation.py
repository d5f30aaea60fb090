"""Tests for the sphere-constrained quartic solver and its oracles."""

import numpy as np
import pytest
from helpers import (corrected_gradient, hand_instance, mom_matrix, mom_slices,
                     objective, population_gradient_h, population_objective,
                     projected_finite_difference_gradient, random_orthogonal,
                     reference_pgd_solve, riemannian_gradient)
from hypothesis import given, settings
from hypothesis import strategies as st

from dvarimax import (DegenerateSolutionsError, DivergenceError, FourthMoment,
                      RotationSolveConfig, SyntheticConfig, complement_basis,
                      corrected_decomposition, deflate, derive_seed, eigendecompose,
                      fourth_moment, generate_dataset, generate_factors, mom_init,
                      pgd_solve, slice_operator, substream, symmetric_orthogonalize)
from dvarimax.initialization import SUBTRACTION_MODES

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])
DIAG = np.array([1.0, 1.0]) / np.sqrt(2.0)


def _unit(v):
    return v / np.linalg.norm(v)


def _random_unit(r, rng):
    return _unit(rng.standard_normal(r))


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------

def test_objective_hand_values():
    h = hand_instance()
    assert objective(E1, h) == pytest.approx(-1.0 / 6.0, abs=1e-15)
    assert objective(DIAG, h) == pytest.approx(-1.0 / 12.0, abs=1e-15)
    assert objective(E1, np.zeros((2, 4))) == 0.0


def test_objective_rejects_non_unit():
    with pytest.raises(ValueError):
        objective(np.array([1.0, 1.0]), hand_instance())


def test_objective_nonpositive_and_scale_covariant():
    rng = substream(0, "rot")
    for _ in range(20):
        u = rng.standard_normal((3, 15))
        q = _random_unit(3, rng)
        val = objective(q, u)
        assert val <= 0
        c = rng.uniform(0.5, 2.0)
        assert objective(q, c * u) == pytest.approx(c ** 4 * val, rel=1e-12)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def test_gradient_hand_stationary_points():
    h = hand_instance()
    assert np.allclose(riemannian_gradient(E1, h), 0.0, atol=1e-15)
    assert np.allclose(riemannian_gradient(DIAG, h), 0.0, atol=1e-15)


def test_gradient_tangent_and_scale_covariant():
    rng = substream(1, "rot")
    for _ in range(50):
        r = int(rng.integers(2, 7))
        u = rng.standard_normal((r, int(rng.integers(5, 40))))
        q = _random_unit(r, rng)
        g = riemannian_gradient(q, u)
        assert abs(q @ g) <= 1e-10
        c = rng.uniform(0.5, 2.0)
        assert np.allclose(riemannian_gradient(q, c * u), c ** 4 * g, rtol=1e-10,
                           atol=1e-14)


def test_gradient_matches_finite_differences():
    rng = substream(2, "rot")
    for _ in range(100):
        r = int(rng.integers(2, 7))
        n = int(rng.integers(5, 51))
        u = rng.standard_normal((r, n))
        q = _random_unit(r, rng)
        g = riemannian_gradient(q, u)
        fd = projected_finite_difference_gradient(q, u)
        assert np.linalg.norm(g - fd) <= 1e-6 * max(np.linalg.norm(fd), 1e-3)


def test_corrected_gradient_vanishing_cases():
    rng = substream(3, "rot")
    u = rng.standard_normal((4, 25))
    q = _random_unit(4, rng)
    plain = riemannian_gradient(q, u)
    assert np.array_equal(corrected_gradient(q, u, np.zeros((4, 4))), plain)
    # isotropic correction drops out exactly up to rounding
    iso = corrected_gradient(q, u, 0.7 * np.eye(4))
    assert np.allclose(iso, plain, atol=1e-12)


def test_corrected_gradient_hand_arithmetic():
    h = hand_instance()
    assert np.allclose(corrected_gradient(E1, h, np.diag([0.0, 1.0])), 0.0,
                       atol=1e-15)
    got = corrected_gradient(DIAG, h, np.diag([1.0, 0.0]))
    expect = 1.5 * (1.0 / (2.0 * np.sqrt(2.0))) * np.array([1.0, -1.0])
    assert np.allclose(got, expect, atol=1e-12)


def test_corrected_gradient_tangent():
    rng = substream(4, "rot")
    for _ in range(30):
        r = int(rng.integers(2, 6))
        u = rng.standard_normal((r, 20))
        q = _random_unit(r, rng)
        s = rng.standard_normal((r, r))
        s = (s + s.T) / 2
        assert abs(q @ corrected_gradient(q, u, s)) <= 1e-10


def test_corrected_gradient_rejects_asymmetric():
    with pytest.raises(ValueError):
        corrected_gradient(E1, hand_instance(), np.array([[0.0, 1.0], [0.0, 0.0]]))


# ---------------------------------------------------------------------------
# fourth-moment statistic against the score-based oracles
# ---------------------------------------------------------------------------

@settings(max_examples=40)
@given(r=st.integers(1, 8), n=st.integers(1, 60), seed=st.integers(0, 2 ** 32 - 1),
       log_scale=st.floats(-2.0, 2.0))
def test_fourth_moment_matches_score_oracles(r, n, seed, log_scale):
    rng = np.random.default_rng(seed)
    u = 10.0 ** log_scale * rng.standard_normal((r, n))
    q = _random_unit(r, rng)
    s = rng.standard_normal((r, r))
    s = (s + s.T) / 2
    g = rng.standard_normal((3, r, r))
    stat = fourth_moment(u)
    # Each check is (T-based value, score-based oracle, size of the terms
    # summed); (1/n) sum_t |U_t|^4 bounds T contracted with unit arguments.
    quartic = float(np.mean(np.sum(u ** 2, axis=0) ** 2))
    s_norm = np.linalg.norm(s, 2)
    checks = [(stat.objective(q), objective(q, u), quartic),
              (stat.gradient(q), riemannian_gradient(q, u), quartic),
              (stat.bias_corrected(s).gradient(q), corrected_gradient(q, u, s),
               quartic + (1.0 + s_norm) * s_norm)]
    for mode in SUBTRACTION_MODES:
        for one, got in zip(g, mom_slices(slice_operator(stat, mode), g)):
            # the subtracted term is at most (2 + r) |G|_F <= 3 r |G|_F
            size = np.linalg.norm(one) * (quartic + 3.0 * r)
            checks.append((got, mom_matrix(u, one, mode), size))
    for got, want, size in checks:
        assert np.max(np.abs(np.asarray(got) - want)) <= 1e-12 * size


@settings(max_examples=40)
@given(r=st.integers(1, 6), n=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1))
def test_bias_corrected_statistic_adds_the_bias_objective(r, n, seed):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((r, n))
    q = _random_unit(r, rng)
    s = rng.standard_normal((r, r))
    s = (s + s.T) / 2
    stat = fourth_moment(u).bias_corrected(s)

    def raw(v):
        # the statistic's quartic form, also off the sphere
        t = v @ s @ v
        return -float(np.sum((u.T @ v) ** 4)) / (12 * n) + 0.5 * (v @ v) * t + 0.25 * t * t

    t = q @ s @ q
    s_norm = np.linalg.norm(s, 2)
    size = float(np.mean(np.sum(u ** 2, axis=0) ** 2)) + (1.0 + s_norm) * s_norm
    assert abs(stat.objective(q) - (objective(q, u) + 0.5 * t + 0.25 * t * t)) <= 1e-12 * size
    h = 1e-5
    fd = np.array([(raw(q + h * e) - raw(q - h * e)) / (2 * h) for e in np.eye(r)])
    fd = fd - q * (q @ fd)
    assert np.linalg.norm(stat.gradient(q) - fd) <= 1e-6 * size


def test_bias_correction_commutes_with_restriction():
    rng = substream(15, "rot")
    r = 5
    for k in range(r):
        stat = fourth_moment(rng.standard_normal((r, 30)))
        s = rng.standard_normal((r, r))
        s = (s + s.T) / 2
        prior = np.array([_random_unit(r, rng) for _ in range(k)]).reshape(k, r).T
        basis = complement_basis(prior)
        got = stat.bias_corrected(s).restrict(basis).matrix
        want = stat.restrict(basis).bias_corrected(basis.T @ s @ basis).matrix
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_bias_corrected_by_zero_is_the_statistic_bitwise():
    stat = fourth_moment(substream(16, "rot").standard_normal((4, 30)))
    assert np.array_equal(stat.bias_corrected(np.zeros((4, 4))).matrix, stat.matrix)
    with pytest.raises(ValueError):
        stat.bias_corrected(np.triu(np.ones((4, 4))))
    with pytest.raises(ValueError):
        stat.bias_corrected(np.eye(3))


def test_bias_corrected_reads_the_symmetric_part_of_a_nearly_symmetric_s():
    # An S that sigma_n admits (asymmetry under 1e-10) keeps the corrected
    # statistic symmetric, however small T is.
    rng = substream(19, "rot")
    stat = fourth_moment(0.1 * rng.standard_normal((3, 30)))
    s = rng.standard_normal((3, 3))
    sym, skew = s + s.T, 4e-11 * (s - s.T) / np.max(np.abs(s - s.T))
    got, want = stat.bias_corrected(sym + skew).matrix, stat.bias_corrected(sym).matrix
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_fourth_moment_validates_when_built():
    vec_i = np.eye(2).ravel()
    assert FourthMoment(np.outer(vec_i, vec_i)).r == 2
    assert np.isnan(FourthMoment(np.full((4, 4), np.nan)).matrix).all()
    # np.eye(4) is symmetric as a matrix but not under i <-> j within a pair
    for matrix in (np.eye(4), np.ones(4), np.ones((1, 1, 1)), np.eye(4)[:, :3], np.zeros((0, 0))):
        with pytest.raises(ValueError):
            FourthMoment(matrix)
    with pytest.raises(ValueError, match="shape \\(3, 3\\)"):
        FourthMoment(np.eye(3))
    # a 1-D score vector, a score matrix with no samples to average over,
    # and one with no rows
    for scores in (np.ones(3), np.ones((3, 0)), np.ones((0, 5))):
        with pytest.raises(ValueError, match="score matrix must be 2-D \\(r x n\\) with n >= 1"):
            fourth_moment(scores)
    with pytest.raises(ValueError, match="score matrix must be real, got dtype complex128"):
        fourth_moment(np.ones((2, 5)) + 1j)


def test_fourth_moment_keeps_a_private_copy_of_its_matrix():
    t = fourth_moment(substream(20, "rot").standard_normal((2, 30))).matrix.copy()
    stat = FourthMoment(t)
    want = t.copy()
    t[0, 1] = 5.0
    assert np.array_equal(stat.matrix, want)


@settings(max_examples=40)
@given(r=st.integers(1, 8), n=st.integers(1, 60), seed=st.integers(0, 2 ** 32 - 1),
       log_scale=st.floats(-2.0, 2.0))
def test_every_built_statistic_is_symmetric_and_its_gradient_is_the_reshape_form(
        r, n, seed, log_scale):
    # fourth_moment, bias_corrected and restrict each build a statistic the
    # constructor admits, whose in-place gradient equals
    # -(1/3) P_q reshape(T vec(q q^T)) q.
    rng = np.random.default_rng(seed)
    scale = 10.0 ** log_scale
    u = scale * rng.standard_normal((r, n))
    s = rng.standard_normal((r, r))
    prior = np.linalg.qr(rng.standard_normal((r, int(rng.integers(0, r)))))[0]
    plain = fourth_moment(u)
    corrected = plain.bias_corrected(scale ** 2 * (s + s.T))
    restricted = plain.restrict(complement_basis(prior))
    for stat in (plain, corrected):
        assert np.array_equal(stat.matrix, stat.matrix.T)
    for stat in (plain, corrected, restricted):
        m = stat.r
        q = _random_unit(m, rng)
        w = (stat.matrix @ np.outer(q, q).ravel()).reshape(m, m) @ q / -3
        want = w - q * (q @ w)
        assert np.max(np.abs(stat.gradient(q) - want)) <= 1e-12 * np.max(np.abs(stat.matrix))


@pytest.mark.parametrize("q", [np.ones(7) / np.sqrt(7), np.ones(3) / np.sqrt(3),
                               np.array([2.0, 0, 0, 0, 0]), np.eye(5)[:1]],
                         ids=["length-7", "length-3", "norm-2", "2-D"])
def test_statistic_rejects_a_point_off_its_unit_sphere(q):
    stat = fourth_moment(substream(17, "rot").standard_normal((5, 30)))
    for call in (stat.gradient, stat.objective,
                 lambda v: pgd_solve(v, stat, RotationSolveConfig())):
        with pytest.raises(ValueError):
            call(q)


# ---------------------------------------------------------------------------
# pgd_solve
# ---------------------------------------------------------------------------

def test_pgd_stationary_start_returns_immediately():
    q, iters, gnorm, converged = pgd_solve(E1, fourth_moment(hand_instance()),
                                           RotationSolveConfig(grad_tol=1e-10))
    assert iters == 0 and converged
    assert np.array_equal(q, E1)


def test_pgd_converges_to_nearest_axis():
    # 1-D oracle: on the hand instance the quartic sum over the circle is
    # maximized exactly at the axes, so descent from (0.8, 0.6) must end
    # at (1, 0).
    config = RotationSolveConfig(step_size=0.05, grad_tol=1e-10, max_iters=20000)
    q, _, _, converged = pgd_solve(np.array([0.8, 0.6]),
                                   fourth_moment(hand_instance()), config)
    assert converged
    assert np.linalg.norm(q - E1) <= 1e-6


def test_pgd_grid_oracle_on_random_two_dim_instances():
    # Independent oracle: enumerate the local maximizers of the quartic
    # sum over a fine angle grid and check PGD lands next to one of them.
    rng = substream(5, "rot")
    angles = np.linspace(0.0, 2 * np.pi, 20000, endpoint=False)
    circle = np.stack([np.cos(angles), np.sin(angles)])
    for _ in range(5):
        u = generate_factors(2, 400, 0.2, rng) * 3.0
        values = np.sum((u.T @ circle) ** 4, axis=0)
        local_max = (values >= np.roll(values, 1)) & (values >= np.roll(values, -1))
        maximizers = circle[:, local_max]
        config = RotationSolveConfig(step_size=1e-3, grad_tol=1e-9, max_iters=50000)
        q, _, _, converged = pgd_solve(_random_unit(2, rng), fourth_moment(u), config)
        assert converged
        dist = np.linalg.norm(maximizers - q[:, None], axis=0).min()
        assert dist <= 2e-3


def test_pgd_monotone_descent_spot_check():
    rng = substream(6, "rot")
    for _ in range(20):
        r = int(rng.integers(2, 6))
        u = rng.standard_normal((r, int(rng.integers(10, 40))))
        q = _random_unit(r, rng)
        prev = objective(q, u)
        for _ in range(200):
            q, _, _, _ = pgd_solve(q, fourth_moment(u), RotationSolveConfig(
                step_size=1e-3, grad_tol=1e-300, max_iters=1))
            val = objective(q, u)
            assert val <= prev + 1e-12
            prev = val


def test_pgd_iteration_cap_returns_last_iterate():
    rng = substream(7, "rot")
    u = rng.standard_normal((3, 30))
    q, iters, gnorm, converged = pgd_solve(
        _random_unit(3, rng), fourth_moment(u),
        RotationSolveConfig(step_size=1e-6, grad_tol=1e-12, max_iters=7))
    assert iters == 7 and not converged
    assert abs(np.linalg.norm(q) - 1.0) <= 1e-12


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_pgd_divergence_reports_iteration():
    # overflowing scores make the cubed projections non-finite
    u = 1e200 * hand_instance()
    with pytest.raises(DivergenceError) as info:
        pgd_solve(np.array([0.8, 0.6]), fourth_moment(u),
                  RotationSolveConfig(grad_tol=1e-300, max_iters=50))
    assert info.value.iteration == 0
    # a finite gradient whose step overflows the iterate
    with pytest.raises(DivergenceError, match="iterate norm") as info:
        pgd_solve(np.array([0.8, 0.6]), fourth_moment(1e20 * hand_instance()),
                  RotationSolveConfig(step_size=1e300))
    assert info.value.iteration == 1
    assert "not finite" in str(info.value)


def _iterates(q0, u, count, correction=None):
    """First ``count`` PGD iterates via repeated capped solves."""
    stat = fourth_moment(u)
    if correction is not None:
        stat = stat.bias_corrected(correction)
    out = []
    for ell in range(1, count + 1):
        config = RotationSolveConfig(step_size=1e-3, grad_tol=1e-300, max_iters=ell)
        q, _, _, _ = pgd_solve(q0, stat, config)
        out.append(q)
    return out


def test_pgd_rotation_equivariance():
    rng = substream(8, "rot")
    for trial in range(5):
        r = int(rng.integers(2, 6))
        u = rng.standard_normal((r, 25))
        q0 = _random_unit(r, rng)
        rot = random_orthogonal(r, rng)
        plain = _iterates(q0, u, 50)
        rotated = _iterates(rot.T @ q0, rot.T @ u, 50)
        for a, b in zip(plain, rotated):
            assert np.linalg.norm(rot.T @ a - b) <= 1e-9


def test_pgd_equivariance_with_conjugated_correction():
    rng = substream(9, "rot")
    r = 4
    u = rng.standard_normal((r, 30))
    q0 = _random_unit(r, rng)
    s = rng.standard_normal((r, r))
    s = (s + s.T) / 2
    rot = random_orthogonal(r, rng)
    plain = _iterates(q0, u, 50, correction=s)
    rotated = _iterates(rot.T @ q0, rot.T @ u, 50, correction=rot.T @ s @ rot)
    for a, b in zip(plain, rotated):
        assert np.linalg.norm(rot.T @ a - b) <= 1e-9


@settings(max_examples=30)
@given(r=st.integers(2, 7), n=st.integers(1, 60), seed=st.integers(0, 2 ** 32 - 1),
       log_scale=st.floats(-1.0, 1.0))
def test_pgd_solve_is_orthogonally_equivariant(r, n, seed, log_scale):
    # pgd_solve(O q0, T(O U)) = O pgd_solve(q0, T(U)) over a fixed budget.
    rng = np.random.default_rng(seed)
    u = 10.0 ** log_scale * rng.standard_normal((r, n))
    q0 = _random_unit(r, rng)
    rot = random_orthogonal(r, rng)
    step = 0.05 / (1.0 + float(np.mean(np.sum(u ** 2, axis=0) ** 2)))
    config = RotationSolveConfig(step_size=step, grad_tol=1e-300, max_iters=40)
    plain, iters, _, _ = pgd_solve(q0, fourth_moment(u), config)
    rotated, rot_iters, _, _ = pgd_solve(rot @ q0, fourth_moment(rot @ u), config)
    assert iters == rot_iters == 40
    assert np.linalg.norm(rotated - rot @ plain) <= 1e-10


@settings(max_examples=40)
@given(r=st.integers(1, 10), seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(("plain", "bias_corrected", "restrict")))
def test_pgd_solve_matches_the_reshape_matvec_reference(r, seed, kind):
    # Over a fixed budget the chained contraction gives the reference's
    # iterates to rounding; whitened Bernoulli-Gaussian scores make most
    # cases converge, and those must stop at the same iteration.
    rng = np.random.default_rng(seed)
    full = r + 2 if kind == "restrict" else r
    stat = fourth_moment(generate_factors(full, 200, 0.2, rng) / np.sqrt(0.2))
    if kind == "bias_corrected":
        s = rng.standard_normal((r, r))
        stat = stat.bias_corrected(0.05 * (s + s.T))
    if kind == "restrict":
        stat = stat.restrict(complement_basis(np.linalg.qr(rng.standard_normal((full, 2)))[0]))
    q0 = _random_unit(r, rng)
    config = RotationSolveConfig(step_size=0.1, grad_tol=1e-6, max_iters=1000)
    q, iters, gnorm, converged = pgd_solve(q0, stat, config)
    ref_q, ref_iters, ref_gnorm, ref_converged = reference_pgd_solve(q0, stat, config)
    assert np.max(np.abs(q - ref_q)) <= 1e-12
    assert (iters, converged) == (ref_iters, ref_converged)
    assert abs(gnorm - ref_gnorm) <= 1e-12


def test_pgd_solve_matches_the_reference_over_a_long_non_converging_run():
    # The criterion-9 cell at step 1e-4, where no column solve converges in
    # 5,000 iterations: the iterates still agree with the reference to
    # rounding, for the base statistic and the improved2 one.
    config = SyntheticConfig(n=500, p=20, r=5, theta=0.1, varepsilon2=0.8,
                             seed=derive_seed(109, "data", 0))
    decomp = eigendecompose(generate_dataset(config)[0].data, 5)
    corrected = corrected_decomposition(decomp)
    base = fourth_moment(decomp.scores)
    improved2 = fourth_moment(corrected.scores).bias_corrected(corrected.sigma_n_hat)
    rng = substream(18, "rot")
    starts = [mom_init(slice_operator(base), np.zeros((5, 0)), 100, rng=rng),
              _random_unit(5, rng), _random_unit(5, rng)]
    solve = RotationSolveConfig(step_size=1e-4, grad_tol=1e-6, max_iters=5000)
    for stat in (base, improved2):
        for q0 in starts:
            q, iters, gnorm, converged = pgd_solve(q0, stat, solve)
            ref_q, ref_iters, ref_gnorm, ref_converged = reference_pgd_solve(q0, stat, solve)
            assert (iters, converged) == (ref_iters, ref_converged) == (5000, False)
            assert np.max(np.abs(q - ref_q)) <= 1e-12
            assert abs(gnorm - ref_gnorm) <= 1e-12


def test_pgd_solve_takes_any_start_layout_and_leaves_the_start_alone():
    # The solver updates a private float64 copy of q0 in place: a strided
    # view (an SVD column, as mom_init returns), an integer and a float32
    # start give what a contiguous float64 copy gives, bit for bit, and the
    # start itself is not written.
    rng = substream(19, "rot")
    stat = fourth_moment(generate_factors(5, 300, 0.2, rng) / np.sqrt(0.2))
    column = np.linalg.svd(rng.standard_normal((5, 5)))[0][:, 0]
    assert not column.flags.c_contiguous
    starts = (column, np.array([0, 0, 1, 0, 0]),
              np.array([0.5, -0.5, 0.5, 0.5, 0.0], dtype=np.float32))
    config = RotationSolveConfig(step_size=0.01, grad_tol=1e-300, max_iters=200)
    for q0 in starts:
        before = q0.copy()
        q, iters, gnorm, converged = pgd_solve(q0, stat, config)
        want_q, *want_rest = pgd_solve(np.array(q0, dtype=float), stat, config)
        assert np.array_equal(q, want_q) and [iters, gnorm, converged] == want_rest
        assert q0.dtype == before.dtype and np.array_equal(q0, before)
        assert np.linalg.norm(q - q0) > 1e-2


@pytest.mark.parametrize("kind", ("plain", "bias_corrected", "restrict"))
def test_pgd_solve_reports_the_gradient_of_the_statistic(kind):
    # A tolerance no gradient exceeds stops the solve at iteration 0, where
    # the reported norm is that of FourthMoment.gradient at the start.
    rng = substream(20, "rot")
    r = 5
    full = r + 2 if kind == "restrict" else r
    stat = fourth_moment(generate_factors(full, 200, 0.2, rng) / np.sqrt(0.2))
    if kind == "bias_corrected":
        s = rng.standard_normal((r, r))
        stat = stat.bias_corrected(0.05 * (s + s.T))
    if kind == "restrict":
        stat = stat.restrict(complement_basis(np.linalg.qr(rng.standard_normal((full, 2)))[0]))
    for _ in range(10):
        q0 = _random_unit(r, rng)
        _, iters, gnorm, converged = pgd_solve(q0, stat, RotationSolveConfig(grad_tol=1e9))
        assert iters == 0 and converged
        assert abs(gnorm - np.linalg.norm(stat.gradient(q0))) <= 1e-15


def test_solve_config_validates():
    RotationSolveConfig(step_size=0.1, grad_tol=1e-8, max_iters=np.int64(3))
    for bad in (dict(step_size=0.0), dict(grad_tol=0.0), dict(max_iters=0),
                dict(max_iters=2.5), dict(max_iters=True), dict(max_iters="10"),
                dict(step_size=np.inf), dict(step_size=np.nan),
                dict(grad_tol=np.inf), dict(grad_tol=np.nan)):
        with pytest.raises(ValueError):
            RotationSolveConfig(**bad)
    # grad_tol=True would be a tolerance of 1.0
    for bad in (dict(step_size=True), dict(step_size=np.True_), dict(grad_tol=True),
                dict(grad_tol="1e-6")):
        with pytest.raises(ValueError, match=next(iter(bad))):
            RotationSolveConfig(**bad)


# ---------------------------------------------------------------------------
# deflate and symmetric_orthogonalize
# ---------------------------------------------------------------------------

def test_deflate_on_hand_instance_recovers_signed_permutation():
    inits = {1: np.array([0.8, 0.6]), 2: np.array([0.6, -0.8])}
    result = deflate(fourth_moment(hand_instance()),
                     lambda prior: inits[prior.shape[1] + 1],
                     RotationSolveConfig(step_size=0.05, grad_tol=1e-12,
                                         max_iters=20000))
    q = result.q_check
    assert np.linalg.norm(q.T @ q - np.eye(2)) <= 1e-10
    best = min(np.linalg.norm(np.abs(q) - np.eye(2)),
               np.linalg.norm(np.abs(q) - np.eye(2)[:, ::-1]))
    assert best <= 1e-6


def test_deflate_columns_are_unit_and_counts_recorded():
    rng = substream(10, "rot")
    u = rng.standard_normal((4, 60))
    provider = lambda prior: _random_unit(4, rng)
    result = deflate(fourth_moment(u), provider,
                     RotationSolveConfig(step_size=1e-3, max_iters=200))
    assert result.q_hat.shape == (4, 4)
    assert np.allclose(np.linalg.norm(result.q_hat, axis=0), 1.0, atol=1e-12)
    assert result.iter_counts.shape == (4,)
    assert result.grad_norms.shape == (4,)
    assert result.converged_flags.shape == (4,)


def test_deflate_permutation_covariance():
    rng = substream(11, "rot")
    u = rng.standard_normal((3, 40))
    inits = [_random_unit(3, rng) for _ in range(3)]
    config = RotationSolveConfig(step_size=1e-3, max_iters=300)
    direct = deflate(fourth_moment(u), lambda prior: inits[prior.shape[1]], config)
    perm = [2, 0, 1]
    permuted = deflate(fourth_moment(u), lambda prior: inits[perm[prior.shape[1]]], config)
    assert np.array_equal(permuted.q_hat, direct.q_hat[:, perm])


def test_deflate_resolves_a_duplicate_round_in_the_complement():
    # Round 2 descends from (0.8, 0.6) onto E1, which round 1 already holds,
    # so it is solved again on the complement of E1.
    inits = {1: E1, 2: np.array([0.8, 0.6])}
    result = deflate(fourth_moment(hand_instance()),
                     lambda prior: inits[prior.shape[1] + 1],
                     RotationSolveConfig(step_size=0.1))
    assert np.array_equal(result.restricted, [False, True])
    for got in (result.q_hat, result.q_check):
        assert np.max(np.abs(np.abs(got) - np.eye(2))) <= 1e-12
    assert np.all(result.converged_flags)


def test_deflate_duplicate_round_with_no_complement_start_raises():
    # Round 2 starts exactly on E1, whose projection on the complement is 0.
    with pytest.raises(DegenerateSolutionsError):
        deflate(fourth_moment(hand_instance()), lambda prior: E1,
                RotationSolveConfig())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_deflate_divergence_carries_column_index():
    u = 1e200 * hand_instance()
    inits = {1: np.array([0.8, 0.6]), 2: np.array([0.6, -0.8])}
    with pytest.raises(DivergenceError) as info:
        deflate(fourth_moment(u), lambda prior: inits[prior.shape[1] + 1],
                RotationSolveConfig(grad_tol=1e-300, max_iters=20))
    assert info.value.column == 1


def test_symmetric_orthogonalize_cases():
    assert np.array_equal(symmetric_orthogonalize(np.eye(3)), np.eye(3))
    assert np.allclose(symmetric_orthogonalize(np.diag([3.0, 0.5])), np.eye(2),
                       atol=1e-15)
    rng = substream(12, "rot")
    rot = random_orthogonal(4, rng)
    assert np.allclose(symmetric_orthogonalize(rot @ np.diag([2.0, 1.0, 1.5, 0.3])),
                       rot, atol=1e-12)
    column = _random_unit(3, rng)[:, None]
    assert np.allclose(symmetric_orthogonalize(column), column, atol=1e-12)
    with pytest.raises(ValueError, match="r >= s"):
        symmetric_orthogonalize(np.ones((2, 3)))


def test_symmetric_orthogonalize_is_nearest():
    rng = substream(13, "rot")
    q_hat = rng.standard_normal((5, 5))
    q_check = symmetric_orthogonalize(q_hat)
    base = np.linalg.norm(q_hat - q_check)
    for _ in range(100):
        other = random_orthogonal(5, rng)
        assert base <= np.linalg.norm(q_hat - other) + 1e-9


def test_symmetric_orthogonalize_rank_deficient():
    dup = np.column_stack([E1, E1])
    with pytest.raises(DegenerateSolutionsError):
        symmetric_orthogonalize(dup)


# ---------------------------------------------------------------------------
# population oracles
# ---------------------------------------------------------------------------

def test_population_objective_closed_forms():
    rng = substream(14, "rot")
    for r in (2, 4):
        a = random_orthogonal(r, rng)
        kappa = 9.0
        for i in range(r):
            val = population_objective(a[:, i], a, kappa)
            assert val == pytest.approx(-(kappa + 1.0) / 4.0, rel=1e-12)
        balanced = _unit(a @ np.ones(r))
        val = population_objective(balanced, a, kappa)
        assert val == pytest.approx(-(kappa / r + 1.0) / 4.0, rel=1e-12)


def test_population_objective_with_noise_term():
    rng = substream(15, "rot")
    a = random_orthogonal(3, rng)
    sigma_n = np.diag([0.1, 0.2, 0.3])
    q = _random_unit(3, rng)
    t = q @ sigma_n @ q
    expect = -0.25 * (9.0 * np.sum((a.T @ q) ** 4) + 1.0 + 2 * t + t * t)
    assert population_objective(q, a, 9.0, sigma_n) == pytest.approx(expect)


def test_population_gradient_vanishes_at_columns_and_balanced_points():
    rng = substream(16, "rot")
    for r in (2, 3, 6):
        a = random_orthogonal(r, rng)
        for i in range(r):
            g = population_gradient_h(a[:, i], a, 9.0)
            assert np.linalg.norm(g) <= 1e-12
        for k in range(2, r + 1):
            coeff = np.zeros(r)
            coeff[:k] = 1.0 / np.sqrt(k)
            q = a @ coeff
            assert np.linalg.norm(population_gradient_h(q, a, 9.0)) <= 1e-12


def test_population_gradient_tangent():
    rng = substream(17, "rot")
    for _ in range(20):
        a = random_orthogonal(5, rng)
        q = _random_unit(5, rng)
        assert abs(q @ population_gradient_h(q, a, 9.0)) <= 1e-12
