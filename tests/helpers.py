"""Shared test utilities: brute-force oracles and small fixtures.

The package computes the quartic objective, its gradients and the moment
slices from the fourth-moment statistic T only.  The score-based versions
here compute the same quantities from the scores U directly, and serve as
the reference implementations the statistic is checked against.
``reference_pgd_solve`` is the PGD loop on the reshape-and-matvec form of
the statistic's gradient, the reference for ``pgd_solve``, and
``reference_generate_dataset`` draws X through the p x p noise covariance,
built from its documented formulas, and a separate noise array, the
reference for ``generate_dataset``.
"""
from __future__ import annotations

import math
from itertools import permutations, product

import numpy as np

from dvarimax import (DegenerateSlicingError, DivergenceError, complement_basis,
                      generate_factors, generate_loading, substream)
from dvarimax.initialization import SUBTRACTION_MODES
from dvarimax.rotation import _MIN_ITERATE_NORM, _check_sigma_n, _check_unit


def _check_scores(q: np.ndarray, u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.ndim != 2:
        raise ValueError("score matrix must be 2-D (r x n)")
    if u.shape[0] != q.shape[0]:
        raise ValueError(f"dimension mismatch: q has {q.shape[0]} entries, "
                         f"scores have {u.shape[0]} rows")
    return u


def _plain_gradient(q: np.ndarray, u: np.ndarray) -> np.ndarray:
    proj = u.T @ q
    w = u @ (proj ** 3)
    return -(w - q * (q @ w)) / (3 * u.shape[1])


def _bias_term(q: np.ndarray, sigma_n: np.ndarray) -> np.ndarray:
    s = sigma_n @ q
    return (1.0 + q @ s) * (s - q * (q @ s))


def objective(q: np.ndarray, u: np.ndarray) -> float:
    """Quartic objective F(q; U) = -(1/(12 n)) * sum_t (q^T U_t)^4.

    Always <= 0; more negative means the projections are spikier.
    """
    q = _check_unit(q)
    u = _check_scores(q, u)
    proj = u.T @ q
    return -float(np.sum(proj ** 4)) / (12 * u.shape[1])


def riemannian_gradient(q: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Gradient of the quartic objective on the sphere, tangent at q."""
    q = _check_unit(q)
    u = _check_scores(q, u)
    return _plain_gradient(q, u)


def corrected_gradient(q: np.ndarray, u: np.ndarray,
                       sigma_n: np.ndarray) -> np.ndarray:
    """Riemannian gradient plus the additive-noise bias term.

    Adds ``(1 + q^T S q) * P_q S q`` with S = ``sigma_n``; the result
    stays tangent at q.  With S = c * I the extra term vanishes and the
    result equals :func:`riemannian_gradient` exactly.
    """
    q = _check_unit(q)
    u = _check_scores(q, u)
    sigma_n = _check_sigma_n(q.shape[0], sigma_n)
    return _plain_gradient(q, u) + _bias_term(q, sigma_n)


def _subtracted(g: np.ndarray, subtraction: str) -> np.ndarray:
    """The term the moment slice for one r x r G subtracts."""
    if subtraction not in SUBTRACTION_MODES:
        raise ValueError(f"unknown subtraction mode: {subtraction!r}")
    sym = g + g.T
    if subtraction == "as_written":
        return sym
    return (np.trace(g) * np.eye(g.shape[0]) + sym) / 3.0


def mom_matrix(u: np.ndarray, g: np.ndarray, subtraction: str = "as_written") -> np.ndarray:
    """Fourth-moment slice (1/(3n)) sum_t U_t U_t^T (U_t^T G U_t) - <subtraction>.

    ``as_written`` subtracts G + G^T.  ``lemma_consistent`` subtracts
    (1/3)(tr(G) I + G + G^T), the exact whitened fourth-moment
    expectation.  The map G -> M(G) is linear either way.
    """
    u = np.asarray(u, dtype=float)
    g = np.asarray(g, dtype=float)
    if u.ndim != 2:
        raise ValueError("score matrix must be 2-D (r x n)")
    r, n = u.shape
    if g.shape != (r, r):
        raise ValueError(f"g must be {r} x {r}")
    subtracted = _subtracted(g, subtraction)
    quad = np.einsum("it,ij,jt->t", u, g, u)
    return (u * quad) @ u.T / (3 * n) - subtracted


def mom_slices(operator, g):
    """The moment slices for a stack (S, r, r) of slicing matrices, one
    product with the package's slice ``operator``, as ``mom_init`` forms
    them."""
    return (g.reshape(g.shape[0], -1) @ operator).reshape(g.shape)


def reference_pgd_solve(q0, stat, config):
    """``pgd_solve`` with the gradient -(1/3) P_q reshape(T vec(q q^T)) q
    formed as an outer product, an r^2 x r^2 matvec, a reshape, a second
    matvec and a divide by -3; same iterates, stopping rule, return value
    and divergence checks."""
    q = _check_unit(q0)
    if stat.r != q.shape[0]:
        raise ValueError("dimension mismatch")
    q = q / np.linalg.norm(q)
    r, t = stat.r, stat.matrix
    gnorm = np.inf
    for iters in range(config.max_iters + 1):
        w = (t @ (q[:, None] * q).ravel()).reshape(r, r) @ q / -3
        g = w - q * (q @ w)
        gnorm = math.sqrt(g @ g)
        if not math.isfinite(gnorm):
            raise DivergenceError(f"non-finite gradient at iteration {iters}",
                                  iteration=iters)
        if gnorm <= config.grad_tol:
            return q, iters, gnorm, True
        if iters == config.max_iters:
            break
        step = q - config.step_size * g
        nrm = math.sqrt(step @ step)
        if not math.isfinite(nrm) or nrm < _MIN_ITERATE_NORM:
            raise DivergenceError(f"iterate norm collapsed at iteration {iters + 1}",
                                  iteration=iters + 1)
        q = step / nrm
    return q, config.max_iters, gnorm, False


def reference_generate_dataset(config):
    """(X, loading, factors) for ``config``, drawn as the plain reading of
    the model: the p x p Sigma_E from its documented formulas (I,
    diag(p v^alpha / sum(v^alpha)) for v_j i.i.d. Uniform[0, 1] from the
    ``noise-cov`` stream, or rho^|i - j|), a p x n noise array scaled from
    one Gaussian draw by the Cholesky factor of Sigma_E, and
    ``loading @ factors + noise``."""
    p, n, r = config.p, config.n, config.r
    loading = generate_loading(p, r, substream(config.seed, "loading"))
    factors = generate_factors(r, n, config.theta, substream(config.seed, "factors"))
    if config.noise_kind == "identity":
        sigma_e = np.eye(p)
    elif config.noise_kind == "heteroscedastic":
        weights = substream(config.seed, "noise-cov").random(p) ** config.noise_alpha
        sigma_e = np.diag(p * weights / weights.sum())
    else:
        idx = np.arange(p)
        sigma_e = config.noise_rho ** np.abs(idx[:, None] - idx[None, :])
    if config.varepsilon2 > 0:
        gauss = substream(config.seed, "noise").standard_normal((p, n))
        scale = np.sqrt(config.varepsilon2 / p)
        if config.noise_kind in ("identity", "heteroscedastic"):
            noise = scale * np.sqrt(np.diag(sigma_e))[:, None] * gauss
        else:
            noise = scale * (np.linalg.cholesky(sigma_e) @ gauss)
    else:
        noise = np.zeros((p, n))
    return loading @ factors + noise, loading, factors


def brute_force_signed_permutation_error(lambda_hat, lambda_true):
    """Exhaustive minimum of |lambda_hat - lambda_true @ P|_F over signed perms."""
    est = np.asarray(lambda_hat, float)
    true = np.asarray(lambda_true, float)
    r = est.shape[1]
    best = np.inf
    for perm in permutations(range(r)):
        for signs in product((1.0, -1.0), repeat=r):
            p = np.zeros((r, r))
            for k in range(r):
                p[perm[k], k] = signs[k]
            best = min(best, np.linalg.norm(est - true @ p))
    return best


def random_draw(prior, rng):
    """One random start as the ``random`` scheme defines it: a
    standard-normal draw in the complement basis of the prior columns,
    mapped back and normalized to the sphere."""
    basis = complement_basis(prior)
    v = basis @ rng.standard_normal(basis.shape[1])
    return v / np.linalg.norm(v)


def random_orthogonal(r, rng):
    """Haar-ish orthogonal matrix from the QR of a Gaussian draw."""
    q, rmat = np.linalg.qr(rng.standard_normal((r, r)))
    return q * np.sign(np.diag(rmat))


def hand_instance():
    """The 2 x 4 score matrix with columns (+-sqrt(2), 0) and (0, +-sqrt(2)).

    Its quartic objective has value -1/6 at the axes and -1/12 at the
    balanced directions, and both are stationary.
    """
    s = np.sqrt(2.0)
    return np.array([[s, -s, 0.0, 0.0], [0.0, 0.0, s, -s]])


def projected_finite_difference_gradient(q, u, h=1e-5):
    """Central finite differences of the quartic objective, projected at q.

    Independent of the analytic gradient: differences the raw (ambient)
    objective along coordinate directions, then projects the estimated
    gradient onto the tangent space at q.
    """
    q = np.asarray(q, float)
    r = q.size
    n = u.shape[1]

    def raw(v):
        proj = u.T @ v
        return -float(np.sum(proj ** 4)) / (12 * n)

    grad = np.empty(r)
    for i in range(r):
        e = np.zeros(r)
        e[i] = h
        grad[i] = (raw(q + e) - raw(q - e)) / (2 * h)
    return grad - q * (q @ grad)


def full_eigh_decomposition(x, r):
    """Reference PCA from a full symmetric eigensolve of (1/n) X X^T.

    Returns all min(p, n) eigenvalues (nonincreasing, floored at 0), the r
    leading eigenvectors as columns and the sum of the eigenvalues after
    the r-th.
    """
    x = np.asarray(x, float)
    p, n = x.shape
    gram = (x @ x.T) / n
    gram = (gram + gram.T) / 2.0
    vals, vecs = np.linalg.eigh(gram)
    order = np.argsort(vals)[::-1][: min(p, n)]
    eigvals = np.maximum(vals[order], 0.0)
    return eigvals, vecs[:, order[:r]], float(eigvals[r:].sum())


def batched_svd_mom_init(operator, prior, n_slices, *, rng):
    """Reference method-of-moments selection: the same slice stack as
    ``mom_init``, a full SVD of every slice, and the leading left singular
    vector of the slice with the largest top-two gap, sign-fixed."""
    r = math.isqrt(operator.shape[0])
    g = rng.standard_normal((n_slices, r, r))
    proj = np.eye(r) - prior @ prior.T
    m = proj @ mom_slices(operator, g) @ proj
    left, singulars, _ = np.linalg.svd(m)
    gaps = singulars[:, 0] - singulars[:, 1]
    if np.max(gaps) < 1e-12:
        raise DegenerateSlicingError("every random slice has a zero singular-value gap")
    best = left[int(np.argmax(gaps)), :, 0]
    return -best if best[np.argmax(np.abs(best))] < 0 else best


def unpruned_mom_init(operator, prior, n_slices, *, rng):
    """Reference method-of-moments selection without gap bounds: one
    batched ``eigvalsh`` of every projected slice, the argmax of the
    top-two singular-value gaps, one SVD of that slice, sign-fixed."""
    r = math.isqrt(operator.shape[0])
    if r == 1:
        return np.ones(1)
    proj = np.eye(r) - prior @ prior.T
    g = rng.standard_normal((n_slices, r, r))
    m = proj @ mom_slices(operator, g) @ proj
    singulars = np.sort(np.abs(np.linalg.eigvalsh(m)), axis=1)
    gaps = singulars[:, -1] - singulars[:, -2]
    if np.max(gaps) < 1e-12:
        raise DegenerateSlicingError("every random slice has a zero singular-value gap")
    best = np.linalg.svd(m[int(np.argmax(gaps))])[0][:, 0]
    return -best if best[np.argmax(np.abs(best))] < 0 else best


class ZeroDraws(np.random.Generator):
    """A Generator whose normal draws are all zero."""

    def __init__(self):
        super().__init__(np.random.PCG64(0))

    @staticmethod
    def standard_normal(size):
        return np.zeros(size)

    @staticmethod
    def uniform(low, high, size):
        return np.full(size, low)


def unit_columns(r, k, tilt, rng):
    """k unit r-vectors as columns: orthonormal ones plus ``tilt`` times a
    Gaussian draw, normalized.  Like the solved columns a deflation round
    passes as its prior, they are not orthogonal to each other."""
    cols = random_orthogonal(r, rng)[:, :k] + tilt * rng.standard_normal((r, k))
    return cols / np.linalg.norm(cols, axis=0)


def population_objective(q: np.ndarray, a: np.ndarray, kappa: float,
                         sigma_n: np.ndarray | None = None) -> float:
    """Exact expectation of the quartic objective under the factor model.

    For scores A Z + N with unit-variance independent factor coordinates
    whose excess kurtosis is ``3 * kappa``, an orthogonal A, and Gaussian
    noise with covariance ``sigma_n``:

        f(q) = -(1/4) * (kappa * |A^T q|_4^4 + 1 + 2 t + t^2),
        t = q^T sigma_n q.
    """
    q = _check_unit(q)
    a = np.asarray(a, dtype=float)
    if a.shape != (q.shape[0], q.shape[0]):
        raise ValueError("a must be r x r")
    if np.max(np.abs(a.T @ a - np.eye(q.shape[0]))) > 1e-8:
        raise ValueError("a must be orthogonal")
    quartic = float(np.sum((a.T @ q) ** 4))
    t = float(q @ (np.asarray(sigma_n, dtype=float) @ q)) if sigma_n is not None else 0.0
    return -0.25 * (kappa * quartic + 1.0 + 2.0 * t + t * t)


def population_gradient_h(q: np.ndarray, a: np.ndarray, kappa: float) -> np.ndarray:
    """Noise-free population gradient, ``-kappa * P_q A (A^T q)^(o3)``.

    Vanishes at every column of A, and also at the balanced points where
    A^T q has k equal entries 1/sqrt(k) and zeros elsewhere.
    """
    q = _check_unit(q)
    a = np.asarray(a, dtype=float)
    w = a @ ((a.T @ q) ** 3)
    return -kappa * (w - q * (q @ w))
