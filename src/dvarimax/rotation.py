"""Deflation varimax rotation: quartic maximization on the unit sphere.

Each rotation column solves

    min_{|q|=1}  F(q; U) = -(1/(12 n)) * sum_t (q^T U_t)^4

by projected gradient descent with the Riemannian gradient

    grad F(q; U) = -(1/(3 n)) * P_q ( sum_t (q^T U_t)^3 U_t ),

where P_q = I - q q^T projects onto the tangent space of the sphere.
Columns are solved one at a time with NO orthogonality constraint against
previously solved columns, unless a round re-finds a prior direction: then
that round is solved again on the sphere of the orthogonal complement of
the earlier columns.  A single symmetric orthogonalization at the end
replaces the stacked solutions by the nearest orthonormal-column matrix.

The solver reads the scores U (r x n) only through their fourth-moment
statistic T = (1/n) sum_t U_t (x) U_t (x) U_t (x) U_t, stored as an
r^2 x r^2 :class:`FourthMoment`.  :func:`pgd_solve` and :func:`deflate`
take only that statistic, which ``estimate_loading`` builds once per fit
with :func:`fourth_moment`.  T, the one array a statistic holds, has r^4
doubles (r = 10: 80 KB); the objective is -(1/12) vec(q q^T)^T T vec(q q^T),
and the gradient -(1/3) P_q reshape(T vec(q q^T)) q three chained
matrix-vector products on T's buffer read in place as an r^3 x r matrix.
So a PGD iteration costs O(r^4) whatever n is, and is call overhead, not
flops: nine positional BLAS calls (three ``dgemv``, three ``ddot``, two
``daxpy``, one ``dscal``) into buffers allocated once per solve.  The
wrappers are those of scipy's f2py extension ``scipy.linalg._fblas``,
loaded by ``_fortran`` without the scipy.linalg package init; they are
the objects ``scipy.linalg.blas`` exports.
Reference implementations from U directly, and the PGD loop on the
reshape-and-matvec gradient, live in the test suite (``tests/helpers.py``).

The bias correction for additive error in the scores, with symmetric
covariance estimate S, is a quartic form on the sphere too: the gradient
term ``(1 + q^T S q) * P_q S q`` is the Riemannian gradient of
(1/2) q^T q q^T S q + (1/4) (q^T S q)^2.  So it is folded into the
statistic (:meth:`FourthMoment.bias_corrected`), and the solver reads one
statistic either way; for S proportional to the identity the gradient
correction vanishes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._fortran import load
from .exceptions import (DegenerateProjectorError, DegenerateSolutionsError,
                         DivergenceError, _check_integer, _check_real, _real_array)

__all__ = [
    "RotationSolveConfig",
    "RotationResult",
    "FourthMoment",
    "fourth_moment",
    "pgd_solve",
    "complement_basis",
    "deflate",
    "symmetric_orthogonalize",
]

_fblas = load("scipy.linalg", "_fblas")
daxpy, ddot, dgemv, dscal = _fblas.daxpy, _fblas.ddot, _fblas.dgemv, _fblas.dscal

_UNIT_TOL = 1e-8       # how far |q|_2 may sit from 1 on input
_MIN_ITERATE_NORM = 1e-14
# Smallest singular value of the stacked columns q_1..q_k below which round
# k is taken to have re-found an earlier direction and is solved again in
# the orthogonal complement of q_1..q_{k-1}.
_NEAR_DUPLICATE_THRESHOLD = 0.1


def _check_unit(q: np.ndarray) -> np.ndarray:
    q = _real_array("q", q, ndim=1)
    nrm = np.linalg.norm(q)
    if not np.isfinite(nrm) or abs(nrm - 1.0) > _UNIT_TOL:
        raise ValueError(f"q must be unit-norm (got |q| = {nrm!r})")
    return q


def _check_point(q: np.ndarray, r: int) -> np.ndarray:
    q = _check_unit(q)
    if q.shape[0] != r:
        raise ValueError(f"dimension mismatch: q has {q.shape[0]} entries, r = {r}")
    return q


@dataclass(frozen=True)
class FourthMoment:
    """Fourth-moment statistic of an r x n score matrix U.

    ``matrix`` is T[i*r + j, k*r + l] = (1/n) sum_t U_it U_jt U_kt U_lt.  It
    must be real, r^2 x r^2 and, to 1e-10 max|T|, symmetric as a matrix and
    under i <-> j, as the gradient needs; else ValueError, but NaN and inf
    pass.
    ``matrix`` is a private copy, so a later write to the array passed in
    cannot break the symmetries.
    """

    matrix: np.ndarray   # r^2 x r^2

    def __post_init__(self):
        t = _real_array("matrix", self.matrix, ndim=2).copy()
        r = math.isqrt(t.shape[0])
        if r < 1 or t.shape != (r * r, r * r):
            raise ValueError(f"matrix must be r^2 x r^2 for an r >= 1, got shape {t.shape}")
        swapped = t.reshape(r, r, -1).transpose(1, 0, 2).reshape(t.shape)
        with np.errstate(invalid="ignore"):  # inf - inf in a diverging statistic
            gap = max(np.max(np.abs(t - t.T)), np.max(np.abs(t - swapped)))
        if gap > 1e-10 * np.max(np.abs(t)):
            raise ValueError("matrix must be symmetric, and under i <-> j within each pair")
        object.__setattr__(self, "matrix", t)

    @property
    def r(self) -> int:
        return math.isqrt(self.matrix.shape[0])

    def objective(self, q: np.ndarray) -> float:
        """Quartic objective -(1/12) vec(q q^T)^T T vec(q q^T) at unit q."""
        q = _check_point(q, self.r)
        v = (q[:, None] * q).ravel()
        return -float(v @ self.matrix @ v) / 12

    def gradient(self, q: np.ndarray) -> np.ndarray:
        """Riemannian gradient -(1/3) P_q reshape(T vec(q q^T)) q at unit q."""
        return self._gradient_kernel()(_check_point(q, self.r))

    def _gradient_kernel(self):
        """The gradient as a function of q that writes into buffers of its
        own, the one :func:`pgd_solve` calls in every iteration.

        It contracts T over i, then j, then k, the reshape form's order up
        to T's symmetries, which the constructor checks; it returns its
        r-vector buffer, which the next call overwrites.
        """
        r = self.r
        a, b, w = np.empty(r ** 3), np.empty(r * r), np.empty(r)
        # F-ordered views: t_op[(j*r + k)*r + l, i] = T[i*r + j, k*r + l],
        # a_op[k*r + l, j] = a[(j*r + k)*r + l] and b_op[l, k] = b[k*r + l].
        t_op = self.matrix.reshape(r, r ** 3).T
        a_op, b_op = a.reshape(r, r * r).T, b.reshape(r, r).T

        def gradient(q):
            dgemv(-1.0 / 3.0, t_op, q, 0.0, a, 0, 1, 0, 1, 0, 1)
            dgemv(1.0, a_op, q, 0.0, b, 0, 1, 0, 1, 0, 1)
            dgemv(1.0, b_op, q, 0.0, w, 0, 1, 0, 1, 0, 1)
            daxpy(q, w, r, -ddot(q, w))
            return w

        return gradient

    def bias_corrected(self, sigma_n: np.ndarray) -> "FourthMoment":
        """T - 3 [vec(I) vec(S)^T + vec(S) vec(I)^T + vec(S) vec(S)^T], S = ``sigma_n``.

        On the unit sphere its objective is the plain one plus
        (1/2) t + (1/4) t^2 with t = q^T S q, and its gradient the plain
        one plus (1 + t) P_q S q; ``corrected_gradient`` in
        ``tests/helpers.py`` computes the latter from the scores.  It reads
        (S + S^T)/2, S itself bitwise for a symmetric S.  S = 0 returns T bitwise.
        """
        s = _check_sigma_n(self.r, sigma_n)
        s = ((s + s.T) / 2).ravel()
        cross = np.outer(np.eye(self.r).ravel(), s)
        return FourthMoment(self.matrix - 3 * (cross + cross.T + np.outer(s, s)))

    def restrict(self, basis: np.ndarray) -> "FourthMoment":
        """Statistic of the scores B^T U for an r x m basis B:
        (B (x) B)^T T (B (x) B)."""
        basis = _real_array("basis", basis, ndim=2)
        kron = np.kron(basis, basis)
        return FourthMoment(kron.T @ self.matrix @ kron)


def fourth_moment(u: np.ndarray) -> FourthMoment:
    """Fourth-moment statistic of the r x n score matrix ``u``.

    Built as (W W^T) / n with W[i*r + j, t] = U_it U_jt, in O(n r^4) time
    and r^2 n memory.  A complex ``u`` raises ValueError.
    """
    u = _real_array("score matrix", u)
    if u.ndim != 2 or u.shape[1] < 1:
        raise ValueError(f"score matrix must be 2-D (r x n) with n >= 1, got shape {u.shape}")
    r, n = u.shape
    w = (u[:, None, :] * u[None, :, :]).reshape(r * r, n)
    return FourthMoment((w @ w.T) / n)


@dataclass(frozen=True)
class RotationSolveConfig:
    """Projected-gradient-descent settings for one column solve."""

    step_size: float = 1e-5
    grad_tol: float = 1e-6
    max_iters: int = 5000

    def __post_init__(self):
        _check_real("step_size", self.step_size, 0, math.inf)
        _check_real("grad_tol", self.grad_tol, 0, math.inf)
        _check_integer("max_iters", self.max_iters, 1)


@dataclass(frozen=True)
class RotationResult:
    """Stacked column solutions and their orthogonalized version."""

    q_hat: np.ndarray            # r x r, unit-norm columns
    q_check: np.ndarray          # r x r, orthonormal columns
    iter_counts: np.ndarray      # iterations used per column, both solves of a restricted one
    grad_norms: np.ndarray       # final gradient norm per column
    converged_flags: np.ndarray  # whether grad_tol was reached per column
    restricted: np.ndarray       # whether the column was re-solved in the complement


def _check_prior(prior: np.ndarray) -> np.ndarray:
    prior = _real_array("prior", prior, ndim=2)
    if prior.shape[1]:
        norms = np.linalg.norm(prior, axis=0)
        if not np.max(np.abs(norms - 1.0)) <= _UNIT_TOL:  # a NaN norm fails too
            raise ValueError("prior columns must be unit-norm")
    return prior


def complement_basis(prior: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the prior columns.

    Computed from the trailing left singular vectors of the prior block,
    which is exact for orthonormal priors and stable when they are only
    nearly so.  Returns r x (r - k).
    """
    prior = _check_prior(prior)
    r, k = prior.shape
    if k >= r:
        raise DegenerateProjectorError(
            f"{k} prior columns leave no complement in dimension {r}")
    if k == 0:
        return np.eye(r)
    left, _, _ = np.linalg.svd(prior, full_matrices=True)
    return left[:, k:]


def _check_sigma_n(r: int, sigma_n) -> np.ndarray:
    sigma_n = _real_array("sigma_n", sigma_n)
    if sigma_n.shape != (r, r):
        raise ValueError("sigma_n must be r x r")
    if np.max(np.abs(sigma_n - sigma_n.T)) > 1e-10:
        raise ValueError("sigma_n must be symmetric within 1e-10")
    return sigma_n


def pgd_solve(q0: np.ndarray, stat: FourthMoment, config: RotationSolveConfig):
    """Run projected gradient descent on the sphere from ``q0``.

    ``stat`` is the :class:`FourthMoment` of the scores.  Iterates
    ``q <- normalize(q - step_size * g(q))`` where g is the statistic's
    gradient, so a :meth:`FourthMoment.bias_corrected` statistic gives the
    bias-corrected solve.
    Stops as soon as the gradient norm is at most ``grad_tol`` (checked
    before stepping, so a stationary start returns at iteration 0), or
    after ``max_iters`` updates with ``converged = False``.

    Returns
    -------
    (q, iters, grad_norm, converged)

    Raises
    ------
    DivergenceError
        If the gradient or the iterate's norm before renormalization is
        not finite.  That norm cannot collapse: g is tangent to q, so it
        is sqrt(1 + step_size**2 |g|^2) up to rounding.
    """
    q = _check_point(q0, stat.r)
    # A private contiguous float64 copy, which the loop updates in place.
    q = q / np.linalg.norm(q)

    gradient, grad_tol = stat._gradient_kernel(), config.grad_tol
    r, step = stat.r, -config.step_size
    gnorm = math.inf
    for iters in range(config.max_iters + 1):
        g = gradient(q)
        gnorm = math.sqrt(ddot(g, g))
        if not math.isfinite(gnorm):
            raise DivergenceError(
                f"non-finite gradient at iteration {iters}", iteration=iters)
        if gnorm <= grad_tol:
            return q, iters, gnorm, True
        if iters == config.max_iters:
            break
        daxpy(g, q, r, step)
        nrm = math.sqrt(ddot(q, q))
        if not math.isfinite(nrm):
            raise DivergenceError(
                f"iterate norm is not finite at iteration {iters + 1}",
                iteration=iters + 1)
        dscal(1.0 / nrm, q)
    return q, config.max_iters, gnorm, False


def _complement_solve(q0: np.ndarray, prior: np.ndarray, stat: FourthMoment,
                      config: RotationSolveConfig):
    """PGD on the unit sphere of the orthogonal complement of ``prior``,
    started from the projection of ``q0``; returns what :func:`pgd_solve`
    returns, with q mapped back to dimension r."""
    basis = complement_basis(prior)
    start = basis.T @ q0
    nrm = np.linalg.norm(start)
    if nrm < _MIN_ITERATE_NORM:
        raise DegenerateSolutionsError(
            "the initializer lies in the span of the earlier columns, so the "
            "complement solve has no start")
    q, iters, gnorm, converged = pgd_solve(start / nrm, stat.restrict(basis), config)
    return basis @ q, iters, gnorm, converged


def deflate(stat: FourthMoment, init_provider,
            config: RotationSolveConfig) -> RotationResult:
    """Solve all ``stat.r`` rotation columns sequentially, then orthogonalize.

    ``stat`` is the :class:`FourthMoment` of the r x n scores.
    ``init_provider(prior)`` must return a unit r-vector for round
    k = 1..r given only the r x (k-1) block ``prior`` of the solved columns.
    The column solves are unconstrained, except that when the smallest
    singular value of the stacked columns q_1..q_k falls below 0.1 (round
    k re-found an earlier direction) round k is solved again on the unit
    sphere of the orthogonal complement of q_1..q_{k-1}, from the
    projection of its initializer, and flagged in ``restricted``.  The
    stack then never falls below 0.1, and orthogonality is imposed once at
    the end via :func:`symmetric_orthogonalize`.

    Raises
    ------
    DegenerateSolutionsError
        If a round must be re-solved but its initializer has a numerically
        zero projection on the complement.
    """
    r = stat.r
    columns: list[np.ndarray] = []
    iter_counts, grad_norms, flags, restricted = [], [], [], []
    for k in range(1, r + 1):
        prior = np.column_stack(columns) if columns else np.zeros((r, 0))
        q0 = init_provider(prior)
        try:
            q, iters, gnorm, converged = pgd_solve(q0, stat, config)
            duplicate = k > 1 and np.linalg.svd(
                np.column_stack([prior, q]), compute_uv=False)[-1] < _NEAR_DUPLICATE_THRESHOLD
            if duplicate:
                q, more, gnorm, converged = _complement_solve(q0, prior, stat, config)
                iters += more
        except DivergenceError as err:
            raise DivergenceError(f"column {k}: {err}",
                                  iteration=err.iteration, column=k) from err
        columns.append(q)
        iter_counts.append(iters)
        grad_norms.append(gnorm)
        flags.append(converged)
        restricted.append(duplicate)

    q_hat = np.column_stack(columns)
    q_check = symmetric_orthogonalize(q_hat)
    return RotationResult(
        q_hat=q_hat,
        q_check=q_check,
        iter_counts=np.asarray(iter_counts, dtype=int),
        grad_norms=np.asarray(grad_norms, dtype=float),
        converged_flags=np.asarray(flags, dtype=bool),
        restricted=np.asarray(restricted, dtype=bool),
    )


def symmetric_orthogonalize(q_hat: np.ndarray) -> np.ndarray:
    """Nearest orthonormal-column matrix to ``q_hat`` in Frobenius norm.

    Computed as U @ V^T from the thin SVD of ``q_hat``.

    Raises
    ------
    DegenerateSolutionsError
        If ``q_hat`` is numerically rank deficient, which signals that
        two solved columns (nearly) coincide.
    """
    q_hat = _real_array("q_hat", q_hat, ndim=2)
    if q_hat.shape[0] < q_hat.shape[1] or q_hat.shape[1] < 1:
        raise ValueError("q_hat must be r x s with r >= s >= 1")
    left, singulars, right_t = np.linalg.svd(q_hat, full_matrices=False)
    if singulars[-1] <= 1e-12 * singulars[0]:
        raise DegenerateSolutionsError(
            "stacked columns are rank deficient; two deflation rounds "
            "recovered (nearly) the same column"
        )
    return left @ right_t

