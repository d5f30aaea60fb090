"""Truncated PCA of the sample second-moment matrix, with noise corrections.

The decomposition is of (1/n) X X^T and computes only what the estimator
reads: the leading r eigenpairs and the sum of the trailing eigenvalues.
``_leading_spectrum`` takes the pairs from the first of three solvers
that returns them:

1. if ``_gram_free_pays`` (40 max(2r + 1, 20) <= min(p, n)), Lanczos
   (ARPACK's dsaupd and dseupd from a fixed start vector, see
   ``_lanczos``) on the p x p operator v -> X (X^T v) / n, which never
   forms a Gram matrix and returns p-side vectors; its restarts are
   bounded so a slow convergence costs about one Gram formation;
2. if ``_lanczos_pays`` (20 r <= min(p, n)), Lanczos on the shorter
   side's Gram matrix, (1/n) X X^T for p <= n and (1/n) X^T X for p > n;
3. LAPACK's subset solve of that Gram matrix: ``dsyevr`` with the
   arguments and workspace sizes that ``scipy.linalg.eigh(subset_by_index=
   ..., overwrite_a=True, check_finite=False)`` passes it, so the pairs
   are eigh's bit for bit.

A Lanczos solve that does not converge returns nothing and the next
solver runs.  For p > n the Gram vectors W map to the p side as
X W / sqrt(n lambda).  The tail sum is the trace minus the leading sum,
and the trace doubles as the check that X is finite.
The Lanczos routes drive scipy's ARPACK extension
``scipy.sparse.linalg._eigen.arpack._arpacklib`` and the dense solve takes
``dsyevr`` from scipy's f2py extension ``scipy.linalg._flapack``; both are
loaded from their files (see ``_fortran``), so no route runs the package
init of scipy.sparse.linalg or scipy.linalg.
Whitened scores satisfy U_r @ U_r.T = n * I to the accuracy of the solve,
which degrades like eps * lambda_1 / lambda_r near rank deficiency.  When
the noise is close to isotropic, the mean trailing eigenvalue estimates
the per-coordinate noise variance; subtracting it from the leading
eigenvalues and re-whitening the scores gives a corrected
``PcaDecomposition``, whose ``sigma_n_hat`` the bias-corrected rotation
solver reads.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ._fortran import load
from .exceptions import (CorrectionInfeasibleError, NoSignalError, RankDeficiencyError,
                         _check_integer, _real_array)

__all__ = [
    "PcaDecomposition",
    "eigendecompose",
    "leading_eigenvalues",
    "noise_variance_estimate",
    "corrected_decomposition",
    "select_rank",
    "EIGENVALUE_FLOOR",
]

# Relative floor below which an eigenvalue counts as numerically zero.
EIGENVALUE_FLOOR = 1e-12

# Seed of the Lanczos start vector, and of any new start vector ARPACK
# asks for later in the solve.  It is fixed, never drawn from the
# caller's rng or the global numpy state, so repeated solves of the same
# matrix are bitwise identical.  A Gaussian start has, with probability
# one, a component along every eigenvector; a constant one has none along
# a leading eigenvector orthogonal to the all-ones vector, and only
# rounding error would bring that eigenvector into the Krylov space.
_LANCZOS_START_SEED = 20231016

_flapack = load("scipy.linalg", "_flapack")
_arpacklib = load("scipy.sparse.linalg._eigen.arpack", "_arpacklib")

# The solver state that scipy's ``_SymmetricArpackParams`` passes to
# ``dsaupd_wrap`` for ``eigsh(which="LA", tol=0, v0=...)``: the largest
# algebraic eigenvalues (which = 6), a given start vector (info = 1),
# mode 1 with the identity as B (bmat = 0) and ARPACK's own shifts.  The
# extension keeps its place in the reverse-communication loop in these
# keys; n, ncv, nev and maxiter are set for each solve.
_ARPACK_STATE = {
    **dict.fromkeys(("getv0_rnorm0", "aitr_betaj", "aitr_rnorm1", "aitr_wnorm",
                     "aup2_rnorm"), 0.0),
    "tol": 0, "ido": 0, "which": 6, "bmat": 0, "info": 1, "iter": 0, "maxiter": 0,
    "mode": 1, "n": 0, "nconv": 0, "ncv": 0, "nev": 0, "np": 0, "shift": 1,
    **dict.fromkeys(("getv0_first", "getv0_iter", "getv0_itry", "getv0_orth",
                     "aitr_iter", "aitr_j", "aitr_orth1", "aitr_orth2",
                     "aitr_restart", "aitr_step3", "aitr_step4", "aitr_ierr",
                     "aup2_initv", "aup2_iter", "aup2_getv0", "aup2_cnorm",
                     "aup2_kplusp", "aup2_nev", "aup2_nev0", "aup2_np0",
                     "aup2_numcnv", "aup2_update", "aup2_ushift"), 0),
}


def _lanczos_pays(size: int, k: int) -> bool:
    """Whether Lanczos beats the dense subset solve for the k leading
    pairs of a size x size symmetric matrix.

    The dense solve reduces the whole matrix to tridiagonal form, O(N^3);
    Lanczos costs some matrix-vector products per wanted pair, how many
    depends on the gap after the k-th eigenvalue.  Median ms, dense dsyevr
    subset vs. ``eigsh``, on one BLAS thread of a 2-vCPU VM, for the Gram
    of factor-model data (varepsilon2 = 0.1, r = k) / of pure noise:

        N=20,   k=5:    0.09 vs 0.66 /  0.06 vs 0.43
        N=100,  k=3:    0.55 vs 0.66 /  0.46 vs 2.0
        N=150,  k=3:    1.2  vs 0.62 /  0.83 vs 2.1
        N=300,  k=5:    3.4  vs 1.0  /  3.3  vs 5.3
        N=1000, k=10:   97   vs 9.6  /  93   vs 114
        N=120,  k=12:   1.3  vs 1.1  /  1.3  vs 3.4
        N=400,  k=40:   15   vs 5.4  /  13   vs 26
        N=1000, k=100:  141  vs 106  /  156  vs 333

    With a gap, Lanczos wins from N of about 150; without one it loses at
    every size, by 2-2.6x at k = N/10 and by 1.2x at N=1000, k=10.  So
    the k = N/10 rows stay on the dense solve, and Lanczos runs where a
    gap, which the factor model assumes, makes it several times faster.
    """
    return 20 * k <= size


def _lanczos_basis_size(k: int) -> int:
    """``eigsh``'s default number of Lanczos vectors for k pairs."""
    return max(2 * k + 1, 20)


def _gram_free_pays(p: int, n: int, k: int) -> bool:
    """Whether Lanczos on v -> X (X^T v) / n beats forming the Gram matrix
    for the k leading pairs of (1/n) X X^T.

    Forming the Gram costs min(p, n)^2 max(p, n) flops at matrix-multiply
    speed; one product with X X^T streams X twice, so the Gram costs
    about min(p, n) / 30 such products.  With a gap after the k-th
    eigenvalue Lanczos converges in its first pass of about ncv + 1
    products, ncv = max(2k + 1, 20).  Median ms of ``eigendecompose``,
    Gram route vs. this route (with its bounded restarts and fallback),
    on one BLAS thread of a 2-vCPU VM, for factor-model data (varepsilon2
    = 0.1 unless given, r = k):

        p=1000, n=2000, k=10:         56 vs 37      (rule: yes)
        p=2000, n=1000, k=10:         56 vs 34      (yes)
        p=2000, n=4000, k=20:         354 vs 257    (yes)
        p=800,  n=800,  k=5:          17 vs 12      (yes)
        p=800,  n=2000, k=5:          30 vs 28      (yes)
        p=800,  n=2000, k=10:         36 vs 29      (no)
        p=600,  n=2000, k=10:         18 vs 22      (no)
        p=300,  n=2000, k=5:          5.2 vs 11     (no)
        p=200,  n=4000, k=5:          5.3 vs 14     (no)
        p=1000, n=3000, k=20:         72 vs 98      (no)
        p=1000, n=2000, k=10, 0.8:    59 vs 46      (yes)
        p=1000, n=2000, k=10, 1.6:    59 vs 50      (yes)
        p=1000, n=2000, k=10, 3.2:    54 vs 113     (yes; falls back)
        p=1000, n=2000, k=10, noise:  149 vs 195    (yes; falls back)
        p=2000, n=1000, k=10, noise:  126 vs 172    (yes; falls back)

    The route wins from min(p, n) of about 800 at ncv = 20 and loses at
    600; at k = 20 (ncv = 41) it still loses at 1000.  Where Lanczos needs
    more than the budget of products, as on pure noise or when the signal
    barely clears it (varepsilon2 = 3.2), the attempt is wasted and the
    call costs up to about twice the Gram route.
    """
    return 40 * _lanczos_basis_size(k) <= min(p, n)


def _fix_column_signs(v: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive."""
    idx = np.argmax(np.abs(v), axis=0)
    signs = np.where(v[idx, np.arange(v.shape[1])] < 0, -1.0, 1.0)
    return v * signs


@dataclass(frozen=True)
class PcaDecomposition:
    """Result of the PCA step, plain or noise-corrected.

    Attributes
    ----------
    eigvals : np.ndarray
        The r leading eigenvalues of (1/n) X X^T, nonincreasing; after
        :func:`corrected_decomposition`, those minus ``noise_var_hat``.
    tail_sum : float
        Sum of the remaining eigenvalues, trace((1/n) X X^T) minus the sum
        of the plain leading eigenvalues, floored at 0.
    eigvecs_r : np.ndarray
        p x r matrix of the leading eigenvectors.
    scores : np.ndarray
        r x n principal components whitened by ``eigvals``, D^{-1/2} V^T X.
    noise_var_hat : float or None
        The noise variance subtracted from ``eigvals``; None for a plain
        decomposition.
    """

    eigvals: np.ndarray
    tail_sum: float
    eigvecs_r: np.ndarray
    scores: np.ndarray
    noise_var_hat: Optional[float] = None

    @property
    def p(self) -> int:
        return self.eigvecs_r.shape[0]

    @property
    def r(self) -> int:
        return self.eigvecs_r.shape[1]

    @property
    def sigma_n_hat(self) -> Optional[np.ndarray]:
        """diag(noise_var_hat / eigvals), the score-noise covariance estimate."""
        if self.noise_var_hat is None:
            return None
        return np.diag(self.noise_var_hat / self.eigvals)


def _checked_observations(x: np.ndarray, k: int, name: str) -> np.ndarray:
    x = _real_array("x", x, ndim=2)
    p, n = x.shape
    _check_integer(name, k, 1)
    if k > min(p, n):
        raise ValueError(f"{name}={k} must lie in [1, min(p, n)={min(p, n)}]")
    return x


def _checked_trace(x: np.ndarray, trace: float) -> float:
    """``trace``, the sum of squares of ``x`` over n, if it is finite.

    A NaN or Inf entry of ``x`` makes the sum of squares NaN or Inf, so
    a finite trace proves ``x`` finite without a pass of its own; only a
    trace that is not finite costs a scan, which tells such entries from
    a sum of squares that overflows."""
    if np.isfinite(trace):
        return float(trace)
    if not np.isfinite(x).all():
        raise ValueError("observation matrix contains NaN or Inf entries")
    raise ValueError("the sum of squares of the observation matrix overflows "
                     "double precision; rescale the data")


def _leading_spectrum(x: np.ndarray, k: int):
    """The k leading eigenvalues of (1/n) X X^T (nonincreasing, floored at
    0), their eigenvectors as columns, and the sum of the remaining
    eigenvalues, by the solver chain of the module docstring.  The
    eigenvectors are those of (1/n) X^T X (n rows) when the p > n Gram
    matrix was solved, else those of (1/n) X X^T (p rows).

    Raises ValueError, before any solve, if the trace is not finite."""
    p, n = x.shape
    size = min(p, n)
    pairs = None
    if _gram_free_pays(p, n, k):
        trace = _checked_trace(x, np.vdot(x, x) / n)
        # ARPACK's first pass takes ncv + 1 products and each restart at
        # most ncv - k more; the budget is size / 30 products, about one
        # Gram formation (see ``_gram_free_pays``), and at least one restart.
        ncv = _lanczos_basis_size(k)
        restarts = max(1, (size // 30 - ncv - 1) // (ncv - k))
        pairs = _lanczos(lambda v: x @ (x.T @ v) / n, p, k, maxiter=restarts)
    if pairs is None:
        # Either product goes through syrk, so the Gram matrix is exactly
        # symmetric.  A huge finite x overflows it; the trace check names
        # that, so the product's overflow warnings are silenced.
        with np.errstate(over="ignore", invalid="ignore"):
            gram = x @ x.T if p <= n else x.T @ x
        gram /= n
        trace = _checked_trace(x, np.trace(gram))
        if _lanczos_pays(size, k):
            pairs = _lanczos(gram.dot, size, k)
    if pairs is None:
        pairs = _dense_subset(gram, k)
    vals, vecs = pairs
    eigvals = np.maximum(vals[::-1], 0.0)
    return eigvals, vecs[:, ::-1], max(trace - float(eigvals.sum()), 0.0)


def _dense_subset(gram: np.ndarray, k: int):
    """The k largest eigenpairs of the symmetric ``gram`` (its lower
    triangle is read and overwritten), values nondecreasing, by solver 3
    of the module docstring."""
    size = gram.shape[0]
    lwork, liwork, _ = _flapack.dsyevr_lwork(size, lower=1)
    w, v, m, _, info = _flapack.dsyevr(gram, compute_v=1, lower=1, range="I",
                                       il=size - k + 1, iu=size, overwrite_a=1,
                                       lwork=int(lwork), liwork=int(liwork))
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK dsyevr failed with info={info}")
    return w[:m], v[:, :m]


def _lanczos(matvec, size: int, k: int, maxiter: Optional[int] = None):
    """The k largest eigenpairs of the symmetric size x size matrix whose
    product with a vector is ``matvec``, values nondecreasing; None if
    ARPACK does not converge within ``maxiter`` restarts (10 size if None).

    Lanczos with ``_lanczos_basis_size(k)`` vectors from the fixed start
    vector, by ARPACK's reverse-communication loop in mode 1: the calls,
    state and buffers of ``scipy.sparse.linalg.eigsh(a, k, which="LA",
    tol=0, v0=<start>, maxiter=maxiter)``, so the pairs are eigsh's bit for
    bit, except that a new start vector ARPACK asks for is drawn from the
    fixed seed too, where eigsh takes fresh entropy.

    Raises np.linalg.LinAlgError if ARPACK reports any other error."""
    ncv = _lanczos_basis_size(k)
    state = dict(_ARPACK_STATE, n=size, ncv=ncv, nev=k,
                 maxiter=10 * size if maxiter is None else maxiter)
    rng = np.random.default_rng(_LANCZOS_START_SEED)
    resid = rng.standard_normal(size)
    v = np.zeros((size, ncv))
    workd = np.zeros(3 * size)
    workl = np.zeros(ncv * (ncv + 8))
    ipntr = np.zeros(11, dtype=np.int32)
    while True:
        _arpacklib.dsaupd_wrap(state, resid, v, ipntr, workd, workl)
        ido = state["ido"]
        x = slice(ipntr[0], ipntr[0] + size)
        y = slice(ipntr[1], ipntr[1] + size)
        if ido in (1, 5):
            workd[y] = matvec(workd[x])
        elif ido == 2:
            workd[y] = workd[x]
        elif ido == 4:
            resid[:] = rng.uniform(low=-1.0, high=1.0, size=size)
        else:
            break
    if state["info"] == 1:
        return None
    if state["info"] != 0:
        raise np.linalg.LinAlgError(f"ARPACK dsaupd failed with info={state['info']}")
    # dseupd_wrap(state, rvec, howmny, select, d, z, sigma, ...): all k
    # Ritz vectors (howmny "A" is 0) and no shift in mode 1.
    d = np.zeros(k)
    z = np.zeros((size, ncv), order="F")
    _arpacklib.dseupd_wrap(state, True, 0, np.zeros(ncv, dtype=np.int32), d, z, 0,
                           resid, v, ipntr, workd, workl)
    if state["info"] != 0:
        raise np.linalg.LinAlgError(f"ARPACK dseupd failed with info={state['info']}")
    nconv = state["nconv"]
    return d[:nconv], z[:, :nconv].copy()


def eigendecompose(x: np.ndarray, r: int) -> PcaDecomposition:
    """Eigendecompose (1/n) X X^T and whiten the leading r components.

    Only the top r pairs are solved for, by the solver chain of the module
    docstring.  Signs are fixed so the largest-magnitude entry of each
    column is positive.  Near rank deficiency the vectors mapped from the
    p > n Gram matrix lose orthonormality like eps * lambda_1 / lambda_r,
    as the p <= n whitening does: at lambda_r / lambda_1 = 1e-8 and p=400,
    n=60 the orthonormality error was 1.3e-8 and the whitening error
    2.6e-8 n, against 1.3e-8 n for p=60, n=400.

    Raises
    ------
    ValueError
        If ``x`` is complex, not 2-D or holds NaN or Inf, its sum of
        squares overflows, or r exceeds min(p, n).
    RankDeficiencyError
        If the r-th eigenvalue is at or below ``EIGENVALUE_FLOOR`` times
        the largest one.
    """
    x = _checked_observations(x, r, "r")
    eigvals, vecs, tail_sum = _leading_spectrum(x, r)

    floor = EIGENVALUE_FLOOR * eigvals[0]
    if eigvals[r - 1] <= floor:
        raise RankDeficiencyError(
            f"eigenvalue {r} is {eigvals[r - 1]:.3e}, at or below the floor "
            f"{floor:.3e}; the data has numerical rank < {r}"
        )

    p, n = x.shape
    if vecs.shape[0] != p:
        vecs = (x @ vecs) / np.sqrt(n * eigvals)
    eigvecs_r = _fix_column_signs(vecs)
    scores = (eigvecs_r.T @ x) / np.sqrt(eigvals)[:, None]
    return PcaDecomposition(eigvals=eigvals, tail_sum=tail_sum,
                            eigvecs_r=eigvecs_r, scores=scores)


def leading_eigenvalues(x: np.ndarray, k: int) -> np.ndarray:
    """The k leading eigenvalues of (1/n) X X^T, nonincreasing.

    Same input checks and solve as :func:`eigendecompose`, which also
    computes the eigenvectors; only the values are returned.
    ``k = min(p, n)`` gives every eigenvalue that can be nonzero.

    Raises
    ------
    ValueError
        If ``x`` is complex, not 2-D or holds NaN or Inf, its sum of
        squares overflows, or k is outside [1, min(p, n)].
    """
    x = _checked_observations(x, k, "k")
    return _leading_spectrum(x, k)[0]


def noise_variance_estimate(decomp: PcaDecomposition) -> float:
    """Average of the trailing eigenvalues, an isotropic noise-variance estimate.

    Returns ``tail_sum / (p - r)`` with p = ``decomp.p``, the mean of the
    p - r eigenvalues after the r retained ones; those beyond min(p, n) are
    exactly zero and contribute only to the denominator.  A tail mean at
    or below ``EIGENVALUE_FLOOR`` times the top eigenvalue is returned as
    exactly 0.0, so a noiseless decomposition corrects to itself.

    Raises
    ------
    CorrectionInfeasibleError
        If p <= r; there are no trailing eigenvalues, so callers must use
        the uncorrected pipeline.
    """
    p, r = decomp.p, decomp.r
    if p <= r:
        raise CorrectionInfeasibleError(
            f"p={p} <= r={r} leaves no trailing eigenvalues; "
            "use the uncorrected pipeline"
        )
    value = decomp.tail_sum / (p - r)
    if value <= EIGENVALUE_FLOOR * decomp.eigvals[0]:
        return 0.0
    return value


def corrected_decomposition(decomp: PcaDecomposition) -> PcaDecomposition:
    """Subtract the estimated noise variance from the retained eigenvalues.

    Returns ``decomp`` with ``eigvals`` D_r - noise_var_hat, ``scores``
    rescaled by sqrt(D_r / (D_r - noise_var_hat)) and ``noise_var_hat``
    set; ``eigvecs_r`` and ``tail_sum`` are kept.  The corrected scores
    are V_r^T X / sqrt(D_r - noise_var_hat) only while ``decomp.scores``
    are V_r^T X / sqrt(D_r), as :func:`eigendecompose` returns them.

    Raises
    ------
    ValueError
        If ``decomp`` is already corrected (it would subtract twice).
    CorrectionInfeasibleError
        If any corrected eigenvalue falls at or below the eigenvalue
        floor, in which case callers should fall back to the uncorrected
        pipeline.
    """
    if decomp.noise_var_hat is not None:
        raise ValueError("decomposition is already noise-corrected")
    noise_var = noise_variance_estimate(decomp)
    corrected = decomp.eigvals - noise_var
    floor = EIGENVALUE_FLOOR * decomp.eigvals[0]
    if np.min(corrected) <= floor:
        bad = int(np.argmin(corrected)) + 1
        raise CorrectionInfeasibleError(
            f"corrected eigenvalue {bad} is {corrected[bad - 1]:.3e}, at or "
            f"below the floor {floor:.3e}; fall back to the uncorrected pipeline"
        )
    return replace(decomp, eigvals=corrected,
                   scores=decomp.scores * np.sqrt(decomp.eigvals / corrected)[:, None],
                   noise_var_hat=noise_var)


def select_rank(eigvals: np.ndarray, r_max: int) -> int:
    """Pick the rank with the largest eigen-ratio d_j / d_{j+1}.

    Candidates are j = 1..min(r_max, len(eigvals) - 1); ties break toward
    the smallest index.  Denominators are floored at ``EIGENVALUE_FLOOR``
    times the top eigenvalue so a zero tail cannot divide by zero.
    """
    eigvals = _real_array("eigvals", eigvals, ndim=1)
    _check_integer("r_max", r_max, 1)
    if eigvals.size == 0 or not np.all(np.isfinite(eigvals)) or eigvals[0] <= 0:
        raise NoSignalError("all eigenvalues are at or below zero")
    m = min(r_max, eigvals.size - 1)
    if m == 0:
        return 1
    denom = np.maximum(eigvals[1 : m + 1], EIGENVALUE_FLOOR * eigvals[0])
    ratios = eigvals[:m] / denom
    return int(np.argmax(ratios)) + 1
