"""Domain types and synthetic-data generators for the factor model X = L Z + E.

Conventions
-----------
- X is p x n: rows are features, columns are samples.
- The loading matrix has shape p x r and unit operator norm.
- Factor entries follow a Bernoulli-Gaussian law: Z = B * W with
  B ~ Bernoulli(theta) and W ~ N(0, 1), so each coordinate has second
  moment theta and excess kurtosis 3/theta - 3 > 0 for theta < 1.
- All generators are pure functions of (parameters, generator state).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import _check_choice, _check_integer, _check_real, _real_array
from .rng import _MASK64, substream

__all__ = [
    "ObservationMatrix",
    "GroundTruth",
    "NOISE_KINDS",
    "SyntheticConfig",
    "generate_loading",
    "generate_factors",
    "generate_dataset",
]


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ObservationMatrix:
    """A p x n data matrix with samples stored column-wise.

    Raises
    ------
    ValueError
        If the matrix is complex or not 2-D, contains non-finite entries,
        or has fewer than two samples.
    """

    data: np.ndarray

    def __post_init__(self):
        data = _real_array("observation matrix", self.data, ndim=2, finite=True)
        if data.shape[0] < 1 or data.shape[1] < 2:
            raise ValueError("need p >= 1 features and n >= 2 samples")
        object.__setattr__(self, "data", data)


@dataclass(frozen=True)
class GroundTruth:
    """Everything a synthetic draw knows about itself.

    The noise is not stored: it is ``X - loading @ factors`` (up to the
    rounding of that sum), and ``generate_dataset`` draws it, of every
    noise kind, straight into the buffer that becomes X.
    """

    loading: np.ndarray        # p x r
    factors: np.ndarray        # r x n

    def __post_init__(self):
        if self.factors.shape[0] != self.loading.shape[1]:
            raise ValueError("inconsistent ground-truth shapes")


NOISE_KINDS = ("identity", "heteroscedastic", "toeplitz")


@dataclass(frozen=True)
class SyntheticConfig:
    """Parameters of one synthetic draw of (X, ground truth).

    ``varepsilon2`` scales the noise in the simulation parameterization:
    noise columns are i.i.d. N(0, varepsilon2 * Sigma_E / p), where
    Sigma_E is drawn from the family ``noise_kind``, one of ``NOISE_KINDS``:

    - ``identity``: Sigma_E = I_p.
    - ``heteroscedastic``: diagonal with entries
      ``p * v_j**noise_alpha / sum(v**noise_alpha)`` for v_j i.i.d.
      Uniform[0, 1]; ``noise_alpha`` controls the spread and the trace is
      exactly p.
    - ``toeplitz``: entries ``noise_rho ** |i - j|``.

    ``noise_alpha`` and ``noise_rho`` are checked whatever the kind.
    """

    n: int
    p: int
    r: int
    theta: float = 0.1
    varepsilon2: float = 0.1
    noise_kind: str = "identity"
    noise_alpha: float = 0.1
    noise_rho: float = 0.5
    seed: int = 0

    def __post_init__(self):
        _check_integer("n", self.n, 2)
        _check_integer("p", self.p, 1)
        _check_integer("r", self.r, 1)
        _check_integer("seed", self.seed, 0, _MASK64)
        if self.r > min(self.p, self.n):
            raise ValueError(f"r={self.r} exceeds min(p, n)={min(self.p, self.n)}")
        _check_real("theta", self.theta, 0, 1, high_closed=True)
        _check_real("varepsilon2", self.varepsilon2, 0, math.inf, low_closed=True)
        _check_choice("noise_kind", self.noise_kind, NOISE_KINDS)
        _check_real("heteroscedastic exponent alpha", self.noise_alpha, 0, math.inf,
                    low_closed=True)
        _check_real("toeplitz decay rho", self.noise_rho, 0, 1)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def generate_loading(p: int, r: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a p x r loading matrix with unit operator norm.

    The matrix is ``Lbar @ diag(d)`` rescaled by its largest singular
    value, where ``Lbar`` has i.i.d. standard normal entries and the
    column scales ``d`` are i.i.d. Uniform[0.5, 1.5].
    """
    _check_integer("p", p, 1)
    _check_integer("r", r, 1)
    if r > p:
        raise ValueError(f"r={r} exceeds p={p}")
    raw = rng.standard_normal((p, r))
    d = rng.uniform(0.5, 1.5, size=r)
    scaled = raw * d
    opnorm = np.linalg.norm(scaled, 2)
    if opnorm <= 0:
        raise ValueError("degenerate loading draw with zero operator norm")
    return scaled / opnorm


def generate_factors(r: int, n: int, theta: float, rng: np.random.Generator) -> np.ndarray:
    """Draw an r x n factor matrix with i.i.d. Bernoulli-Gaussian entries.

    Each entry is B * W with B ~ Bernoulli(theta) and W ~ N(0, 1), all
    independent.  Coordinates have second moment theta and excess
    kurtosis ``3/theta - 3``.
    """
    _check_integer("r", r, 1)
    _check_integer("n", n, 1)
    _check_real("theta", theta, 0, 1, high_closed=True)
    mask = rng.random((r, n)) < theta
    gauss = rng.standard_normal((r, n))
    return gauss * mask


def _heteroscedastic_variances(p: int, alpha: float,
                               rng: np.random.Generator) -> np.ndarray:
    """The p heteroscedastic noise variances ``p * v**alpha / sum(v**alpha)``
    for v_j i.i.d. Uniform[0, 1]; they sum to p."""
    weights = rng.random(p) ** alpha
    return p * weights / weights.sum()


# Entries of Gaussian noise drawn, scaled and added at a time: 256 KiB of
# doubles, so a draw holds no p x n noise array beside X.
_NOISE_BLOCK = 1 << 15


def _add_noise(config: SyntheticConfig, x: np.ndarray) -> None:
    """Add the p x n noise of ``config``, columns i.i.d.
    N(0, varepsilon2 * Sigma_E / p), to ``x`` in place.

    The standard normal draw comes in blocks of rows, and Sigma_E is never
    formed; the stream yields the same numbers as one p x n draw.  For the
    Toeplitz kind each row g_i first becomes e_i = rho e_{i-1} +
    sqrt(1 - rho^2) g_i with e_0 = g_0, the AR(1) recursion that applies
    the Cholesky factor of [rho^|i-j|] one row at a time.  Each block is
    then scaled in place by its rows' standard deviations and added to x.
    """
    p, n = x.shape
    rng = substream(config.seed, "noise")
    scale = np.sqrt(config.varepsilon2 / p)
    if config.noise_kind == "heteroscedastic":
        row_scale = scale * np.sqrt(_heteroscedastic_variances(
            p, config.noise_alpha, substream(config.seed, "noise-cov")))
    else:
        row_scale = np.full(p, scale)
    rho = config.noise_rho
    innovation = math.sqrt(1.0 - rho * rho)
    rows = max(1, _NOISE_BLOCK // n)
    prev = None
    for start in range(0, p, rows):
        block = rng.standard_normal((min(rows, p - start), n))
        if config.noise_kind == "toeplitz":
            for row in block:
                if prev is not None:
                    row *= innovation
                    row += rho * prev
                prev = row
            prev = prev.copy()  # the block is scaled in place below
        block *= row_scale[start:start + rows, None]
        x[start:start + rows] += block


def generate_dataset(config: SyntheticConfig):
    """Draw one (X, ground truth) pair according to ``config``.

    X = loading @ factors + noise, with noise columns i.i.d.
    N(0, varepsilon2 * Sigma_E / p).  The loading, factor and noise draws
    use independent streams derived from ``config.seed``, and the
    heteroscedastic variances a fourth, so e.g. changing ``varepsilon2``
    does not perturb the loading draw.

    A draw of any noise kind holds one p x n buffer and never forms the
    p x p Sigma_E: the product ``loading @ factors`` becomes X, and the
    noise is drawn and added into it a block of rows at a time, Toeplitz
    rows by their AR(1) recursion.  Each entry of X is rounded as the one
    sum of the product and the noise.  No copy of the noise is kept: it is
    X - loading @ factors.
    """
    p, n, r = config.p, config.n, config.r
    loading = generate_loading(p, r, substream(config.seed, "loading"))
    factors = generate_factors(r, n, config.theta, substream(config.seed, "factors"))
    # One matmul over the whole shape: a BLAS can round an entry of the same
    # product differently when it is taken in row blocks, or accumulated
    # into the noise by another BLAS build (scipy's dgemm with beta = 1 did
    # on a p=300, n=900, r=5 draw with two threads).
    x = loading @ factors
    if config.varepsilon2 > 0:
        _add_noise(config, x)

    return ObservationMatrix(x), GroundTruth(loading=loading, factors=factors)
