"""Domain types and synthetic-data generators for the factor model X = L Z + E.

Conventions
-----------
- X is p x n: rows are features, columns are samples.
- The loading matrix has shape p x r and unit operator norm.
- Factor entries follow a Bernoulli-Gaussian law: Z = B * W with
  B ~ Bernoulli(theta) and W ~ N(0, 1), so each coordinate has second
  moment theta and excess kurtosis (3/theta - 3) / 3 > 0 for theta < 1.
- All generators are pure functions of (parameters, generator state).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import _check_integer, _check_real
from .rng import substream

__all__ = [
    "ObservationMatrix",
    "GroundTruth",
    "NoiseCovariance",
    "SyntheticConfig",
    "generate_loading",
    "generate_factors",
    "realize_noise_covariance",
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
        If the matrix is not 2-D, contains non-finite entries, or has
        fewer than two samples.
    """

    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2:
            raise ValueError("observation matrix must be 2-D (features x samples)")
        if data.shape[0] < 1 or data.shape[1] < 2:
            raise ValueError("need p >= 1 features and n >= 2 samples")
        if not np.all(np.isfinite(data)):
            raise ValueError("observation matrix contains NaN or Inf entries")
        object.__setattr__(self, "data", data)

    @property
    def p(self) -> int:
        return self.data.shape[0]

    @property
    def n(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class GroundTruth:
    """Everything a synthetic draw knows about itself.

    Attributes
    ----------
    eps2 : float
        Reciprocal signal-to-noise ratio after factoring out the factor
        second moment ``theta``: noise columns have covariance
        ``theta * eps2 * Sigma_E``.
    theta : float
        Bernoulli probability of the factor entries, which is also the
        second moment of each factor coordinate.
    kappa : float
        Excess kurtosis of each factor coordinate, ``(3/theta - 3) / 3``.
    """

    loading: np.ndarray        # p x r
    factors: np.ndarray        # r x n
    noise: np.ndarray          # p x n
    eps2: float
    theta: float
    kappa: float

    def __post_init__(self):
        p, r = self.loading.shape
        if self.factors.shape[0] != r or self.noise.shape != (p, self.factors.shape[1]):
            raise ValueError("inconsistent ground-truth shapes")


@dataclass(frozen=True)
class NoiseCovariance:
    """Noise covariance family for the synthetic generator.

    One of three tagged choices:

    - ``identity``: Sigma_E = I_p.
    - ``heteroscedastic(alpha)``: diagonal with entries
      ``p * v_j**alpha / sum(v**alpha)`` for v_j i.i.d. Uniform[0, 1];
      ``alpha`` controls the spread and the trace is exactly p.
    - ``toeplitz(rho)``: entries ``rho ** |i - j|``.
    """

    kind: str
    alpha: float = 0.1
    rho: float = 0.5

    KINDS = ("identity", "heteroscedastic", "toeplitz")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown noise covariance kind: {self.kind!r}")
        if self.kind == "heteroscedastic":
            _check_real("heteroscedastic exponent alpha", self.alpha, 0, math.inf,
                        low_closed=True)
        if self.kind == "toeplitz":
            _check_real("toeplitz decay rho", self.rho, 0, 1)

    @classmethod
    def identity(cls) -> "NoiseCovariance":
        return cls("identity")

    @classmethod
    def heteroscedastic(cls, alpha: float) -> "NoiseCovariance":
        return cls("heteroscedastic", alpha=alpha)

    @classmethod
    def toeplitz(cls, rho: float) -> "NoiseCovariance":
        return cls("toeplitz", rho=rho)


@dataclass(frozen=True)
class SyntheticConfig:
    """Parameters of one synthetic draw of (X, ground truth).

    ``varepsilon2`` scales the noise in the simulation parameterization:
    noise columns are i.i.d. N(0, varepsilon2 * Sigma_E / p).
    """

    n: int
    p: int
    r: int
    theta: float = 0.1
    varepsilon2: float = 0.1
    noise_kind: NoiseCovariance = field(default_factory=NoiseCovariance.identity)
    seed: int = 0

    def __post_init__(self):
        _check_integer("n", self.n, 2)
        _check_integer("p", self.p, 1)
        _check_integer("r", self.r, 1)
        _check_integer("seed", self.seed, 0)
        if self.r > min(self.p, self.n):
            raise ValueError(f"r={self.r} exceeds min(p, n)={min(self.p, self.n)}")
        _check_real("theta", self.theta, 0, 1, high_closed=True)
        _check_real("varepsilon2", self.varepsilon2, 0, math.inf, low_closed=True)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def generate_loading(p: int, r: int, rng: np.random.Generator):
    """Draw a p x r loading matrix with unit operator norm.

    The matrix is ``Lbar @ diag(d)`` rescaled by its largest singular
    value, where ``Lbar`` has i.i.d. standard normal entries and the
    column scales ``d`` are i.i.d. Uniform[0.5, 1.5].

    Returns
    -------
    (loading, d) : (np.ndarray, np.ndarray)
        The normalized p x r loading and the raw column scales.
    """
    if r > p:
        raise ValueError(f"r={r} exceeds p={p}")
    if r < 1:
        raise ValueError("r must be >= 1")
    raw = rng.standard_normal((p, r))
    d = rng.uniform(0.5, 1.5, size=r)
    scaled = raw * d
    opnorm = np.linalg.norm(scaled, 2)
    if opnorm <= 0:
        raise ValueError("degenerate loading draw with zero operator norm")
    return scaled / opnorm, d


def generate_factors(r: int, n: int, theta: float, rng: np.random.Generator) -> np.ndarray:
    """Draw an r x n factor matrix with i.i.d. Bernoulli-Gaussian entries.

    Each entry is B * W with B ~ Bernoulli(theta) and W ~ N(0, 1), all
    independent.  Coordinates have second moment theta and excess
    kurtosis ``(3/theta - 3) / 3``.
    """
    _check_real("theta", theta, 0, 1, high_closed=True)
    mask = rng.random((r, n)) < theta
    gauss = rng.standard_normal((r, n))
    return gauss * mask


def realize_noise_covariance(kind: NoiseCovariance, p: int,
                             rng: np.random.Generator) -> np.ndarray:
    """Realize a p x p noise covariance matrix from the given family."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if kind.kind == "identity":
        return np.eye(p)
    if kind.kind == "heteroscedastic":
        v = rng.random(p)
        weights = v ** kind.alpha
        gamma2 = p * weights / weights.sum()
        return np.diag(gamma2)
    idx = np.arange(p)
    return kind.rho ** np.abs(idx[:, None] - idx[None, :])


def generate_dataset(config: SyntheticConfig):
    """Draw one (X, ground truth) pair according to ``config``.

    X = loading @ factors + noise, with noise columns i.i.d.
    N(0, varepsilon2 * Sigma_E / p).  The loading, factor, covariance and
    noise draws use four independent streams derived from ``config.seed``,
    so e.g. changing ``varepsilon2`` does not perturb the loading draw.
    """
    p, n, r = config.p, config.n, config.r
    loading, _ = generate_loading(p, r, substream(config.seed, "loading"))
    factors = generate_factors(r, n, config.theta, substream(config.seed, "factors"))
    sigma_e = realize_noise_covariance(config.noise_kind, p, substream(config.seed, "noise-cov"))

    if config.varepsilon2 > 0:
        gauss = substream(config.seed, "noise").standard_normal((p, n))
        scale = np.sqrt(config.varepsilon2 / p)
        if config.noise_kind.kind in ("identity", "heteroscedastic"):
            noise = scale * np.sqrt(np.diag(sigma_e))[:, None] * gauss
        else:
            noise = scale * (np.linalg.cholesky(sigma_e) @ gauss)
    else:
        noise = np.zeros((p, n))

    x = loading @ factors + noise

    truth = GroundTruth(
        loading=loading,
        factors=factors,
        noise=noise,
        eps2=config.varepsilon2 / (p * config.theta),
        theta=config.theta,
        kappa=(3.0 / config.theta - 3.0) / 3.0,
    )
    return ObservationMatrix(x), truth
