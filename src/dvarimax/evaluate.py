"""Estimation-error metric and the Monte-Carlo benchmark harness.

The error between an estimated and a true loading matrix is the Frobenius
distance minimized over signed permutations of the columns.  Because the
squared distance decomposes into independent per-column costs, the exact
minimum is a linear assignment problem with cost

    c[j, k] = min(|est_k - true_j|^2, |est_k + true_j|^2),

solved exactly by the Hungarian method in ``_assignment``.

The harness sweeps one parameter of a synthetic configuration over a grid
of (variant x init scheme x replication) cells.  All variants and init
schemes at the same (sweep value, replication) see the same dataset, so
comparisons between estimators are paired.  Seeds derive from the master
seed and the cell's labels (never from positional indices), so adding
grid points or reordering the grid does not perturb existing cells.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from itertools import product
from typing import Optional, Sequence

import numpy as np

from .estimator import VARIANTS, estimate_loading
from .exceptions import (_check_bool, _check_choice, _check_integer, _check_real, _check_type,
                         _real_array)
from .initialization import InitScheme
from .model import SyntheticConfig, generate_dataset
from .rng import _MASK64, derive_seed, substream
from .rotation import RotationSolveConfig

__all__ = [
    "SWEEPABLE_PARAMETERS",
    "ExperimentGrid",
    "ExperimentRecord",
    "SummaryRow",
    "signed_permutation_error",
    "run_experiment",
    "aggregate",
    "records_to_csv",
    "summary_to_csv",
    "RECORDS_HEADER",
    "SUMMARY_HEADER",
]

# Each sweepable parameter with the type of its values.
SWEEPABLE_PARAMETERS = {"n": int, "p": int, "r": int, "varepsilon2": float, "theta": float}


# ---------------------------------------------------------------------------
# Error metric
# ---------------------------------------------------------------------------

def _assignment(cost: np.ndarray) -> list:
    """The column of each row in a minimum-cost assignment of the square,
    finite ``cost``: Kuhn's Hungarian method with row and column
    potentials, which seats one row at a time along a shortest augmenting
    path (the Jonker-Volgenant form), O(r^3).  Column r is the path's root."""
    c = cost.tolist()
    r = len(c)
    u, v, owner = [0.0] * r, [0.0] * (r + 1), [-1] * (r + 1)
    for i in range(r):
        owner[r], j0 = i, r
        dist, via, done = [math.inf] * r, [r] * r, [False] * r + [True]
        while owner[j0] >= 0:
            done[j0] = True
            row, base = c[owner[j0]], u[owner[j0]]
            delta, j1 = math.inf, -1
            for j in range(r):
                if not done[j]:
                    d = row[j] - base - v[j]
                    if d < dist[j]:
                        dist[j], via[j] = d, j0
                    if dist[j] < delta:
                        delta, j1 = dist[j], j
            for j in range(r + 1):
                if done[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                else:
                    dist[j] -= delta
            j0 = j1
        while j0 != r:
            owner[j0], j0 = owner[via[j0]], via[j0]
    cols = [0] * r
    for j in range(r):
        cols[owner[j]] = j
    return cols


def signed_permutation_error(lambda_hat: np.ndarray, lambda_true: np.ndarray):
    """Exact min over signed permutations P of |lambda_hat - lambda_true @ P|_F.

    Returns
    -------
    (error, p_opt) : (float, np.ndarray)
        The minimal Frobenius distance and an optimal r x r signed
        permutation matrix achieving it.

    Raises
    ------
    ValueError
        If an argument is complex, the shapes differ or are not 2-D, an
        argument holds NaN or Inf, or the per-column costs overflow double
        precision.
    """
    est = _real_array("lambda_hat", lambda_hat, ndim=2, finite=True)
    true = _real_array("lambda_true", lambda_true, ndim=2, finite=True)
    if est.shape != true.shape:
        raise ValueError(f"shape mismatch: {est.shape} vs {true.shape}")
    r = est.shape[1]

    with np.errstate(over="ignore", invalid="ignore"):
        inner = true.T @ est                  # inner[j, k] = true_j . est_k
        est_sq = np.sum(est ** 2, axis=0)
        true_sq = np.sum(true ** 2, axis=0)
        cost = true_sq[:, None] + est_sq[None, :] - 2.0 * np.abs(inner)
    if not np.isfinite(cost).all():
        raise ValueError("the column costs overflow double precision; "
                         "rescale the loadings")

    p_opt = np.zeros((r, r))
    for j, k in enumerate(_assignment(cost)):
        p_opt[j, k] = 1.0 if inner[j, k] >= 0 else -1.0
    # evaluate the distance directly so a perfect match is exactly zero
    # (the expanded per-column costs above cancel only approximately)
    error = float(np.linalg.norm(est - true @ p_opt))
    return error, p_opt


# ---------------------------------------------------------------------------
# Experiment grid
# ---------------------------------------------------------------------------

def _entries(name: str, value) -> tuple:
    """``value``'s entries as a nonempty tuple; ValueError naming the field
    for a str, a scalar or a lone InitScheme, which are not lists of
    entries."""
    if isinstance(value, (str, InitScheme)):
        raise ValueError(f"{name} must be a list of entries, got {value!r}")
    try:
        entries = tuple(value)
    except TypeError:
        raise ValueError(f"{name} must be a list of entries, got {value!r}") from None
    if not entries:
        raise ValueError(f"{name} must be nonempty")
    return entries


@dataclass(frozen=True)
class ExperimentGrid:
    """One benchmark sweep: a base configuration with one varied parameter."""

    base: SyntheticConfig
    sweep_name: str
    sweep_values: tuple
    variants: tuple = ("improved2",)
    init_schemes: tuple = (InitScheme.method_of_moments(),)
    replications: int = 100
    master_seed: int = 0
    solve_config: RotationSolveConfig = field(default_factory=RotationSolveConfig)
    record_runtime: bool = False

    def __post_init__(self):
        _check_type("base", self.base, SyntheticConfig)
        _check_type("solve_config", self.solve_config, RotationSolveConfig)
        _check_choice("sweep_name", self.sweep_name, SWEEPABLE_PARAMETERS)
        for name in ("sweep_values", "variants", "init_schemes"):
            object.__setattr__(self, name, _entries(name, getattr(self, name)))
        typed = SWEEPABLE_PARAMETERS[self.sweep_name]
        for value in self.sweep_values:
            if typed is int:
                _check_integer(self.sweep_name, value)
            else:
                # no NaN or infinite theta or varepsilon2 makes a valid cell
                _check_real(self.sweep_name, value, -math.inf, math.inf)
        _check_integer("replications", self.replications, 1)
        _check_integer("master_seed", self.master_seed, 0, _MASK64)
        _check_bool("record_runtime", self.record_runtime)
        # Seeds key on the value, so 1, 1.0 and np.int64(1) must be one value.
        object.__setattr__(self, "sweep_values",
                           tuple(typed(value) for value in self.sweep_values))
        for variant in self.variants:
            _check_choice("variant", variant, VARIANTS)
        for scheme in self.init_schemes:
            _check_type("init_schemes entry", scheme, InitScheme)
        # a repeated entry (60 and np.int64(60) are one sweep value once
        # coerced), or two schemes with one label (say mom in two
        # subtraction modes), would count the same cells twice in one row
        labels = [scheme.label for scheme in self.init_schemes]
        for name, entries in (("sweep_values", self.sweep_values),
                              ("variants", self.variants), ("init_schemes", labels)):
            if len(set(entries)) < len(entries):
                raise ValueError(f"{name} must not repeat an entry")


@dataclass(frozen=True)
class ExperimentRecord:
    """One benchmark cell result; ``error`` is NaN on failure."""

    variant: str
    init: str
    sweep_name: str
    sweep_value: float
    rep: int
    seed: int
    error: float
    iters_total: int = 0
    fallback: bool = False
    runtime_ms: float = 0.0
    failure: str = ""


@dataclass(frozen=True)
class SummaryRow:
    """Aggregated statistics for one (variant, init, sweep value) cell."""

    variant: str
    init: str
    sweep_name: str
    sweep_value: float
    n_ok: int
    n_fail: int
    mean: float
    median: float
    q25: float
    q75: float


RECORDS_HEADER = ",".join(spec.name for spec in fields(ExperimentRecord))
SUMMARY_HEADER = ",".join(spec.name for spec in fields(SummaryRow))


def run_experiment(grid: ExperimentGrid) -> list:
    """Run every (sweep value x variant x init x replication) cell in turn.

    Each cell's dataset seed derives from (master seed, sweep value,
    replication), shared across variants and init schemes; the estimation
    stream additionally keys on the variant and init labels.  Failures in
    a cell are recorded as NaN with a failure tag and never abort the
    sweep.  Output order is lexicographic in (value, variant, init, rep).
    With ``grid.record_runtime`` each record carries the estimate's own
    ``runtime_ms``; otherwise it is 0.0, so reruns are byte-identical.
    """
    def run_cell(value, variant, scheme, rep) -> ExperimentRecord:
        data_seed = derive_seed(grid.master_seed, "data", grid.sweep_name,
                                value, rep)
        common = dict(variant=variant, init=scheme.label,
                      sweep_name=grid.sweep_name, sweep_value=value,
                      rep=rep, seed=data_seed)
        try:
            config = replace(grid.base, **{grid.sweep_name: value, "seed": data_seed})
            observed, truth = generate_dataset(config)
            est_rng = substream(grid.master_seed, "estimate", variant,
                                scheme.label, grid.sweep_name, value, rep)
            estimate = estimate_loading(observed.data, config.r, variant, scheme,
                                        grid.solve_config, est_rng)
            error, _ = signed_permutation_error(estimate.lambda_hat, truth.loading)
            return ExperimentRecord(
                error=error,
                iters_total=int(estimate.diagnostics.iter_counts.sum()),
                fallback=estimate.fallback,
                runtime_ms=estimate.runtime_ms if grid.record_runtime else 0.0,
                **common)
        except Exception as exc:  # failures must never abort the sweep
            return ExperimentRecord(
                error=float("nan"),
                failure=f"{type(exc).__name__}: {exc}",
                **common)

    return [run_cell(*cell) for cell in product(
        grid.sweep_values, grid.variants, grid.init_schemes,
        range(grid.replications))]


def aggregate(records: Sequence[ExperimentRecord]) -> list:
    """Summarize records per cell: counts plus mean/median/quartiles.

    NaN-error records count as failures and are excluded from the
    statistics.  Cells appear in first-seen order.
    """
    if not records:
        raise ValueError("no records to aggregate")
    groups: dict = {}
    for rec in records:
        key = (rec.variant, rec.init, rec.sweep_name, rec.sweep_value)
        groups.setdefault(key, []).append(rec)

    rows = []
    for (variant, init, sweep_name, sweep_value), cell in groups.items():
        errors = np.array([rec.error for rec in cell])
        ok = errors[np.isfinite(errors)]
        n_fail = int(errors.size - ok.size)
        if ok.size:
            mean, median = float(np.mean(ok)), float(np.median(ok))
            q25, q75 = (float(np.quantile(ok, 0.25)), float(np.quantile(ok, 0.75)))
        else:
            mean = median = q25 = q75 = float("nan")
        rows.append(SummaryRow(variant=variant, init=init, sweep_name=sweep_name,
                               sweep_value=sweep_value, n_ok=int(ok.size),
                               n_fail=n_fail, mean=mean, median=median,
                               q25=q25, q75=q75))
    return rows


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------

def _field(value) -> str:
    """One CSV field.  Text is quoted as RFC 4180 asks when it holds a
    separator, a quote or a line break; a bool is 1 or 0, an integer is
    printed as one and any other number as the repr of its float."""
    if isinstance(value, str):
        if any(c in value for c in ',"\r\n'):
            return '"' + value.replace('"', '""') + '"'
        return value
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_csv(path, header: str, rows) -> None:
    """Write ``header`` and one line per row, whose fields are the row's
    attributes named in the header, every line ending in a bare line feed."""
    names = header.split(",")
    lines = [header] + [",".join(_field(getattr(row, name)) for name in names)
                        for row in rows]
    with open(path, "w", encoding="utf8", newline="") as handle:
        handle.write("\n".join(lines) + "\n")


def records_to_csv(records: Sequence[ExperimentRecord], path) -> None:
    """Write records with the fixed benchmark header, one row per cell.

    ``failure`` is empty for a cell that ran and holds the exception's
    type and message for one that failed.
    """
    _write_csv(path, RECORDS_HEADER, records)


def summary_to_csv(rows: Sequence[SummaryRow], path) -> None:
    """Write per-cell summaries with the fixed summary header."""
    _write_csv(path, SUMMARY_HEADER, rows)
