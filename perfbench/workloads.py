"""The benchmark's workloads: seeded inputs and one closed-loop call each.

A *fit* is one estimate of a loading matrix.  On ``sweep-careful`` it is
one ``run_experiment`` cell (generate, estimate, score), and one call runs
a small grid of cells, so that a sweep that batches its cells can show
it; on the ``estimate-*`` workloads a call is one ``estimate_loading``
call on a dataset generated during set-up.  Every input derives from the
``--seed`` argument; the program only ever sees the generated inputs.

Each workload also fits a small fixed *reference set* whose seeds never
change.  Its signed-permutation errors are compared with the committed
values in ``reference.json``, so a speed-up that changes the estimate
fails the correctness check.
"""
from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

import dvarimax.evaluate as evaluate
from dvarimax import (ExperimentGrid, InitScheme, RotationSolveConfig,
                      SyntheticConfig, derive_seed, estimate_loading,
                      generate_dataset, run_experiment,
                      signed_permutation_error, substream)

CAREFUL_SOLVE = RotationSolveConfig(step_size=1e-4, grad_tol=1e-6, max_iters=5000)
FAST_SOLVE = RotationSolveConfig(step_size=1e-2)

# Seeds of the fixed reference sets; independent of --seed by design.
REFERENCE_SEEDS = (101, 102)


@dataclass
class FitResult:
    """One fit as the benchmark checks and reports it.  ``seconds`` is the
    wall time of the call that made it, divided by the fits in the call."""

    seconds: float
    lambda_hat: np.ndarray | None = None
    iter_counts: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    converged: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))
    error: float = float("nan")
    failure: str = ""

    @property
    def failed(self) -> bool:
        return bool(self.failure) or not np.isfinite(self.error)


class SweepCareful:
    """``run_experiment`` on the criterion-9 cell: each call runs both
    variants on ``REPS`` paired datasets."""

    name = "sweep-careful"
    span = "evaluate.run_experiment"
    base = SyntheticConfig(n=500, p=20, r=5, theta=0.1, varepsilon2=0.8)
    REPS = 2

    def grid(self, master_seed: int, reps: int = REPS,
             variants=("base", "improved2")) -> ExperimentGrid:
        return ExperimentGrid(
            base=self.base, sweep_name="varepsilon2", sweep_values=(0.8,),
            variants=variants, init_schemes=(InitScheme.method_of_moments(),),
            replications=reps, master_seed=master_seed, solve_config=CAREFUL_SOLVE)

    def make_inputs(self, seed: int) -> list:
        # The loop cycles through the list, so its length only bounds how
        # many distinct calls a run can time.
        return [self.grid(derive_seed(seed, self.name, i)) for i in range(16)]

    def reference_inputs(self) -> list:
        return [self.grid(REFERENCE_SEEDS[0], reps=1)]

    def warm_up(self, inputs: list) -> None:
        self.call(replace(inputs[0], replications=1, variants=("base",)), -1)

    def call(self, grid: ExperimentGrid, tag: int, around=nullcontext) -> list:
        """Run one grid and return its cells; ``around`` is entered right
        around the call (the traced run opens the call's root span there).
        The rng comes from the grid's master seed, so ``tag`` is unused."""
        # run_experiment keeps the estimates to itself; capture them by
        # rebinding the name it calls, so every fit's output can be checked.
        captured = []
        inner = evaluate.estimate_loading

        def capture(*args, **kwargs):
            estimate = inner(*args, **kwargs)
            captured.append(estimate)
            return estimate

        evaluate.estimate_loading = capture
        try:
            start = time.perf_counter()
            with around():
                records = run_experiment(grid)   # threads defaults to 1
            seconds = time.perf_counter() - start
        finally:
            evaluate.estimate_loading = inner
        fits = [FitResult(seconds=seconds / len(records), error=record.error,
                          failure=record.failure) for record in records]
        # Estimates arrive in record order; a failed cell may have none.
        ok = [fit for fit in fits if not fit.failure]
        if len(captured) == len(ok):
            for fit, estimate in zip(ok, captured):
                fit.lambda_hat = estimate.lambda_hat
                fit.iter_counts = estimate.diagnostics.iter_counts
                fit.converged = estimate.diagnostics.converged_flags
        return fits


@dataclass(frozen=True)
class Dataset:
    data: np.ndarray
    loading: np.ndarray
    seed: int


class EstimateWorkload:
    """``estimate_loading`` on a pool of datasets generated in set-up."""

    span = "estimator.estimate_loading"

    def __init__(self, name: str, config: SyntheticConfig, variant: str,
                 pool: int):
        self.name = name
        self.config = config
        self.variant = variant
        self.pool = pool

    def dataset(self, data_seed: int) -> Dataset:
        observed, truth = generate_dataset(replace(self.config, seed=data_seed))
        return Dataset(observed.data, truth.loading, data_seed)

    def make_inputs(self, seed: int) -> list:
        return [self.dataset(derive_seed(seed, self.name, i))
                for i in range(self.pool)]

    def reference_inputs(self) -> list:
        return [self.dataset(s) for s in REFERENCE_SEEDS]

    def warm_up(self, inputs: list) -> None:
        self.call(inputs[0], -1)

    def call(self, dataset: Dataset, tag: int, around=nullcontext) -> list:
        """Time one call with the init rng keyed by (dataset seed, ``tag``);
        ``around`` is entered right around the call."""
        rng = substream(dataset.seed, "estimate", tag)
        start = time.perf_counter()
        try:
            with around():
                estimate = estimate_loading(
                    dataset.data, self.config.r, self.variant,
                    InitScheme.method_of_moments(), FAST_SOLVE, rng)
            seconds = time.perf_counter() - start
        except Exception as exc:  # a failed fit is counted, never fatal
            return [FitResult(seconds=time.perf_counter() - start,
                              failure=f"{type(exc).__name__}: {exc}")]
        error, _ = signed_permutation_error(estimate.lambda_hat, dataset.loading)
        return [FitResult(seconds=seconds, lambda_hat=estimate.lambda_hat,
                          iter_counts=estimate.diagnostics.iter_counts,
                          converged=estimate.diagnostics.converged_flags,
                          error=error)]


WORKLOADS = {
    w.name: w for w in (
        SweepCareful(),
        EstimateWorkload("estimate-tall",
                         SyntheticConfig(n=20000, p=30, r=3, theta=0.1,
                                         varepsilon2=0.0),
                         "base", pool=16),
        EstimateWorkload("estimate-wide",
                         SyntheticConfig(n=2000, p=1000, r=10, theta=0.1,
                                         varepsilon2=0.1),
                         "improved2", pool=4),
    )
}
