"""Does the `improved1` pipeline (corrected PCA, plain statistic) ever beat
`improved2` (corrected PCA, bias-corrected statistic)?

Run from the root of a checkout:

    PYTHONPATH=src python3 studies/variants.py            # the full grid
    PYTHONPATH=src python3 studies/variants.py --quick    # 1 seed, 2 reps, 2 cells, no rule

Each cell is fitted on every master seed.  `base` and `improved2` come from
`run_experiment`; `improved1` is composed here from public calls, with the
datasets and estimation streams `run_experiment` would give it, so the study
runs whether or not the library ships that variant.  Per cell and seed, a
variant's score is its median error over the reps, a failure counting as
+inf.  The rule, fixed before any run: keep `improved1` only if in some cell
the median over seeds of `improved2`'s scores exceeds that of `improved1`'s
by more than the spread (max - min) of `improved2`'s scores across seeds.

Prints a markdown table and writes the numbers as JSON (default
`studies/out/variants.json`).  Imports only the public API.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from dvarimax import (CorrectionInfeasibleError, ExperimentGrid, InitScheme,
                      RotationSolveConfig, SyntheticConfig, corrected_decomposition,
                      deflate, derive_seed, eigendecompose, fourth_moment,
                      generate_dataset, loading_from_rotation, make_init_provider,
                      run_experiment, signed_permutation_error, substream)

SEEDS = (109, 7, 2024, 1000, 5)
SWEEP = "varepsilon2"
MOM = InitScheme.method_of_moments()
STEP = RotationSolveConfig(step_size=1e-2)
CAREFUL = RotationSolveConfig(step_size=1e-4, grad_tol=1e-6, max_iters=5000)
VARIANTS = ("base", "improved1", "improved2")


def _cell(label, n, p, r, eps2, solve=STEP, reps=30, **noise):
    return {"label": label, "solve": solve, "reps": reps,
            "config": SyntheticConfig(n=n, p=p, r=r, theta=0.1, varepsilon2=eps2, **noise)}


# Every cell has theta = 0.1 and identity noise unless its label says otherwise.
CELLS = (
    _cell("(500, 20, 5, 0.8)", 500, 20, 5, 0.8),
    _cell("(500, 20, 5, 1.6)", 500, 20, 5, 1.6),
    _cell("(900, 300, 5, 0.1)", 900, 300, 5, 0.1),
    _cell("(500, 200, 5, 0.8)", 500, 200, 5, 0.8),
    _cell("(2000, 100, 5, 1.6)", 2000, 100, 5, 1.6),
    _cell("heteroscedastic α=4, (500, 200, 5, 0.8)", 500, 200, 5, 0.8,
          noise_kind="heteroscedastic", noise_alpha=4.0),
    _cell("Toeplitz ρ=0.5, (500, 20, 5, 0.8)", 500, 20, 5, 0.8,
          noise_kind="toeplitz", noise_rho=0.5),
    _cell("criterion 9, step 1e-4, (500, 20, 5, 0.8)", 500, 20, 5, 0.8,
          solve=CAREFUL, reps=50),
)


def improved1_estimate(x, r, scheme, solve_config, rng):
    """The corrected PCA (the plain one where the correction is infeasible)
    feeds the plain statistic, the rotation and the loading.  Returns the
    loading and deflate's result."""
    fitted = eigendecompose(x, r)
    try:
        fitted = corrected_decomposition(fitted)
    except CorrectionInfeasibleError:
        pass
    stat = fourth_moment(fitted.scores)
    rotation = deflate(stat, make_init_provider(scheme, stat, rng), solve_config)
    return loading_from_rotation(fitted, rotation.q_check), rotation


def improved1_errors(cell, master_seed) -> np.ndarray:
    """`improved1`'s error per rep on the datasets `run_experiment` draws
    for this cell and master seed; NaN for a fit that raised."""
    value = float(cell["config"].varepsilon2)
    errors = []
    for rep in range(cell["reps"]):
        data_seed = derive_seed(master_seed, "data", SWEEP, value, rep)
        try:
            observed, truth = generate_dataset(replace(cell["config"], seed=data_seed))
            rng = substream(master_seed, "estimate", "improved1", MOM.label, SWEEP, value, rep)
            loading, _ = improved1_estimate(observed.data, cell["config"].r, MOM,
                                            cell["solve"], rng)
            errors.append(signed_permutation_error(loading, truth.loading)[0])
        except Exception as exc:  # a failed fit scores +inf, as in run_experiment's NaN
            print(f"improved1 failed, seed {master_seed}, rep {rep}: "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
            errors.append(float("nan"))
    return np.array(errors)


def library_errors(cell, master_seed) -> dict:
    grid = ExperimentGrid(
        base=cell["config"], sweep_name=SWEEP, sweep_values=(cell["config"].varepsilon2,),
        variants=("base", "improved2"), init_schemes=(MOM,), replications=cell["reps"],
        master_seed=master_seed, solve_config=cell["solve"])
    records = run_experiment(grid)
    return {variant: np.array([rec.error for rec in records if rec.variant == variant])
            for variant in grid.variants}


def _score(errors: np.ndarray) -> float:
    return float(np.median(np.where(np.isnan(errors), np.inf, errors)))


def run_cell(cell, seeds) -> dict:
    scores = {variant: [] for variant in VARIANTS}
    failed = dict.fromkeys(VARIANTS, 0)
    for seed in seeds:
        errors = {**library_errors(cell, seed), "improved1": improved1_errors(cell, seed)}
        for variant in VARIANTS:
            scores[variant].append(_score(errors[variant]))
            failed[variant] += int(np.isnan(errors[variant]).sum())
    medians = {variant: float(np.median(scores[variant])) for variant in VARIANTS}
    gap = medians["improved2"] - medians["improved1"]
    spread = float(np.max(scores["improved2"]) - np.min(scores["improved2"]))
    config = cell["config"]
    return {
        "label": cell["label"],
        "config": {name: getattr(config, name) for name in
                   ("n", "p", "r", "theta", "varepsilon2", "noise_kind",
                    "noise_alpha", "noise_rho")},
        "step_size": cell["solve"].step_size,
        "reps": cell["reps"],
        "per_seed_median": scores,
        "failed_fits": failed,
        "median_over_seeds": medians,
        "improved2_minus_improved1": gap,
        "improved2_spread": spread,
        "improved1_wins": bool(gap > spread),
    }


def table(rows) -> str:
    """The markdown table; `improved1` is named for what it runs, since the
    library no longer ships it under that name."""
    lines = ["| cell (n, p, r, ε²) | base | corrected PCA, plain statistic | improved2 "
             "| gap: improved2 − plain statistic | spread of improved2 | plain wins |",
             "|---|---|---|---|---|---|---|"]
    for row in rows:
        medians = row["median_over_seeds"]
        lines.append(
            f"| {row['label']} | {medians['base']:.3f} | {medians['improved1']:.3f} "
            f"| {medians['improved2']:.3f} | {row['improved2_minus_improved1']:+.3f} "
            f"| {row['improved2_spread']:.3f} | {'yes' if row['improved1_wins'] else 'no'} |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: 1 seed, 2 reps, the first 2 cells")
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).resolve().parent / "out" / "variants.json")
    args = parser.parse_args(argv)

    cells, seeds = CELLS, SEEDS
    if args.quick:
        cells, seeds = [dict(cell, reps=2) for cell in CELLS[:2]], SEEDS[:1]
    start = time.perf_counter()
    rows = [run_cell(cell, seeds) for cell in cells]
    # one seed has no spread, so a quick run cannot apply the rule
    keep = None if args.quick else any(row["improved1_wins"] for row in rows)
    elapsed = time.perf_counter() - start

    print(table(rows))
    outcome = {None: "not applied", True: "keep improved1", False: "delete improved1"}[keep]
    print(f"\nseeds {', '.join(map(str, seeds))}; rule: {outcome}; {elapsed:.1f} s")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(
        {"seeds": list(seeds), "quick": args.quick, "cells": rows,
         "keep_improved1": keep, "runtime_s": elapsed}, indent=1) + "\n",
        encoding="utf8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
