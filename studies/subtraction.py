"""How does the `mom` initializer's subtraction mode move a fit's
iterations and error?

Run from the root of a checkout:

    PYTHONPATH=src python3 studies/subtraction.py            # the full grid
    PYTHONPATH=src python3 studies/subtraction.py --quick    # 1 seed, 2 reps

Each cell is fitted on every master seed with `base` and `improved2`, once
per subtraction mode of `InitScheme.method_of_moments`.  Each mode gets a
`run_experiment` grid of its own, since a grid rejects two `mom` schemes,
so both modes fit the same datasets from the same estimation streams.  Per
(cell, seed, variant) the table gives each mode's median over the reps of
a fit's total PGD iterations and of its error, and the change in median
iterations from `as_written` to `lemma_consistent`.  A failed fit is left
out of the iteration median and counts as +inf in the error median.

Prints a markdown table and writes the numbers as JSON (default
`studies/out/subtraction.json`).  Imports only the public API.
"""
from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from dvarimax import (ExperimentGrid, InitScheme, RotationSolveConfig, SyntheticConfig,
                      run_experiment)

SEEDS = (109, 7, 2024)
SWEEP = "varepsilon2"
MODES = ("as_written", "lemma_consistent")
VARIANTS = ("base", "improved2")
STEP = RotationSolveConfig(step_size=1e-2)
REPS = 30


def _cell(label, n, p, r, eps2):
    return {"label": label,
            "config": SyntheticConfig(n=n, p=p, r=r, theta=0.1, varepsilon2=eps2)}


# The first cell is acceptance criterion 9's, here at step 1e-2.
CELLS = (
    _cell("criterion 9, (500, 20, 5, 0.8)", 500, 20, 5, 0.8),
    _cell("(900, 300, 5, 0.1)", 900, 300, 5, 0.1),
    _cell("(500, 200, 5, 0.8)", 500, 200, 5, 0.8),
)


def mode_records(cell, master_seed, mode, reps) -> dict:
    """Per variant, the (iterations, error) of each rep's fit in ``mode``."""
    grid = ExperimentGrid(
        base=cell["config"], sweep_name=SWEEP, sweep_values=(cell["config"].varepsilon2,),
        variants=VARIANTS, init_schemes=(InitScheme.method_of_moments(subtraction=mode),),
        replications=reps, master_seed=master_seed, solve_config=STEP)
    records = run_experiment(grid)
    return {variant: [(rec.iters_total, rec.error) for rec in records
                      if rec.variant == variant] for variant in VARIANTS}


def _medians(fits) -> dict:
    iters = np.array([it for it, _ in fits], dtype=float)
    errors = np.array([err for _, err in fits])
    ok = ~np.isnan(errors)
    return {"iterations": float(np.median(iters[ok])) if ok.any() else float("nan"),
            "error": float(np.median(np.where(ok, errors, np.inf))),
            "failed_fits": int((~ok).sum())}


def run_cell(cell, seeds, reps) -> list:
    rows = []
    for seed in seeds:
        fits = {mode: mode_records(cell, seed, mode, reps) for mode in MODES}
        for variant in VARIANTS:
            medians = {mode: _medians(fits[mode][variant]) for mode in MODES}
            before, after = (medians[mode]["iterations"] for mode in MODES)
            rows.append({"label": cell["label"], "seed": seed, "variant": variant,
                         "reps": reps, "medians": medians,
                         "iteration_change": after / before - 1.0})
    return rows


def table(rows) -> str:
    lines = ["| cell (n, p, r, ε²) | seed | variant | iterations, as_written "
             "| iterations, lemma_consistent | change | error, as_written "
             "| error, lemma_consistent |",
             "|---|---|---|---|---|---|---|---|"]
    for row in rows:
        written, lemma = (row["medians"][mode] for mode in MODES)
        lines.append(
            f"| {row['label']} | {row['seed']} | {row['variant']} "
            f"| {written['iterations']:.0f} | {lemma['iterations']:.0f} "
            f"| {row['iteration_change']:+.0%} | {written['error']:.3f} "
            f"| {lemma['error']:.3f} |")
    return "\n".join(lines)


def change_range(rows, label) -> dict:
    """Per variant, the least and greatest change in median iterations
    over the seeds of the cell named ``label``."""
    ranges = {}
    for variant in VARIANTS:
        changes = [row["iteration_change"] for row in rows
                   if row["label"] == label and row["variant"] == variant]
        ranges[variant] = [min(changes), max(changes)]
    return ranges


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: 1 seed, 2 reps per cell")
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).resolve().parent / "out" / "subtraction.json")
    args = parser.parse_args(argv)

    seeds, reps = (SEEDS[:1], 2) if args.quick else (SEEDS, REPS)
    start = time.perf_counter()
    rows = [row for cell in CELLS for row in run_cell(cell, seeds, reps)]
    criterion = change_range(rows, CELLS[0]["label"])
    elapsed = time.perf_counter() - start

    print(table(rows))
    spans = "; ".join(f"{variant} {low:+.0%} to {high:+.0%}"
                      for variant, (low, high) in criterion.items())
    print(f"\nseeds {', '.join(map(str, seeds))}; change in median iterations on the "
          f"criterion-9 cell: {spans}; {elapsed:.1f} s")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(
        {"seeds": list(seeds), "quick": args.quick, "step_size": STEP.step_size,
         "rows": rows, "criterion_9_iteration_change": criterion,
         "runtime_s": elapsed}, indent=1) + "\n", encoding="utf8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
