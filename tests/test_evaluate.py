"""Tests for the error metric and the benchmark harness."""
import csv
from dataclasses import replace

import numpy as np
import pytest
from helpers import brute_force_signed_permutation_error, random_orthogonal
from hypothesis import given, settings
from hypothesis import strategies as st

from dvarimax import (ExperimentGrid, ExperimentRecord, InitScheme,
                      RotationSolveConfig, SyntheticConfig, aggregate,
                      estimate_loading, generate_dataset, records_to_csv,
                      run_experiment, signed_permutation_error, substream,
                      summary_to_csv)
from dvarimax.evaluate import RECORDS_HEADER, SUMMARY_HEADER, _assignment
from dvarimax.initialization import SUBTRACTION_MODES


def _signed_permutation(r, rng):
    perm = rng.permutation(r)
    signs = rng.choice([-1.0, 1.0], size=r)
    p = np.zeros((r, r))
    for k in range(r):
        p[perm[k], k] = signs[k]
    return p


# ---------------------------------------------------------------------------
# signed_permutation_error
# ---------------------------------------------------------------------------

def test_error_zero_for_signed_permutation():
    rng = substream(0, "eval")
    loading = rng.standard_normal((7, 4))
    p0 = _signed_permutation(4, rng)
    error, p_opt = signed_permutation_error(loading @ p0, loading)
    assert error <= 1e-12
    assert np.linalg.norm(loading @ p0 - loading @ p_opt) <= 1e-12


def test_error_absorbs_column_sign():
    rng = substream(1, "eval")
    loading = rng.standard_normal((5, 3))
    flipped = loading.copy()
    flipped[:, 0] *= -1.0
    error, _ = signed_permutation_error(flipped, loading)
    assert error <= 1e-12


def test_error_single_column_axes():
    error, _ = signed_permutation_error(np.array([[0.0], [1.0]]),
                                        np.array([[1.0], [0.0]]))
    assert error == pytest.approx(np.sqrt(2.0))


def test_error_self_is_zero_and_triangle_bound():
    rng = substream(2, "eval")
    for _ in range(20):
        a = rng.standard_normal((6, 3))
        b = rng.standard_normal((6, 3))
        assert signed_permutation_error(a, a)[0] == 0.0
        error, _ = signed_permutation_error(a, b)
        assert error <= np.linalg.norm(a - b) + 1e-12


def test_error_invariant_under_signed_permutations_of_both_sides():
    rng = substream(3, "eval")
    a = rng.standard_normal((5, 4))
    b = rng.standard_normal((5, 4))
    base, _ = signed_permutation_error(a, b)
    for _ in range(10):
        p1 = _signed_permutation(4, rng)
        p2 = _signed_permutation(4, rng)
        moved, _ = signed_permutation_error(a @ p1, b @ p2)
        assert moved == pytest.approx(base, abs=1e-10)


@settings(max_examples=40)
@given(p=st.integers(1, 9), r=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_error_signed_permutation_invariant_and_symmetric(p, r, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((p, r))
    b = rng.standard_normal((p, r))
    base, _ = signed_permutation_error(a, b)
    moved, _ = signed_permutation_error(a @ _signed_permutation(r, rng), b)
    swapped, _ = signed_permutation_error(b, a)
    assert abs(moved - base) <= 1e-12
    assert abs(swapped - base) <= 1e-12


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_error_matches_brute_force(r):
    rng = substream(4, "eval")
    for _ in range(10):
        est = rng.standard_normal((6, r))
        true = rng.standard_normal((6, r))
        fast, p_opt = signed_permutation_error(est, true)
        slow = brute_force_signed_permutation_error(est, true)
        assert fast == pytest.approx(slow, abs=1e-10)
        # the returned matrix is a signed permutation achieving the minimum
        assert np.linalg.norm(est - true @ p_opt) == pytest.approx(fast, abs=1e-10)
        assert np.array_equal(np.abs(p_opt) @ np.ones(r), np.ones(r))


def test_error_shape_mismatch():
    with pytest.raises(ValueError):
        signed_permutation_error(np.zeros((3, 2)), np.zeros((3, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("argument", ["lambda_hat", "lambda_true"])
def test_error_rejects_non_finite_entries_by_argument(argument, bad):
    rng = substream(5, "eval")
    args = {"lambda_hat": rng.standard_normal((5, 3)),
            "lambda_true": rng.standard_normal((5, 3))}
    args[argument][2, 1] = bad
    with pytest.raises(ValueError, match=f"{argument} contains NaN or Inf"):
        signed_permutation_error(**args)


@pytest.mark.parametrize("argument", ["lambda_hat", "lambda_true"])
def test_error_rejects_complex_entries_by_argument(argument):
    rng = substream(5, "eval")
    args = {"lambda_hat": rng.standard_normal((5, 3)),
            "lambda_true": rng.standard_normal((5, 3))}
    args[argument] = args[argument] + 1j
    with pytest.raises(ValueError, match=f"{argument} must be real, got dtype complex128"):
        signed_permutation_error(**args)


def test_error_rejects_column_costs_that_overflow():
    huge = np.full((4, 2), 1e200)
    with pytest.raises(ValueError, match="overflow"):
        signed_permutation_error(huge, -huge)


def test_assignment_matches_scipy_on_continuous_costs():
    # With continuous costs the optimum is unique, so every exact solver
    # returns the same column for every row.
    from scipy.optimize import linear_sum_assignment
    rng = substream(6, "eval")
    for r in range(1, 13):
        for _ in range(40):
            cost = rng.standard_normal((r, r)) * 10.0 ** rng.integers(-3, 4)
            assert _assignment(cost) == linear_sum_assignment(cost)[1].tolist()


def test_assignment_reaches_the_minimum_on_tied_integer_costs():
    from scipy.optimize import linear_sum_assignment
    rng = substream(7, "eval")
    for r in range(1, 13):
        for _ in range(40):
            cost = rng.integers(0, 4, size=(r, r)).astype(float)
            cols = _assignment(cost)
            assert sorted(cols) == list(range(r))
            rows, best = linear_sum_assignment(cost)
            assert cost[range(r), cols].sum() == cost[rows, best].sum()


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------

def _small_grid(**overrides):
    settings = dict(
        base=SyntheticConfig(n=120, p=8, r=2, theta=0.3, varepsilon2=0.05, seed=0),
        sweep_name="n",
        sweep_values=(120,),
        variants=("base",),
        init_schemes=(InitScheme.method_of_moments(8),),
        replications=1,
        master_seed=77,
        solve_config=RotationSolveConfig(step_size=1e-2, max_iters=2000),
    )
    settings.update(overrides)
    return ExperimentGrid(**settings)


def test_single_cell_single_record():
    records = run_experiment(_small_grid())
    assert len(records) == 1
    rec = records[0]
    assert rec.variant == "base" and rec.init == "mom"
    assert np.isfinite(rec.error) and rec.error >= 0
    assert rec.iters_total > 0


def test_record_iters_total_sums_the_fits_own_iterations():
    grid = _small_grid()
    (rec,) = run_experiment(grid)
    scheme = grid.init_schemes[0]
    config = replace(grid.base, n=120, seed=rec.seed)
    observed, _ = generate_dataset(config)
    est = estimate_loading(observed.data, config.r, "base", scheme,
                           grid.solve_config,
                           substream(grid.master_seed, "estimate", "base",
                                     scheme.label, "n", 120, 0))
    assert isinstance(rec.iters_total, int)
    assert rec.iters_total == est.diagnostics.iter_counts.sum() > 0


def test_experiment_deterministic_and_thread_invariant():
    grid = _small_grid(sweep_values=(80, 120), replications=3)
    a = run_experiment(grid)
    b = run_experiment(grid)
    assert a == b


def test_grid_rejects_repeated_entries():
    with pytest.raises(ValueError, match="repeat"):
        _small_grid(variants=("base", "base"))
    # schemes that differ only in a setting still share one label
    with pytest.raises(ValueError, match="repeat"):
        _small_grid(init_schemes=(InitScheme.method_of_moments(8),
                                  InitScheme.method_of_moments(16)))


def test_datasets_shared_across_variants():
    grid = _small_grid(variants=("base", "improved2"),
                       replications=2)
    records = run_experiment(grid)
    by_variant = {}
    for rec in records:
        by_variant.setdefault(rec.variant, []).append(rec.seed)
    assert by_variant["base"] == by_variant["improved2"]


def test_adding_sweep_values_keeps_existing_cells():
    small = run_experiment(_small_grid(sweep_values=(120,), replications=2))
    larger = run_experiment(_small_grid(sweep_values=(80, 120), replications=2))
    kept = [rec for rec in larger if rec.sweep_value == 120]
    assert kept == small


def test_failures_recorded_not_raised():
    # r exceeding min(p, n) at one sweep value produces a per-cell failure
    grid = _small_grid(sweep_name="p", sweep_values=(8, 1), replications=1)
    records = run_experiment(grid)
    assert len(records) == 2
    ok = [rec for rec in records if rec.sweep_value == 8][0]
    bad = [rec for rec in records if rec.sweep_value == 1][0]
    assert np.isfinite(ok.error)
    assert np.isnan(bad.error) and bad.failure


def test_lexicographic_output_order():
    grid = _small_grid(sweep_values=(80, 120), replications=2,
                       variants=("base", "improved2"))
    records = run_experiment(grid)
    keys = [(rec.sweep_value, rec.variant, rec.init, rec.rep) for rec in records]
    expected = [(value, variant, "mom", rep)
                for value in (80, 120)
                for variant in ("base", "improved2")
                for rep in range(2)]
    assert keys == expected


def test_reference_cell_matches_pilot_fixture():
    # Default-style grid point (n=900, p=300, r=5, theta=0.1, eps2=0.1,
    # identity noise, moment init, base variant): the frozen value below is
    # this implementation's own pilot median; the band absorbs platform-
    # level numeric wiggle only, since the run is fully seeded.
    grid = ExperimentGrid(
        base=SyntheticConfig(n=900, p=300, r=5, theta=0.1, varepsilon2=0.1,
                             seed=0),
        sweep_name="n", sweep_values=(900,), variants=("base",),
        init_schemes=(InitScheme.method_of_moments(),),
        replications=20, master_seed=20240601,
        solve_config=RotationSolveConfig(step_size=1e-2))
    rows = aggregate(run_experiment(grid))
    reference = 0.19634201364528617  # pilot reference
    assert rows[0].n_fail == 0
    assert 0.7 * reference <= rows[0].median <= 1.3 * reference


def test_grid_validation():
    with pytest.raises(ValueError):
        _small_grid(sweep_name="bogus")
    with pytest.raises(ValueError):
        _small_grid(replications=0)
    with pytest.raises(ValueError):
        _small_grid(sweep_values=())
    with pytest.raises(ValueError, match="variants must be nonempty"):
        _small_grid(variants=())
    # an array is a list of entries too, not read by its truth value
    assert _small_grid(sweep_values=np.array([80, 120])) == _small_grid(sweep_values=(80, 120))
    with pytest.raises(ValueError, match="subtraction"):
        _small_grid(init_schemes=(InitScheme.method_of_moments(
            subtraction="lemma-consistent"),))
    for bad in (dict(replications=2.5), dict(replications=True),
                dict(master_seed=1.5), dict(master_seed=False),
                dict(master_seed=-1), dict(master_seed=2 ** 64),
                dict(sweep_values=(120.7,)), dict(sweep_values=(True,)),
                dict(sweep_name="theta", sweep_values=("0.5",)),
                dict(sweep_name="theta", sweep_values=(True,)),
                dict(sweep_name="theta", sweep_values=(np.True_,))):
        with pytest.raises(ValueError):
            _small_grid(**bad)
    # a mis-typed settings object fails at construction, not in every cell,
    # and so does a flag that is truthy without being a bool
    for name, bad in (("base", dict(base={"n": 50})),
                      ("init_schemes", dict(init_schemes=("mom",))),
                      ("solve_config", dict(solve_config={"step_size": 1e-2})),
                      *(("record_runtime", {"record_runtime": value})
                        for value in ("no", 1, None))):
        with pytest.raises(ValueError, match=name):
            _small_grid(**bad)
    _small_grid(record_runtime=np.True_)
    # no NaN or infinite theta or varepsilon2 makes a valid cell, and two
    # NaNs would pass the repeat check below, since nan != nan
    for name in ("theta", "varepsilon2"):
        for values in ((np.nan, 0.3), (np.nan, float("nan")), (np.inf,), (-np.inf,)):
            with pytest.raises(ValueError, match=name):
                _small_grid(sweep_name=name, sweep_values=values)
    # records.csv could not tell apart two mom schemes with one label
    with pytest.raises(ValueError, match="repeat"):
        _small_grid(init_schemes=tuple(InitScheme.method_of_moments(subtraction=mode)
                                       for mode in SUBTRACTION_MODES))
    # a repeated sweep value, also one that repeats only once coerced,
    # would put the same cells twice into one summary row
    for repeated in (dict(sweep_values=(60, 60)), dict(sweep_values=(60, np.int64(60))),
                     dict(sweep_name="theta", sweep_values=(0.5, np.float32(0.5))),
                     dict(sweep_name="theta", sweep_values=(1, 1.0))):
        with pytest.raises(ValueError, match="sweep_values must not repeat"):
            _small_grid(replications=2, **repeated)
    _small_grid(replications=np.int64(1), master_seed=np.int64(77),
                sweep_values=(np.int64(120),))


def test_float_sweep_value_keys_cells_by_its_number():
    # 1 and 1.0 are the same theta, so they must fit the same datasets
    grids = [_small_grid(sweep_name="theta", sweep_values=(value,), replications=2)
             for value in (1, 1.0, np.float32(1.0))]
    assert grids[0].sweep_values == (1.0,) and type(grids[0].sweep_values[0]) is float
    records = [run_experiment(grid) for grid in grids]
    assert all(np.isfinite(rec.error) for rec in records[0])
    assert records[0] == records[1] == records[2]


# ---------------------------------------------------------------------------
# aggregate
# ---------------------------------------------------------------------------

def _record(error, rep=0, failure=""):
    return ExperimentRecord(variant="base", init="mom", sweep_name="n",
                            sweep_value=100, rep=rep, seed=1, error=error,
                            failure=failure)


def test_aggregate_single_record():
    rows = aggregate([_record(0.5)])
    assert len(rows) == 1
    assert rows[0].mean == rows[0].median == 0.5
    assert rows[0].n_ok == 1 and rows[0].n_fail == 0


def test_aggregate_mean_median():
    rows = aggregate([_record(1.0, rep=0), _record(3.0, rep=1)])
    assert rows[0].mean == 2.0 and rows[0].median == 2.0


def test_aggregate_excludes_nan():
    rows = aggregate([_record(1.0, rep=0), _record(float("nan"), rep=1, failure="x"),
                      _record(2.0, rep=2)])
    assert rows[0].n_ok == 2 and rows[0].n_fail == 1
    assert rows[0].mean == pytest.approx(1.5)


def test_aggregate_empty_raises():
    with pytest.raises(ValueError):
        aggregate([])


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def test_csv_headers_and_shape(tmp_path):
    grid = _small_grid(replications=2)
    records = run_experiment(grid)
    records_path = tmp_path / "records.csv"
    summary_path = tmp_path / "summary.csv"
    records_to_csv(records, records_path)
    summary_to_csv(aggregate(records), summary_path)

    record_lines = records_path.read_text().splitlines()
    assert record_lines[0] == RECORDS_HEADER
    assert len(record_lines) == 3
    assert all(len(line.split(",")) == 11 for line in record_lines)

    summary_lines = summary_path.read_text().splitlines()
    assert summary_lines[0] == SUMMARY_HEADER
    assert len(summary_lines) == 2
    assert all(len(line.split(",")) == 10 for line in summary_lines)


def test_records_csv_keeps_failure_reasons(tmp_path):
    grid = _small_grid(sweep_name="p", sweep_values=(8, 1), replications=1)
    odd = ExperimentRecord(variant="base", init="mom", sweep_name="p",
                           sweep_value=1, rep=1, seed=0, error=float("nan"),
                           failure='ValueError: a "quoted", two-line\nreason')
    records = run_experiment(grid) + [odd]
    path = tmp_path / "records.csv"
    records_to_csv(records, path)
    text = path.read_bytes().decode("utf8")
    assert "\r" not in text and text.endswith("\n")
    with open(path, encoding="utf8", newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == RECORDS_HEADER.split(",")
    assert [row[-1] for row in rows[1:]] == [rec.failure for rec in records]
    assert rows[1][-1] == "" and "," in rows[2][-1]


def test_records_csv_writes_recorded_runtimes(tmp_path):
    grid = _small_grid(sweep_name="p", sweep_values=(8, 1), replications=1,
                       record_runtime=True)
    records = run_experiment(grid)
    ok = [rec for rec in records if not rec.failure]
    failed = [rec for rec in records if rec.failure]
    assert len(ok) == 1 and len(failed) == 1
    assert all(rec.runtime_ms > 0 for rec in ok)
    assert failed[0].runtime_ms == 0.0
    path = tmp_path / "records.csv"
    records_to_csv(records, path)
    with open(path, encoding="utf8", newline="") as handle:
        rows = list(csv.reader(handle))
    column = rows[0].index("runtime_ms")
    assert [float(row[column]) for row in rows[1:]] == [rec.runtime_ms for rec in records]


def test_csv_roundtrip_of_error_value(tmp_path):
    records = run_experiment(_small_grid())
    path = tmp_path / "records.csv"
    records_to_csv(records, path)
    line = path.read_text().splitlines()[1]
    written_error = float(line.split(",")[6])
    assert written_error == records[0].error  # repr round-trips binary64
