"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Statistical thresholds marked "pilot-calibrated" were frozen from pilot
runs of this implementation; every run here is seeded, so the computed
statistics are reproducible.
"""
import time

import numpy as np
import pytest
from helpers import (brute_force_signed_permutation_error, corrected_gradient,
                     hand_instance, objective, population_gradient_h,
                     population_objective, projected_finite_difference_gradient,
                     random_orthogonal, riemannian_gradient)

from dvarimax import (VARIANTS, ExperimentGrid, InitScheme,
                      RotationSolveConfig, SyntheticConfig, derive_seed,
                      eigendecompose, estimate_loading, fourth_moment,
                      generate_dataset, generate_factors, pgd_solve,
                      run_experiment, signed_permutation_error, substream)
from dvarimax.cli import main as cli_main

# Step size used where a criterion needs converged solves at desk scale.
# The library default (1e-5) is intentionally conservative; these runs
# stay well inside the stable range (step * excess kurtosis << 1).
FAST_SOLVE = RotationSolveConfig(step_size=1e-2, grad_tol=1e-6, max_iters=5000)
# Small steps for the low-SNR improvement regime: limits travel so the
# unconstrained column solves polish their initializers locally.
CAREFUL_SOLVE = RotationSolveConfig(step_size=1e-4, grad_tol=1e-6, max_iters=5000)


def _report(name: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _unit(v):
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# 1. gradient correctness
# ---------------------------------------------------------------------------

def test_criterion_01_gradient_correctness():
    start = time.perf_counter()
    rng = substream(101, "acceptance")
    worst_rel = 0.0
    for _ in range(100):
        r = int(rng.integers(2, 7))
        n = int(rng.integers(5, 51))
        u = rng.standard_normal((r, n))
        q = _unit(rng.standard_normal(r))
        grad = riemannian_gradient(q, u)
        fd = projected_finite_difference_gradient(q, u)
        scale = max(np.linalg.norm(fd), 1e-3)
        worst_rel = max(worst_rel, np.linalg.norm(grad - fd) / scale)

        c = float(rng.uniform(0.1, 2.0))
        iso = corrected_gradient(q, u, c * np.eye(r))
        assert np.max(np.abs(iso - grad)) <= 1e-12
    elapsed = time.perf_counter() - start
    ok = worst_rel <= 1e-6 and elapsed < 5.0
    _report("criterion 1 (gradient correctness)", ok,
            f"max relative FD deviation {worst_rel:.2e}, runtime {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. whitening and orthogonality invariants
# ---------------------------------------------------------------------------

def test_criterion_02_whitening_and_orthogonality():
    worst_white = 0.0
    worst_orth = 0.0
    cases = [
        dict(n=300, p=12, r=3, theta=0.2, varepsilon2=0.1, seed=1),
        dict(n=60, p=500, r=2, theta=0.3, varepsilon2=0.2, seed=2),  # p > n
        dict(n=400, p=40, r=5, theta=0.1, varepsilon2=0.3, seed=3),
    ]
    for case in cases:
        observed, _ = generate_dataset(SyntheticConfig(**case))
        for variant in VARIANTS:
            est = estimate_loading(observed.data, case["r"], variant,
                                   InitScheme.method_of_moments(16), FAST_SOLVE,
                                   substream(case["seed"], "acc2", variant))
            scores = est.decomposition.scores
            r = case["r"]
            gram = scores @ scores.T / observed.n
            worst_white = max(worst_white, np.linalg.norm(gram - np.eye(r)))
            q = est.q_check
            worst_orth = max(worst_orth, np.linalg.norm(q.T @ q - np.eye(r)))
    ok = worst_white <= 1e-8 and worst_orth <= 1e-10
    _report("criterion 2 (whitening/orthogonality)", ok,
            f"max whitening residual {worst_white:.2e}, "
            f"max orthogonality residual {worst_orth:.2e}")


# ---------------------------------------------------------------------------
# 3. rotation equivariance of the PGD iterates
# ---------------------------------------------------------------------------

def _iterates(q0, u, count, step, correction=None):
    stat = fourth_moment(u)
    if correction is not None:
        stat = stat.bias_corrected(correction)
    out = []
    for ell in range(1, count + 1):
        config = RotationSolveConfig(step_size=step, grad_tol=1e-300, max_iters=ell)
        q, _, _, _ = pgd_solve(q0, stat, config)
        out.append(q)
    return out


def test_criterion_03_rotation_equivariance():
    start = time.perf_counter()
    rng = substream(103, "acceptance")
    worst = 0.0
    for trial in range(20):
        r = int(rng.integers(2, 6))
        u = rng.standard_normal((r, int(rng.integers(10, 40))))
        q0 = _unit(rng.standard_normal(r))
        rot = random_orthogonal(r, rng)
        corrected = None
        if trial % 2:
            s = rng.standard_normal((r, r))
            corrected = (s + s.T) / 2
        conjugated = None if corrected is None else rot.T @ corrected @ rot
        plain_path = _iterates(q0, u, 50, 1e-3, corrected)
        rotated_path = _iterates(rot.T @ q0, rot.T @ u, 50, 1e-3, conjugated)
        for a, b in zip(plain_path, rotated_path):
            worst = max(worst, np.linalg.norm(rot.T @ a - b))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    _report("criterion 3 (rotation equivariance)", ok,
            f"max iterate deviation {worst:.2e}, runtime {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. population stationary points
# ---------------------------------------------------------------------------

def test_criterion_04_population_stationary_points():
    rng = substream(104, "acceptance")
    worst = 0.0
    for _ in range(10):
        r = int(rng.integers(2, 7))
        a = random_orthogonal(r, rng)
        kappa = float(rng.uniform(0.5, 9.0))
        for i in range(r):
            worst = max(worst, np.linalg.norm(
                population_gradient_h(a[:, i], a, kappa)))
        for k in range(2, r + 1):
            coeff = np.zeros(r)
            coeff[:k] = 1.0 / np.sqrt(k)
            worst = max(worst, np.linalg.norm(
                population_gradient_h(a @ coeff, a, kappa)))
    ok = worst <= 1e-12
    _report("criterion 4 (population stationary points)", ok,
            f"max gradient norm {worst:.2e}")


# ---------------------------------------------------------------------------
# 5. population objective Monte Carlo
# ---------------------------------------------------------------------------

def test_criterion_05_population_objective_monte_carlo():
    start = time.perf_counter()
    rng = substream(105, "acceptance")
    r, n, theta = 4, 1_000_000, 0.3
    kappa = 1.0 / theta - 1.0
    a = random_orthogonal(r, rng)
    worst = 0.0
    for sigma_n in (None, np.diag(rng.uniform(0.05, 0.3, r))):
        for _ in range(5):
            q = _unit(rng.standard_normal(r))
            z = generate_factors(r, n, theta, rng) / np.sqrt(theta)
            y = a @ z
            if sigma_n is not None:
                y = y + np.sqrt(np.diag(sigma_n))[:, None] * rng.standard_normal((r, n))
            dev = abs(objective(q, y) - population_objective(q, a, kappa, sigma_n))
            worst = max(worst, dev)
    elapsed = time.perf_counter() - start
    ok = worst <= 0.01 and elapsed < 30.0
    _report("criterion 5 (population objective MC)", ok,
            f"max deviation {worst:.4f} at n=1e6, runtime {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. assignment metric exactness
# ---------------------------------------------------------------------------

def test_criterion_06_assignment_metric_exactness():
    rng = substream(106, "acceptance")
    worst = 0.0
    for r in (2, 3, 4, 5):
        for _ in range(50):
            est = rng.standard_normal((6, r))
            true = rng.standard_normal((6, r))
            fast, _ = signed_permutation_error(est, true)
            slow = brute_force_signed_permutation_error(est, true)
            worst = max(worst, abs(fast - slow))
    ok = worst <= 1e-10
    _report("criterion 6 (assignment exactness)", ok,
            f"max deviation from brute force {worst:.2e}")


# ---------------------------------------------------------------------------
# 7. noiseless consistency and rate in n
# ---------------------------------------------------------------------------

def test_criterion_07_noiseless_consistency():
    start = time.perf_counter()
    medians = {}
    for n in (5000, 20000):
        errors = []
        for seed in range(1, 21):
            config = SyntheticConfig(n=n, p=30, r=3, theta=0.1,
                                     varepsilon2=0.0, seed=seed)
            observed, truth = generate_dataset(config)
            est = estimate_loading(observed.data, 3, "base",
                                   InitScheme.method_of_moments(), FAST_SOLVE,
                                   substream(seed, "acc7", n))
            error, _ = signed_permutation_error(est.lambda_hat, truth.loading)
            errors.append(error)
        medians[n] = float(np.median(errors))
    elapsed = time.perf_counter() - start
    ratio = medians[20000] / medians[5000]
    ok = medians[20000] <= 0.15 and ratio <= 0.65 and elapsed < 180.0
    _report("criterion 7 (noiseless consistency)", ok,
            f"median(n=20000)={medians[20000]:.4f}, "
            f"median(n=5000)={medians[5000]:.4f}, ratio={ratio:.3f}, "
            f"runtime {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 8. error decreases with the sample size
# ---------------------------------------------------------------------------

def test_criterion_08_rate_trend_in_n():
    start = time.perf_counter()
    grid = ExperimentGrid(
        base=SyntheticConfig(n=900, p=300, r=5, theta=0.1, varepsilon2=0.1,
                             seed=0),
        sweep_name="n",
        sweep_values=(100, 300, 900),
        variants=("base",),
        init_schemes=(InitScheme.method_of_moments(),),
        replications=20,
        master_seed=108,
        solve_config=FAST_SOLVE,
    )
    records = run_experiment(grid)
    medians = []
    for value in grid.sweep_values:
        errors = np.array([rec.error for rec in records
                           if rec.sweep_value == value])
        medians.append(float(np.nanmedian(errors)))
    elapsed = time.perf_counter() - start
    ok = medians[0] > medians[1] > medians[2] and elapsed < 300.0
    _report("criterion 8 (rate trend in n)", ok,
            f"medians over n=(100,300,900): "
            f"({medians[0]:.3f}, {medians[1]:.3f}, {medians[2]:.3f}), "
            f"runtime {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 9. structured-noise improvement
# ---------------------------------------------------------------------------

def test_criterion_09_structured_noise_improvement():
    start = time.perf_counter()
    grid = ExperimentGrid(
        base=SyntheticConfig(n=500, p=20, r=5, theta=0.1, varepsilon2=0.8,
                             seed=0),
        sweep_name="varepsilon2",
        sweep_values=(0.8,),
        variants=("base", "improved2"),
        init_schemes=(InitScheme.method_of_moments(),),
        replications=50,
        master_seed=109,
        solve_config=CAREFUL_SOLVE,
    )
    records = run_experiment(grid)

    def errors_for(variant):
        # a rep that fails to produce an estimate counts as infinitely bad
        errs = np.array([rec.error for rec in records if rec.variant == variant])
        return np.where(np.isnan(errs), np.inf, errs)

    base = errors_for("base")
    improved = errors_for("improved2")
    frac = float(np.mean(improved <= base))
    med_base = float(np.median(base))
    med_improved = float(np.median(improved))
    elapsed = time.perf_counter() - start
    ok = frac >= 0.70 and med_improved < med_base and elapsed < 180.0
    _report("criterion 9 (structured-noise improvement)", ok,
            f"improved<=base in {frac:.0%} of 50 reps, "
            f"medians {med_improved:.3f} vs {med_base:.3f}, "
            f"runtime {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 10. initialization interchangeability
# ---------------------------------------------------------------------------

def test_criterion_10_initialization_interchangeability():
    start = time.perf_counter()
    schemes = (InitScheme.random(), InitScheme.multi_random(),
               InitScheme.method_of_moments())
    grid = ExperimentGrid(
        base=SyntheticConfig(n=900, p=300, r=5, theta=0.1, varepsilon2=0.1,
                             seed=0),
        sweep_name="n",
        sweep_values=(900,),
        variants=("base",),
        init_schemes=schemes,
        replications=20,
        master_seed=110,
        solve_config=FAST_SOLVE,
    )
    records = run_experiment(grid)
    med_err, med_iters = {}, {}
    for scheme in schemes:
        cell = [rec for rec in records if rec.init == scheme.label]
        med_err[scheme.label] = float(np.nanmedian([rec.error for rec in cell]))
        med_iters[scheme.label] = float(np.median([rec.iters_total for rec in cell]))
    errs = list(med_err.values())
    spread_ok = max(errs) <= 1.25 * min(errs)
    fewest = min(med_iters.values())
    mom_fewest = med_iters["mom"] == fewest and all(
        med_iters[label] > fewest for label in ("random", "multi_random"))
    elapsed = time.perf_counter() - start
    ok = spread_ok and mom_fewest
    _report("criterion 10 (initialization interchangeability)", ok,
            f"median errors {med_err}, median total iterations {med_iters}, "
            f"runtime {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 11. byte-identical outputs under fixed seeds
# ---------------------------------------------------------------------------

def test_criterion_11_determinism(tmp_path):
    # each command is given only the keys it reads
    synthetic = dict(n=150, p=10, r=2, theta=0.3, varepsilon2=0.1, seed=31)
    solver = dict(step_size=0.01, max_iters=1500)

    def write_config(name, out, entries):
        entries = dict(entries, output_path=out)
        path = tmp_path / name
        path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
        return str(path)

    # simulate twice
    sim_bytes = []
    for sub in ("s1", "s2"):
        out = tmp_path / sub
        assert cli_main(["simulate", "--config",
                         write_config(f"{sub}.cfg", out, synthetic)]) == 0
        sim_bytes.append(tuple((out / f).read_bytes()
                               for f in ("X.csv", "lambda_true.csv", "z_true.csv")))
    # estimate twice from the same input
    est_bytes = []
    for sub in ("e1", "e2"):
        out = tmp_path / sub
        assert cli_main(["estimate", "--config",
                         write_config(f"{sub}.cfg", out,
                                      dict(solver, r=2, seed=31,
                                           input_path=tmp_path / "s1" / "X.csv"))]) == 0
        est_bytes.append(tuple((out / f).read_bytes()
                               for f in ("lambda_hat.csv", "q_check.csv", "z_hat.csv")))
    # benchmark across reruns
    bench_bytes = []
    for sub in ("b1", "b2"):
        out = tmp_path / sub
        entries = dict(synthetic, **solver, sweep_name="n", sweep_values="100,150",
                       replications=2, init_slices=8)
        assert cli_main(["benchmark", "--config",
                         write_config(f"{sub}.cfg", out, entries)]) == 0
        bench_bytes.append(tuple((out / f).read_bytes()
                                 for f in ("records.csv", "summary.csv")))
    ok = (sim_bytes[0] == sim_bytes[1] and est_bytes[0] == est_bytes[1]
          and bench_bytes[0] == bench_bytes[1])
    _report("criterion 11 (determinism)", ok,
            "simulate/estimate/benchmark outputs byte-identical across reruns")


def _fit_error(config, variant, rng):
    """The error of one method-of-moments fit at step size 1e-2 to data
    drawn from ``config``, and how many of its columns did not converge."""
    observed, truth = generate_dataset(config)
    estimate = estimate_loading(observed.data, config.r, variant,
                                InitScheme.method_of_moments(),
                                RotationSolveConfig(step_size=1e-2), rng)
    return (signed_permutation_error(estimate.lambda_hat, truth.loading)[0],
            int(np.sum(~estimate.diagnostics.converged_flags)))


# ---------------------------------------------------------------------------
# 12. the error falls like n^{-1/2}
# ---------------------------------------------------------------------------

def test_criterion_12_rate_slope_in_n():
    start = time.perf_counter()
    ns = (500, 1000, 2000, 4000, 8000)
    medians, unconverged = [], 0
    for n in ns:
        errors = []
        for rep in range(10):
            config = SyntheticConfig(n=n, p=100, r=5, theta=0.1, varepsilon2=0.1,
                                     seed=derive_seed(2024, "criterion12", n, rep))
            error, missed = _fit_error(config, "base",
                                       substream(2024, "criterion12", "base", n, rep))
            errors.append(error)
            unconverged += missed
        medians.append(float(np.median(errors)))
    slope = float(np.polyfit(np.log(ns), np.log(medians), 1)[0])
    elapsed = time.perf_counter() - start
    ok = unconverged == 0 and -0.7 <= slope <= -0.3
    _report("criterion 12 (rate slope in n)", ok,
            f"medians over n={ns} at p=100: "
            f"({', '.join(f'{m:.3f}' for m in medians)}), slope {slope:.3f}, "
            f"{unconverged} unconverged columns, runtime {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 13. the error stays flat as p grows past n
# ---------------------------------------------------------------------------

def test_criterion_13_error_flat_in_p():
    start = time.perf_counter()
    medians, unconverged = [], 0
    for p in (200, 1000, 4000):
        errors = []
        for rep in range(10):
            config = SyntheticConfig(n=1000, p=p, r=5, theta=0.1, varepsilon2=0.1,
                                     seed=derive_seed(2024, "criterion13", p, rep))
            error, missed = _fit_error(config, "base", substream(2024, "criterion13", p, rep))
            errors.append(error)
            unconverged += missed
        medians.append(float(np.median(errors)))
    elapsed = time.perf_counter() - start
    ok = unconverged == 0 and max(medians) <= 1.5 * min(medians)
    _report("criterion 13 (error flat in p)", ok,
            f"medians over p=(200,1000,4000) at n=1000: "
            f"({medians[0]:.3f}, {medians[1]:.3f}, {medians[2]:.3f}), "
            f"{unconverged} unconverged columns, runtime {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 14. at low SNR only the modified procedure keeps the n^{-1/2} rate
# ---------------------------------------------------------------------------

def test_criterion_14_low_snr_rate():
    start = time.perf_counter()
    medians, unconverged = {}, {}
    for variant in ("base", "improved2"):
        unconverged[variant] = 0
        for n in (500, 2000):
            errors = []
            for rep in range(20):
                config = SyntheticConfig(n=n, p=20, r=5, theta=0.1, varepsilon2=0.8,
                                         seed=derive_seed(2024, "criterion14", n, rep))
                error, missed = _fit_error(config, variant,
                                           substream(2024, "criterion14", variant, n, rep))
                errors.append(error)
                unconverged[variant] += missed
            medians[variant, n] = float(np.median(errors))
    ratio = {variant: medians[variant, 2000] / medians[variant, 500]
             for variant in ("base", "improved2")}
    elapsed = time.perf_counter() - start
    # theory gives a ratio of (500 / 2000)^{1/2} = 1/2
    ok = (unconverged["improved2"] == 0 and 0.35 <= ratio["improved2"] <= 0.65
          and ratio["base"] > ratio["improved2"])
    _report("criterion 14 (low-SNR rate)", ok,
            "median errors n=500 -> 2000 at p=20, varepsilon2=0.8: "
            + ", ".join(f"{v} {medians[v, 500]:.3f} -> {medians[v, 2000]:.3f} "
                        f"(ratio {ratio[v]:.3f}, {unconverged[v]} unconverged columns)"
                        for v in ("base", "improved2"))
            + f", runtime {elapsed:.1f}s")
