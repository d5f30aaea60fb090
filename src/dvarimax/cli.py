"""Command-line front end: simulate, estimate, benchmark.

Configuration is a flat UTF-8 text file of ``key = value`` lines with
``#`` comments.  Unknown keys are rejected; missing keys take documented
defaults.  ``--set key=value`` overrides file entries.  Matrices on disk
are CSV with one comment line of metadata, one row per feature and one
column per sample, values printed with 17 significant digits so binary64
round-trips exactly.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

from . import __version__
from .estimator import EstimatorVariant, estimate_loading, predict_factors
from .evaluate import (INT_SWEEPS, SWEEPABLE_PARAMETERS, ExperimentGrid,
                       aggregate, records_to_csv, run_experiment,
                       summary_to_csv)
from .exceptions import DeflationVarimaxError
from .initialization import SUBTRACTION_MODES, InitScheme
from .model import NoiseCovariance, SyntheticConfig, generate_dataset
from .rng import substream
from .rotation import RotationSolveConfig
from .spectral import leading_eigenvalues, select_rank

__all__ = ["main", "CliError", "read_matrix_csv", "write_matrix_csv"]

COMMANDS = ("simulate", "estimate", "benchmark")


class CliError(Exception):
    """Configuration or input error; maps to a nonzero exit code."""


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_choice(options):
    def parse(text: str) -> str:
        if text not in options:
            raise ValueError(f"must be one of {', '.join(options)} (got {text!r})")
        return text
    return parse


def _parse_list(text: str) -> tuple:
    items = tuple(item.strip() for item in text.split(",") if item.strip())
    if not items:
        raise ValueError("empty list")
    return items


def _parse_choices(options):
    parse_one = _parse_choice(options)
    return lambda text: tuple(parse_one(item) for item in _parse_list(text))


def _parse_rank(text: str):
    if text.strip() == "auto":
        return "auto"
    return int(text)


def _default(cls, name: str):
    """Default value of the dataclass field ``name`` of ``cls``."""
    spec = next(spec for spec in fields(cls) if spec.name == name)
    return spec.default if spec.default is not MISSING else spec.default_factory()


_VARIANTS = tuple(variant.value for variant in EstimatorVariant)
# Every solver setting is a config key with the library's type and default.
_SOLVE_FIELDS = fields(RotationSolveConfig)

# Every accepted key with its value parser.
_KEY_PARSERS = {
    "seed": int,
    "input_path": str,
    "output_path": str,
    "n": int,
    "p": int,
    "r": _parse_rank,
    "r_max": int,
    "theta": float,
    "varepsilon2": float,
    "noise_kind": _parse_choice(NoiseCovariance.KINDS),
    "noise_alpha": float,
    "noise_rho": float,
    **{spec.name: type(spec.default) for spec in _SOLVE_FIELDS},
    "variant": _parse_choice(_VARIANTS),
    "init": _parse_choice(InitScheme.LABELS),
    "init_draws": int,
    "init_slices": int,
    "mom_subtraction": _parse_choice(SUBTRACTION_MODES),
    "auto_fallback": _parse_bool,
    "sweep_name": _parse_choice(SWEEPABLE_PARAMETERS),
    "sweep_values": _parse_list,
    "variants": _parse_choices(_VARIANTS),
    "init_schemes": _parse_choices(InitScheme.LABELS),
    "replications": int,
    "record_runtime": _parse_bool,
}

_DEFAULTS = {
    "output_path": ".",
    **{key: _default(SyntheticConfig, key) for key in ("theta", "varepsilon2")},
    "noise_kind": _default(SyntheticConfig, "noise_kind").kind,
    "noise_alpha": _default(NoiseCovariance, "alpha"),
    "noise_rho": _default(NoiseCovariance, "rho"),
    **{spec.name: spec.default for spec in _SOLVE_FIELDS},
    "variant": _default(ExperimentGrid, "variants")[0].value,
    "init": _default(ExperimentGrid, "init_schemes")[0].label,
    "mom_subtraction": _default(InitScheme, "subtraction"),
    **{key: _default(ExperimentGrid, key) for key in ("replications", "record_runtime")},
}


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse ``key = value`` lines into a raw string-to-string mapping."""
    raw: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise CliError(f"{source}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if not key:
            raise CliError(f"{source}:{lineno}: empty key")
        if key in raw:
            raise CliError(f"{source}:{lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def resolve_config(raw: dict) -> dict:
    """Validate keys, coerce values, and fill in defaults."""
    resolved = dict(_DEFAULTS)
    for key, text in raw.items():
        parser = _KEY_PARSERS.get(key)
        if parser is None:
            raise CliError(f"unknown config key: {key!r}")
        try:
            resolved[key] = parser(text)
        except ValueError as err:
            raise CliError(f"config key {key!r}: {err}") from err
    return resolved


def _require(config: dict, key: str, command: str):
    if key not in config:
        raise CliError(f"{command} requires config key {key!r}")
    return config[key]


def _build_solve_config(config: dict) -> RotationSolveConfig:
    return RotationSolveConfig(**{spec.name: config[spec.name] for spec in _SOLVE_FIELDS})


def _build_init_scheme(config: dict, label: str) -> InitScheme:
    return InitScheme.from_label(label, config.get("init_draws"),
                                 config.get("init_slices"), config["mom_subtraction"])


def _given(config: dict, key: str) -> dict:
    """``{key: value}`` if ``config`` sets ``key``; else the library default applies."""
    return {key: config[key]} if key in config else {}


# ---------------------------------------------------------------------------
# Matrix CSV I/O
# ---------------------------------------------------------------------------

def write_matrix_csv(path, matrix: np.ndarray, comment: str) -> None:
    """Write a matrix as CSV with a leading ``#`` metadata line."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    lines = [f"# {comment}"]
    for row in matrix:
        lines.append(",".join(f"{value:.17g}" for value in row))
    with open(path, "w", encoding="utf8", newline="") as handle:
        handle.write("\n".join(lines) + "\n")


def read_matrix_csv(path) -> np.ndarray:
    """Read a matrix written by :func:`write_matrix_csv`.

    Parse errors report the offending line and column.
    """
    rows = []
    width = None
    with open(path, "r", encoding="utf8") as handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            fields = stripped.split(",")
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                raise CliError(
                    f"{path}:{lineno}: expected {width} fields, got {len(fields)}")
            parsed = []
            for colno, field in enumerate(fields, start=1):
                try:
                    parsed.append(float(field))
                except ValueError:
                    raise CliError(
                        f"{path}:{lineno}:{colno}: not a number: {field!r}") from None
            rows.append(parsed)
    if not rows:
        raise CliError(f"{path}: no data rows")
    return np.array(rows)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _synthetic_config(config: dict, command: str) -> SyntheticConfig:
    n = _require(config, "n", command)
    p = _require(config, "p", command)
    r = _require(config, "r", command)
    if r == "auto":
        raise CliError(f"{command} requires a numeric r")
    seed = _require(config, "seed", command)
    noise_kind = NoiseCovariance(config["noise_kind"], config["noise_alpha"],
                                 config["noise_rho"])
    return SyntheticConfig(n=n, p=p, r=r, theta=config["theta"],
                           varepsilon2=config["varepsilon2"],
                           noise_kind=noise_kind, seed=seed)


def cmd_simulate(config: dict) -> int:
    synth = _synthetic_config(config, "simulate")
    observed, truth = generate_dataset(synth)
    outdir = Path(config["output_path"])
    outdir.mkdir(parents=True, exist_ok=True)
    meta = f"p={synth.p} n={synth.n} r={synth.r} seed={synth.seed}"
    write_matrix_csv(outdir / "X.csv", observed.data, meta)
    write_matrix_csv(outdir / "lambda_true.csv", truth.loading,
                     f"rows={synth.p} cols={synth.r} {meta}")
    write_matrix_csv(outdir / "z_true.csv", truth.factors,
                     f"rows={synth.r} cols={synth.n} {meta}")
    print(f"simulate: wrote X.csv, lambda_true.csv, z_true.csv to {outdir}")
    return 0


def cmd_estimate(config: dict) -> int:
    input_path = _require(config, "input_path", "estimate")
    x = read_matrix_csv(input_path)
    p, n = x.shape

    seed = config.get("seed")
    if seed is None:
        seed = int(np.random.SeedSequence().generate_state(1, np.uint64)[0])

    r = _require(config, "r", "estimate")
    selected_rank = None
    if r == "auto":
        r_max = config.get("r_max", min(p, n) - 1 if min(p, n) > 1 else 1)
        # select_rank checks r_max too, but only after the solve, whose k
        # is derived from r_max; reject a bad r_max before solving.
        if r_max < 1:
            raise CliError("r_max must be >= 1")
        # select_rank reads the eigenvalues up to index r_max (0-based).
        eigvals = leading_eigenvalues(x, min(r_max + 1, min(p, n)))
        r = select_rank(eigvals, r_max)
        selected_rank = r

    scheme = _build_init_scheme(config, config["init"])
    estimate = estimate_loading(
        x, r, EstimatorVariant(config["variant"]), scheme,
        _build_solve_config(config), substream(seed, "estimate"),
        **_given(config, "auto_fallback"))
    z_hat = predict_factors(estimate.decomposition, estimate.q_check)

    outdir = Path(config["output_path"])
    outdir.mkdir(parents=True, exist_ok=True)
    write_matrix_csv(outdir / "lambda_hat.csv", estimate.lambda_hat,
                     f"rows={p} cols={r} kind=lambda_hat")
    write_matrix_csv(outdir / "q_check.csv", estimate.q_check,
                     f"rows={r} cols={r} kind=q_check")
    write_matrix_csv(outdir / "z_hat.csv", z_hat,
                     f"rows={r} cols={n} kind=z_hat")

    diag = estimate.diagnostics
    resolved = {key: config[key] for key in sorted(config)}
    resolved["r"] = r
    resolved["seed"] = seed
    payload = {
        "resolved_config": resolved,
        "selected_rank": selected_rank,
        "noise_var_hat": diag.noise_var_hat,
        "iterations": [int(i) for i in diag.iter_counts],
        "grad_norms": [float(g) for g in diag.grad_norms],
        "converged": [bool(c) for c in diag.converged_flags],
        "requested_variant": diag.requested_variant,
        "effective_variant": diag.effective_variant,
        "init": diag.init_label,
        "fallback": diag.fallback,
        "near_duplicate": diag.near_duplicate,
        "runtime_ms": diag.runtime_ms,
    }
    with open(outdir / "diagnostics.json", "w", encoding="utf8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"estimate: wrote lambda_hat.csv, q_check.csv, z_hat.csv, "
          f"diagnostics.json to {outdir}")
    return 0


def _parse_sweep_values(raw_values, sweep_name: str) -> tuple:
    converter = int if sweep_name in INT_SWEEPS else float
    try:
        return tuple(converter(v) for v in raw_values)
    except ValueError as err:
        raise CliError(f"sweep_values: {err}") from err


def cmd_benchmark(config: dict) -> int:
    if "seed" not in config:
        raise CliError("benchmark requires config key 'seed' for reproducibility")
    sweep_name = _require(config, "sweep_name", "benchmark")
    values = _parse_sweep_values(_require(config, "sweep_values", "benchmark"),
                                 sweep_name)

    base = _synthetic_config(config, "benchmark")
    variants = config.get("variants", (config["variant"],))
    schemes = tuple(_build_init_scheme(config, label)
                    for label in config.get("init_schemes", (config["init"],)))

    grid = ExperimentGrid(
        base=base, sweep_name=sweep_name, sweep_values=values,
        variants=variants, init_schemes=schemes,
        replications=config["replications"], master_seed=config["seed"],
        solve_config=_build_solve_config(config),
        record_runtime=config["record_runtime"],
        **_given(config, "auto_fallback"))

    records = run_experiment(grid)
    rows = aggregate(records)

    outdir = Path(config["output_path"])
    outdir.mkdir(parents=True, exist_ok=True)
    records_to_csv(records, outdir / "records.csv")
    summary_to_csv(rows, outdir / "summary.csv")

    n_fail = sum(1 for rec in records if rec.failure)
    print(f"benchmark: {len(records)} records ({n_fail} failures); "
          f"wrote records.csv, summary.csv to {outdir}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _load_config(args) -> dict:
    raw: dict = {}
    if args.config is not None:
        path = Path(args.config)
        try:
            text = path.read_text(encoding="utf8")
        except OSError as err:
            raise CliError(f"cannot read config {path}: {err}") from err
        raw.update(parse_config_text(text, source=str(path)))
    for override in args.set or []:
        if "=" not in override:
            raise CliError(f"--set expects key=value, got {override!r}")
        key, value = (part.strip() for part in override.split("=", 1))
        raw[key] = value
    return resolve_config(raw)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dvarimax",
        description="PCA with deflation varimax: simulate, estimate, benchmark.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config entry (repeatable)")
    parser.add_argument("--version", action="version", version=__version__)
    args = parser.parse_args(argv)

    try:
        config = _load_config(args)
        if args.command == "simulate":
            return cmd_simulate(config)
        if args.command == "estimate":
            return cmd_estimate(config)
        return cmd_benchmark(config)
    except (CliError, DeflationVarimaxError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
