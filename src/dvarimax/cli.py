"""Command-line front end: simulate, estimate, benchmark.

Configuration is a flat UTF-8 text file of ``key = value`` lines with
``#`` comments; an inline comment's ``#`` follows whitespace.  A leading
byte-order mark is skipped, in config files and matrix CSVs alike.  Each
command has its own keys; any other key is rejected, and a missing key takes
its documented default.  ``--set key=value`` overrides file entries.
Matrices on disk are CSV with one comment line of metadata, one row per
feature and one column per sample, values printed with 17 significant
digits so binary64 round-trips exactly.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .estimator import VARIANTS, estimate_loading, predict_factors
from .evaluate import (SWEEPABLE_PARAMETERS, ExperimentGrid, aggregate, records_to_csv,
                       run_experiment, summary_to_csv)
from .exceptions import DeflationVarimaxError, _check_choice, _check_integer, _real_array
from .initialization import SUBTRACTION_MODES, InitScheme
from .model import NOISE_KINDS, SyntheticConfig, generate_dataset
from .rng import substream
from .rotation import RotationSolveConfig
from .spectral import leading_eigenvalues, select_rank

__all__ = ["main", "CliError", "read_matrix_csv", "write_matrix_csv"]


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
        _check_choice("value", text, options)
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
    return next(spec.default for spec in fields(cls) if spec.name == name)


# Synthetic settings with a library default, passed to SyntheticConfig as given.
_SYNTHETIC_KEYS = {"theta": float, "varepsilon2": float, "noise_alpha": float,
                   "noise_rho": float, "noise_kind": _parse_choice(NOISE_KINDS)}
# Every solver setting is a config key with the library's type and default.
_SOLVE_FIELDS = fields(RotationSolveConfig)

# The key groups with their value parsers: synthetic keys for simulate and
# benchmark, solver and init keys for estimate and benchmark.
_COMMON = {"seed": int, "output_path": str, "r": _parse_rank}
_SYNTHETIC = {"n": int, "p": int, **_SYNTHETIC_KEYS}
_SOLVER = {**{spec.name: type(spec.default) for spec in _SOLVE_FIELDS},
           "init_draws": int, "init_slices": int,
           "mom_subtraction": _parse_choice(SUBTRACTION_MODES)}

# Each command's keys; a config may set no other.
_KEY_PARSERS = {
    "simulate": {**_COMMON, **_SYNTHETIC},
    "estimate": {**_COMMON, **_SOLVER, "input_path": str, "r_max": int,
                 "variant": _parse_choice(VARIANTS), "init": _parse_choice(InitScheme.LABELS)},
    "benchmark": {**_COMMON, **_SYNTHETIC, **_SOLVER,
                  "sweep_name": _parse_choice(SWEEPABLE_PARAMETERS), "sweep_values": _parse_list,
                  "variants": _parse_choices(VARIANTS),
                  "init_schemes": _parse_choices(InitScheme.LABELS),
                  "replications": int, "record_runtime": _parse_bool},
}

# The library default of each key that has one; a command takes those of its keys.
_DEFAULTS = {
    "output_path": ".",
    **{key: _default(SyntheticConfig, key) for key in _SYNTHETIC_KEYS},
    **{spec.name: spec.default for spec in _SOLVE_FIELDS},
    "mom_subtraction": _default(InitScheme, "subtraction"),
    "variant": _default(ExperimentGrid, "variants")[0],
    "init": _default(ExperimentGrid, "init_schemes")[0].label,
    "variants": _default(ExperimentGrid, "variants"),
    "init_schemes": tuple(scheme.label for scheme in _default(ExperimentGrid, "init_schemes")),
    **{key: _default(ExperimentGrid, key) for key in ("replications", "record_runtime")},
}


# A comment starts at a '#' that begins the line or follows whitespace, so a
# value such as runs/#3 keeps its '#'.
_COMMENT = re.compile(r"(?:^|\s)#")


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse ``key = value`` lines into a raw string-to-string mapping."""
    raw: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = _COMMENT.split(line, 1)[0].strip()
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


def resolve_config(raw: dict, command: str) -> dict:
    """Check that ``command`` reads every key, coerce the values, and fill
    in the defaults of the command's other keys."""
    parsers = _KEY_PARSERS[command]
    resolved = {key: value for key, value in _DEFAULTS.items() if key in parsers}
    for key, text in raw.items():
        parser = parsers.get(key)
        if parser is None:
            raise CliError(f"config key {key!r} is not read by {command}")
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


# Each init setting's config key and the InitScheme field it sets.
_INIT_SETTINGS = {"init_draws": "draws", "init_slices": "slices",
                  "mom_subtraction": "subtraction"}


def _build_init_schemes(config: dict, labels) -> tuple:
    """One scheme per label with the given init settings that
    ``InitScheme.READS`` names for it; ``InitScheme`` checks their ranges.
    A setting given away from its default must be read by some scheme of
    the list."""
    given = {field: config[key] for key, field in _INIT_SETTINGS.items()
             if key in config and config[key] != _default(InitScheme, field)}
    schemes = tuple(InitScheme(label, **{field: given[field] for field in InitScheme.READS[label]
                                         if field in given})
                    for label in labels)
    for key, field in _INIT_SETTINGS.items():
        if field in given and not any(field in InitScheme.READS[label] for label in labels):
            raise CliError(f"{key} = {given[field]} is used by none of the "
                           f"init schemes {', '.join(labels)}")
    return schemes


# ---------------------------------------------------------------------------
# Matrix CSV I/O
# ---------------------------------------------------------------------------

def write_matrix_csv(path, matrix: np.ndarray, comment: str) -> None:
    """Write a matrix as CSV with a leading ``#`` metadata line."""
    matrix = np.atleast_2d(_real_array("matrix", matrix))
    with open(path, "w", encoding="utf8", newline="") as handle:
        np.savetxt(handle, matrix, fmt="%.17g", delimiter=",", header=comment, comments="# ")


def read_matrix_csv(path) -> np.ndarray:
    """Read a matrix written by :func:`write_matrix_csv`.

    Parse errors report the offending line and column.
    """
    rows = []
    width = None
    with open(path, "r", encoding="utf-8-sig") as handle:
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
    return SyntheticConfig(n=n, p=p, r=r, seed=seed,
                           **{key: config[key] for key in _SYNTHETIC_KEYS})


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
    # Every setting is checked before the input is read or anything solved.
    input_path = _require(config, "input_path", "estimate")
    r = _require(config, "r", "estimate")
    if r == "auto":
        if config.get("r_max", 1) < 1:
            raise CliError("r_max must be >= 1")
    else:
        _check_integer("r", r, 1)
        if "r_max" in config:
            raise CliError(f"r_max = {config['r_max']} is used only by r = auto, not r = {r}")
    seed = config.get("seed")
    if seed is None:
        seed = int(np.random.SeedSequence().generate_state(1, np.uint64)[0])
    rng = substream(seed, "estimate")
    scheme = _build_init_schemes(config, (config["init"],))[0]
    solve_config = _build_solve_config(config)

    x = read_matrix_csv(input_path)
    p, n = x.shape
    selected_rank = None
    if r == "auto":
        r_max = config.get("r_max", max(min(p, n) - 1, 1))
        # select_rank reads the eigenvalues up to index r_max (0-based).
        eigvals = leading_eigenvalues(x, min(r_max + 1, min(p, n)))
        r = selected_rank = select_rank(eigvals, r_max)

    estimate = estimate_loading(x, r, config["variant"], scheme, solve_config, rng)
    z_hat = predict_factors(estimate.decomposition, estimate.q_check)

    outdir = Path(config["output_path"])
    outdir.mkdir(parents=True, exist_ok=True)
    write_matrix_csv(outdir / "lambda_hat.csv", estimate.lambda_hat,
                     f"rows={p} cols={r} kind=lambda_hat")
    write_matrix_csv(outdir / "q_check.csv", estimate.q_check,
                     f"rows={r} cols={r} kind=q_check")
    write_matrix_csv(outdir / "z_hat.csv", z_hat,
                     f"rows={r} cols={n} kind=z_hat")

    rotation = estimate.diagnostics
    resolved = {key: config[key] for key in sorted(config)}
    resolved["r"] = r
    resolved["seed"] = seed
    payload = {
        "resolved_config": resolved,
        "selected_rank": selected_rank,
        "noise_var_hat": estimate.noise_var_hat,
        "iterations": [int(i) for i in rotation.iter_counts],
        "grad_norms": [float(g) for g in rotation.grad_norms],
        "converged": [bool(c) for c in rotation.converged_flags],
        "requested_variant": config["variant"],
        "effective_variant": estimate.effective_variant,
        "init": scheme.label,
        "fallback": estimate.fallback,
        "near_duplicate": bool(rotation.restricted.any()),
        "runtime_ms": estimate.runtime_ms,
    }
    with open(outdir / "diagnostics.json", "w", encoding="utf8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"estimate: wrote lambda_hat.csv, q_check.csv, z_hat.csv, "
          f"diagnostics.json to {outdir}")
    if estimate.fallback:
        print(f"estimate: the {config['variant']} noise correction is infeasible; "
              f"ran {estimate.effective_variant}")
    return 0


def _parse_sweep_values(raw_values, sweep_name: str) -> tuple:
    converter = SWEEPABLE_PARAMETERS[sweep_name]
    try:
        return tuple(converter(v) for v in raw_values)
    except ValueError as err:
        raise CliError(f"sweep_values: {err}") from err


def cmd_benchmark(config: dict) -> int:
    sweep_name = _require(config, "sweep_name", "benchmark")
    values = _parse_sweep_values(_require(config, "sweep_values", "benchmark"),
                                 sweep_name)

    base = _synthetic_config(config, "benchmark")
    schemes = _build_init_schemes(config, config["init_schemes"])

    grid = ExperimentGrid(
        base=base, sweep_name=sweep_name, sweep_values=values,
        variants=config["variants"], init_schemes=schemes,
        replications=config["replications"], master_seed=config["seed"],
        solve_config=_build_solve_config(config),
        record_runtime=config["record_runtime"])

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
            text = path.read_text(encoding="utf-8-sig")
        except OSError as err:
            raise CliError(f"cannot read config {path}: {err}") from err
        raw.update(parse_config_text(text, source=str(path)))
    for override in args.set or []:
        if "=" not in override:
            raise CliError(f"--set expects key=value, got {override!r}")
        key, value = (part.strip() for part in override.split("=", 1))
        raw[key] = value
    return resolve_config(raw, args.command)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dvarimax",
        description="PCA with deflation varimax: simulate, estimate, benchmark.")
    parser.add_argument("command", choices=tuple(_KEY_PARSERS))
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
