"""Tests for the command-line front end and its file formats."""
import json
from dataclasses import fields

import numpy as np
import pytest

from dvarimax import (EstimatorVariant, InitScheme, NoiseCovariance,
                      RotationSolveConfig, signed_permutation_error)
from dvarimax.cli import (CliError, main, parse_config_text, read_matrix_csv,
                          resolve_config, write_matrix_csv)
from dvarimax.evaluate import SWEEPABLE_PARAMETERS


def _write_config(tmp_path, name, **entries):
    lines = [f"{key} = {value}" for key, value in entries.items()]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _run(*argv):
    return main(list(argv))


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_config_text_comments_and_spacing():
    raw = parse_config_text("""
# full-line comment
n = 900   # inline comment
p=300
theta =  0.1
""")
    assert raw == {"n": "900", "p": "300", "theta": "0.1"}


def test_parse_config_rejects_duplicates_and_garbage():
    with pytest.raises(CliError, match="duplicate"):
        parse_config_text("n = 1\nn = 2\n")
    with pytest.raises(CliError, match="key = value"):
        parse_config_text("just some words\n")


def test_resolve_config_rejects_unknown_keys():
    with pytest.raises(CliError, match="unknown config key"):
        resolve_config({"banana": "1"})


def test_resolve_config_defaults():
    config = resolve_config({"n": "10"})
    assert config["step_size"] == 1e-5
    assert config["grad_tol"] == 1e-6
    assert config["max_iters"] == 5000
    # every solver setting is a CLI key carrying the library default
    for spec in fields(RotationSolveConfig):
        assert config[spec.name] == spec.default
    assert config["variant"] == "base"
    assert config["init"] == "mom"
    assert config["n"] == 10


def test_resolve_config_type_errors():
    with pytest.raises(CliError, match="'n'"):
        resolve_config({"n": "many"})
    with pytest.raises(CliError, match="variant"):
        resolve_config({"variant": "fancy"})


# ---------------------------------------------------------------------------
# matrix CSV round trip
# ---------------------------------------------------------------------------

def test_matrix_roundtrip_is_lossless(tmp_path):
    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((4, 7)) * np.exp(rng.uniform(-20, 20, (4, 7)))
    path = tmp_path / "m.csv"
    write_matrix_csv(path, matrix, "rows=4 cols=7")
    back = read_matrix_csv(path)
    assert np.array_equal(back, matrix)


def test_matrix_parse_error_location(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# header\n1.0,2.0\n3.0,oops\n")
    with pytest.raises(CliError, match=r"3:2"):
        read_matrix_csv(path)


def test_matrix_inconsistent_width(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(CliError, match="expected 2 fields"):
        read_matrix_csv(path)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_writes_exact_noiseless_product(tmp_path, capsys):
    config = _write_config(tmp_path, "sim.cfg", n=4, p=2, r=1, theta=1.0,
                           varepsilon2=0.0, seed=3,
                           output_path=tmp_path / "out")
    assert _run("simulate", "--config", config) == 0
    x = read_matrix_csv(tmp_path / "out" / "X.csv")
    loading = read_matrix_csv(tmp_path / "out" / "lambda_true.csv")
    factors = read_matrix_csv(tmp_path / "out" / "z_true.csv")
    assert x.shape == (2, 4)
    assert np.array_equal(x, loading @ factors)
    first_line = (tmp_path / "out" / "X.csv").read_text().splitlines()[0]
    assert first_line == "# p=2 n=4 r=1 seed=3"


def test_simulate_identical_config_identical_files(tmp_path):
    for sub in ("a", "b"):
        config = _write_config(tmp_path, f"{sub}.cfg", n=30, p=6, r=2, seed=11,
                               output_path=tmp_path / sub)
        assert _run("simulate", "--config", config) == 0
    for name in ("X.csv", "lambda_true.csv", "z_true.csv"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())


def test_simulate_requires_seed(tmp_path, capsys):
    config = _write_config(tmp_path, "sim.cfg", n=10, p=4, r=2)
    assert _run("simulate", "--config", config) == 2
    assert "seed" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

@pytest.fixture()
def simulated(tmp_path):
    out = tmp_path / "data"
    config = _write_config(tmp_path, "sim.cfg", n=2000, p=10, r=2, theta=0.2,
                           varepsilon2=0.0, seed=5, output_path=out)
    assert _run("simulate", "--config", config) == 0
    return out


def test_estimate_recovers_noiseless_fixture(tmp_path, simulated):
    out = tmp_path / "est"
    config = _write_config(tmp_path, "est.cfg", input_path=simulated / "X.csv",
                           output_path=out, r=2, seed=8, step_size=0.01)
    assert _run("estimate", "--config", config) == 0
    lambda_hat = read_matrix_csv(out / "lambda_hat.csv")
    lambda_true = read_matrix_csv(simulated / "lambda_true.csv")
    error, _ = signed_permutation_error(lambda_hat, lambda_true)
    assert error <= 0.15  # pilot-calibrated fixture threshold

    q_check = read_matrix_csv(out / "q_check.csv")
    assert np.linalg.norm(q_check.T @ q_check - np.eye(2)) <= 1e-8

    z_hat = read_matrix_csv(out / "z_hat.csv")
    assert z_hat.shape == (2, 2000)

    diagnostics = json.loads((out / "diagnostics.json").read_text())
    assert diagnostics["resolved_config"]["r"] == 2
    assert diagnostics["resolved_config"]["seed"] == 8
    assert len(diagnostics["iterations"]) == 2
    assert diagnostics["fallback"] is False


def test_estimate_auto_rank(tmp_path, simulated):
    out = tmp_path / "auto"
    config = _write_config(tmp_path, "auto.cfg", input_path=simulated / "X.csv",
                           output_path=out, r="auto", seed=8, step_size=0.01)
    assert _run("estimate", "--config", config) == 0
    diagnostics = json.loads((out / "diagnostics.json").read_text())
    assert diagnostics["selected_rank"] == 2


def test_estimate_auto_rank_can_select_r_max(tmp_path, simulated):
    # The ratio d_{r_max} / d_{r_max + 1} is a candidate, so the solve must
    # reach eigenvalue r_max + 1.
    out = tmp_path / "auto"
    config = _write_config(tmp_path, "auto.cfg", input_path=simulated / "X.csv",
                           output_path=out, r="auto", r_max=2, seed=8, step_size=0.01)
    assert _run("estimate", "--config", config) == 0
    diagnostics = json.loads((out / "diagnostics.json").read_text())
    assert diagnostics["selected_rank"] == 2


@pytest.mark.parametrize("r_max", [0, -3])
def test_estimate_auto_rank_rejects_r_max_below_one(tmp_path, simulated, capsys,
                                                    monkeypatch, r_max):
    # The check runs before any eigensolve.
    def no_solve(*args):
        raise AssertionError("eigensolve ran before r_max was checked")
    monkeypatch.setattr("dvarimax.cli.leading_eigenvalues", no_solve)
    config = _write_config(tmp_path, "rmax.cfg", input_path=simulated / "X.csv",
                           output_path=tmp_path / "x", r="auto", r_max=r_max, seed=1)
    assert _run("estimate", "--config", config) == 2
    assert "r_max must be >= 1" in capsys.readouterr().err


def test_estimate_rejects_oversized_rank(tmp_path, simulated, capsys):
    config = _write_config(tmp_path, "bad.cfg", input_path=simulated / "X.csv",
                           output_path=tmp_path / "x", r=11, seed=1)
    assert _run("estimate", "--config", config) == 2
    assert "r=11" in capsys.readouterr().err


@pytest.mark.parametrize("r", ["2", "auto"])
def test_estimate_rejects_non_finite_input(tmp_path, capsys, r):
    x = np.ones((4, 6))
    x[2, 3] = np.nan
    write_matrix_csv(tmp_path / "X.csv", x, "rows=4 cols=6")
    config = _write_config(tmp_path, "nan.cfg", input_path=tmp_path / "X.csv",
                           output_path=tmp_path / "out", r=r, seed=1)
    assert _run("estimate", "--config", config) == 2
    assert "NaN or Inf" in capsys.readouterr().err


def test_estimate_missing_input_is_io_error(tmp_path, capsys):
    config = _write_config(tmp_path, "gone.cfg", input_path=tmp_path / "nope.csv",
                           output_path=tmp_path, r=2, seed=1)
    code = _run("estimate", "--config", config)
    assert code == 1
    assert "nope.csv" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------

def _benchmark_config(tmp_path, out, **overrides):
    entries = dict(n=120, p=8, r=2, theta=0.3, varepsilon2=0.05, seed=99,
                   sweep_name="n", sweep_values="120", replications=1,
                   init_slices=8, step_size=0.01, max_iters=2000,
                   output_path=out)
    entries.update(overrides)
    return _write_config(tmp_path, f"bench_{len(str(out))}.cfg", **entries)


def test_benchmark_single_cell(tmp_path):
    out = tmp_path / "bench"
    assert _run("benchmark", "--config", _benchmark_config(tmp_path, out)) == 0
    records = (out / "records.csv").read_text().splitlines()
    summary = (out / "summary.csv").read_text().splitlines()
    assert len(records) == 2 and len(summary) == 2
    assert records[0].startswith("variant,init,sweep_name")


def test_benchmark_requires_seed(tmp_path, capsys):
    out = tmp_path / "bench"
    config = _write_config(tmp_path, "noseed.cfg", n=120, p=8, r=2,
                           sweep_name="n", sweep_values="120",
                           replications=1, output_path=out)
    assert _run("benchmark", "--config", config) == 2
    assert "seed" in capsys.readouterr().err


# base value of each sweepable parameter in _benchmark_config
_SWEEP_BASE = {"n": 120, "p": 8, "r": 2, "theta": 0.3, "varepsilon2": 0.05}
_CHOICES = (
    [{"variant": variant.value} for variant in EstimatorVariant]
    + [{key: label} for label in InitScheme.LABELS for key in ("init", "init_schemes")]
    + [{"noise_kind": kind} for kind in NoiseCovariance.KINDS]
    + [{"sweep_name": name, "sweep_values": _SWEEP_BASE[name]}
       for name in SWEEPABLE_PARAMETERS]
)
# records.csv column that echoes each choice
_CHOICE_COLUMN = {"variant": 0, "init": 1, "init_schemes": 1, "sweep_name": 2}


@pytest.mark.parametrize(
    "choice", _CHOICES,
    ids=["-".join(f"{k}={v}" for k, v in c.items()) for c in _CHOICES])
def test_benchmark_accepts_every_library_choice(tmp_path, choice):
    out = tmp_path / "bench"
    assert _run("benchmark", "--config",
                _benchmark_config(tmp_path, out, **choice)) == 0
    record = (out / "records.csv").read_text().splitlines()[1].split(",")
    summary = (out / "summary.csv").read_text().splitlines()[1].split(",")
    assert summary[5] == "0"   # n_fail
    for key, value in choice.items():
        if key in _CHOICE_COLUMN:
            assert record[_CHOICE_COLUMN[key]] == value


@pytest.mark.parametrize("repeat", [dict(variants="base,base"),
                                    dict(init_schemes="mom,mom")])
def test_benchmark_rejects_repeated_entries(tmp_path, capsys, repeat):
    config = _benchmark_config(tmp_path, tmp_path / "bench", **repeat)
    assert _run("benchmark", "--config", config) == 2
    assert "repeat" in capsys.readouterr().err


def test_benchmark_byte_identical_across_runs_and_threads(tmp_path):
    outputs = []
    for sub in ("t1", "t1b"):
        out = tmp_path / sub
        config = _benchmark_config(tmp_path, out, sweep_values="80,120",
                                   replications=2)
        assert _run("benchmark", "--config", config) == 0
        outputs.append(((out / "records.csv").read_bytes(),
                        (out / "summary.csv").read_bytes()))
    assert outputs[0] == outputs[1]


def test_benchmark_survives_cell_failures(tmp_path):
    out = tmp_path / "failing"
    config = _benchmark_config(tmp_path, out, sweep_name="p",
                               sweep_values="8,1")
    assert _run("benchmark", "--config", config) == 0
    summary = (out / "summary.csv").read_text().splitlines()
    fail_cells = [line for line in summary[1:] if line.split(",")[5] == "1"]
    assert len(fail_cells) == 1


def test_set_overrides_config_file(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    config = _write_config(tmp_path, "ovr.cfg", n=30, p=6, r=2, seed=11,
                           output_path=out_a)
    assert _run("simulate", "--config", config) == 0
    assert _run("simulate", "--config", config, "--set", f"output_path={out_b}",
                "--set", "seed=12") == 0
    a = read_matrix_csv(out_a / "X.csv")
    b = read_matrix_csv(out_b / "X.csv")
    assert a.shape == b.shape and not np.array_equal(a, b)


def test_unknown_cli_key_rejected(tmp_path, capsys):
    config = _write_config(tmp_path, "u.cfg", n=10, p=4, r=2, seed=1,
                           whatever=3)
    assert _run("simulate", "--config", config) == 2
    assert "whatever" in capsys.readouterr().err
