"""Tests for the command-line front end and its file formats."""
import inspect
import json
import re
import shlex
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from dvarimax import (NOISE_KINDS, VARIANTS, ExperimentGrid, InitScheme, RotationSolveConfig,
                      SyntheticConfig, deflate, estimate_loading, signed_permutation_error)
from dvarimax.cli import (_DEFAULTS, _KEY_PARSERS, CliError, main, parse_config_text,
                          read_matrix_csv, resolve_config, write_matrix_csv)
from dvarimax.evaluate import RECORDS_HEADER, SUMMARY_HEADER, SWEEPABLE_PARAMETERS
from dvarimax.initialization import SUBTRACTION_MODES


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
output_path = runs/#3
""")
    assert raw == {"n": "900", "p": "300", "theta": "0.1", "output_path": "runs/#3"}
    # a '#' inside a value is kept, so a bad integer is reported, not cut off
    raw = parse_config_text("seed = 7#8\n")
    assert raw == {"seed": "7#8"}
    with pytest.raises(CliError, match="config key 'seed'"):
        resolve_config(raw, "simulate")


def test_parse_config_rejects_duplicates_and_garbage():
    with pytest.raises(CliError, match="duplicate"):
        parse_config_text("n = 1\nn = 2\n")
    with pytest.raises(CliError, match="key = value"):
        parse_config_text("just some words\n")
    with pytest.raises(CliError, match="<config>:1: empty key"):
        parse_config_text("= 5\n")


def test_resolve_config_rejects_unknown_keys():
    for command in _KEY_PARSERS:
        with pytest.raises(CliError, match=f"^config key 'banana' is not read by {command}$"):
            resolve_config({"banana": "1"}, command)


def test_resolve_config_defaults():
    for command in ("estimate", "benchmark"):
        config = resolve_config({}, command)
        assert config["step_size"] == 1e-5
        assert config["grad_tol"] == 1e-6
        assert config["max_iters"] == 5000
        # every solver setting is a CLI key carrying the library default
        for spec in fields(RotationSolveConfig):
            assert config[spec.name] == spec.default
    assert resolve_config({}, "estimate")["variant"] == "improved2"
    assert resolve_config({}, "estimate")["init"] == "mom"
    assert resolve_config({}, "benchmark")["variants"] == ("improved2",)
    assert resolve_config({}, "benchmark")["init_schemes"] == ("mom",)
    assert resolve_config({"n": "10"}, "simulate")["n"] == 10
    # a command fills in the defaults of its own keys only
    for command, parsers in _KEY_PARSERS.items():
        assert set(resolve_config({}, command)) <= set(parsers)


def test_the_default_variant_is_defined_once():
    grid = ExperimentGrid(base=SyntheticConfig(n=10, p=4, r=2), sweep_name="n",
                          sweep_values=(10,))
    defaults = (inspect.signature(estimate_loading).parameters["variant"].default,
                grid.variants[0],
                resolve_config({}, "estimate")["variant"],
                resolve_config({}, "benchmark")["variants"][0])
    assert defaults == ("improved2",) * 4


def test_resolve_config_type_errors():
    with pytest.raises(CliError, match="'n'"):
        resolve_config({"n": "many"}, "simulate")
    with pytest.raises(CliError, match="variant"):
        resolve_config({"variant": "fancy"}, "estimate")
    with pytest.raises(CliError, match="'variants': empty list"):
        resolve_config({"variants": ","}, "benchmark")


@pytest.mark.parametrize("text, value", [
    ("true", True), ("Yes", True), ("1", True), ("ON", True),
    ("false", False), ("no", False), ("0", False), ("Off", False)])
def test_resolve_config_parses_boolean_keys(text, value):
    assert resolve_config({"record_runtime": text}, "benchmark")["record_runtime"] is value


def test_resolve_config_rejects_a_non_boolean():
    with pytest.raises(CliError, match="'record_runtime': not a boolean: 'maybe'"):
        resolve_config({"record_runtime": "maybe"}, "benchmark")


def _readme_cli_section() -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf8")
    return readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]


def _readme_key_table() -> dict:
    """``{key: (commands marked, default cell)}`` of the README's key table."""
    rows = re.findall(r"^\| `(\w+)` \|([^|]*)\|([^|]*)\|([^|]*)\| ([^|]*) \|$",
                      _readme_cli_section(), flags=re.MULTILINE)
    return {key: ({command for command, mark in zip(_KEY_PARSERS, marks) if mark.strip()},
                  default) for key, *marks, default in rows}


def test_readme_cli_section_names_every_config_key():
    # the table marks exactly the keys each command reads
    table = _readme_key_table()
    for command, parsers in _KEY_PARSERS.items():
        listed = {key for key, (commands, _) in table.items() if command in commands}
        assert listed == set(parsers), command


# A README sentence that gives the values of one or more choice keys, such
# as "`noise_kind` is `identity`, `heteroscedastic` or `toeplitz`".
_CHOICE_SENTENCE = re.compile(
    r"(`\w+`(?:\s+and\s+`\w+`)*)\s+(?:is|take)(?:\s+one\s+of|\s+the\s+labels)?\s+"
    r"(`[^`]+`(?:(?:,|,?\s+or|,?\s+and)\s+`[^`]+`)*)")


_CHOICE_KEYS = {"variant": VARIANTS, "variants": VARIANTS,
                "init": InitScheme.LABELS, "init_schemes": InitScheme.LABELS,
                "noise_kind": NOISE_KINDS, "sweep_name": SWEEPABLE_PARAMETERS,
                "mom_subtraction": SUBTRACTION_MODES}


@pytest.mark.parametrize("choice", sorted(set().union(*_CHOICE_KEYS.values())))
def test_readme_cli_section_names_every_choice(choice):
    # each key that takes ``choice`` has one sentence that gives its values,
    # and that sentence lists exactly the library's tuple
    sentences = _CHOICE_SENTENCE.findall(_readme_cli_section())
    keys = [key for key, choices in _CHOICE_KEYS.items() if choice in choices]
    for key in keys:
        given = [sorted(re.findall(r"`([^`]+)`", values))
                 for names, values in sentences if f"`{key}`" in names.split()]
        assert given == [sorted(_CHOICE_KEYS[key])], key
    assert keys


def test_readme_csv_headers_match_the_writers():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf8")
    for name, header in (("records", RECORDS_HEADER), ("summary", SUMMARY_HEADER)):
        assert re.findall(rf"`{name}\.csv` header:\s*`([^`]+)`", readme) == [header]


def test_readme_cli_defaults_match_the_resolved_config():
    # a key's default cell opens with a value in backticks exactly when the
    # CLI fills one in, and that value is the one each command resolves to
    for key, (commands, cell) in _readme_key_table().items():
        value = re.match(r"`([^`]+)`", cell)
        assert (value is not None) == (key in _DEFAULTS), key
        for command in commands:
            if value is not None:
                parsed = _KEY_PARSERS[command][key](value[1])
                assert parsed == resolve_config({}, command)[key], (command, key)


def _readme_cli_steps():
    """The README's CLI shell block: its heredoc config files, and each
    ``dvarimax`` line's arguments with the files its ``# ->`` line lists."""
    block = _readme_cli_section().split("```sh\n", 1)[1].split("```", 1)[0]
    configs = dict(re.findall(r"^cat > (\S+) <<EOF\n(.*?)^EOF$", block,
                              flags=re.MULTILINE | re.DOTALL))
    steps = []
    for line in block.replace("\\\n", "").splitlines():
        if line.startswith("dvarimax "):
            steps.append((shlex.split(line)[1:], []))
        elif line.startswith("# -> "):
            folder, names = re.fullmatch(r"# -> (\S+)/\{(.*)\}", line).groups()
            steps[-1][1].extend(Path(folder) / name.strip() for name in names.split(","))
    return configs, steps


def test_readme_cli_example_runs_as_written(tmp_path, monkeypatch):
    configs, steps = _readme_cli_steps()
    assert set(configs) == {"sim.cfg", "est.cfg"} and len(steps) == 3
    monkeypatch.chdir(tmp_path)
    for name, text in configs.items():
        Path(name).write_text(text, encoding="utf8")
    for argv, outputs in steps:
        assert outputs, argv
        assert main(argv) == 0, argv
        for path in outputs:
            assert path.is_file(), path


def test_config_file_may_start_with_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.cfg"
    path.write_text(f"n = 10\np = 4\nr = 2\nseed = 1\noutput_path = {tmp_path / 'out'}\n",
                    encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    assert _run("simulate", "--config", str(path)) == 0
    assert read_matrix_csv(tmp_path / "out" / "X.csv").shape == (4, 10)


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


def test_matrix_csv_text(tmp_path):
    # %.17g per value, special values included; a 1-D array is one row
    path = tmp_path / "m.csv"
    write_matrix_csv(path, np.array([[0.0, -0.0, np.nan], [np.inf, -np.inf, 5e-324],
                                     [1e16, 1e-5, 0.1]]), "rows=3 cols=3")
    assert path.read_bytes() == (
        b"# rows=3 cols=3\n0,-0,nan\ninf,-inf,4.9406564584124654e-324\n"
        b"10000000000000000,1.0000000000000001e-05,0.10000000000000001\n")
    write_matrix_csv(path, np.array([1.797e308, -2.5]), "v")
    assert path.read_bytes() == b"# v\n1.797e+308,-2.5\n"


def test_matrix_csv_may_start_with_a_byte_order_mark(tmp_path):
    matrix = np.arange(6.0).reshape(2, 3)
    path = tmp_path / "bom.csv"
    write_matrix_csv(path, matrix, "p=2 n=3")
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert np.array_equal(read_matrix_csv(path), matrix)


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
    config = _write_config(tmp_path, "auto.cfg", n=10, p=4, r="auto", seed=1)
    assert _run("simulate", "--config", config) == 2
    assert capsys.readouterr().err == "error: simulate requires a numeric r\n"


@pytest.mark.parametrize("entries, message", [
    (dict(theta=2), "theta must lie in (0, 1]"),
    (dict(noise_kind="toeplitz", noise_rho=1.5), "toeplitz decay rho must lie in (0, 1)"),
    # every noise setting is checked, also one that the kind does not read
    (dict(noise_kind="identity", noise_rho=1.5), "toeplitz decay rho must lie in (0, 1)"),
    # a seed is an integer in [0, 2**64), never reduced modulo 2**64
    (dict(seed=-1), "seed=-1 must be >= 0"),
    (dict(seed=2 ** 64), f"seed={2 ** 64} must be <= {2 ** 64 - 1}"),
])
def test_simulate_reports_the_library_message(tmp_path, capsys, entries, message):
    config = _write_config(tmp_path, "sim.cfg", **{
        **dict(n=10, p=4, r=2, seed=1, output_path=tmp_path / "out"), **entries})
    assert _run("simulate", "--config", config) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


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


def test_seedless_estimate_is_reproduced_by_its_drawn_seed(tmp_path, simulated):
    entries = dict(input_path=simulated / "X.csv", r=2, step_size=0.01)
    drawn = tmp_path / "drawn"
    assert _run("estimate", "--config",
                _write_config(tmp_path, "drawn.cfg", output_path=drawn, **entries)) == 0
    diagnostics = json.loads((drawn / "diagnostics.json").read_text())
    seed = diagnostics["resolved_config"]["seed"]
    assert isinstance(seed, int)
    again = tmp_path / "again"
    assert _run("estimate", "--config",
                _write_config(tmp_path, "again.cfg", output_path=again, seed=seed,
                              **entries)) == 0
    for name in ("lambda_hat.csv", "q_check.csv", "z_hat.csv"):
        assert (drawn / name).read_bytes() == (again / name).read_bytes()
    rerun = json.loads((again / "diagnostics.json").read_text())
    for payload, out in ((diagnostics, drawn), (rerun, again)):
        assert payload["resolved_config"].pop("output_path") == str(out)
        payload.pop("runtime_ms")
    assert rerun == diagnostics


def test_estimate_runs_base_when_the_correction_is_infeasible(tmp_path, capsys):
    # p = r leaves no trailing eigenvalues, so the noise correction of the
    # default improved2 variant is infeasible and base runs instead
    x = np.random.default_rng(4).standard_normal((3, 200))
    write_matrix_csv(tmp_path / "X.csv", x, "rows=3 cols=200")
    config = _write_config(tmp_path, "fallback.cfg", input_path=tmp_path / "X.csv", r=3,
                           seed=1, output_path=tmp_path / "fallback")
    assert _run("estimate", "--config", config) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "estimate: the improved2 noise correction is infeasible; ran base")
    diagnostics = json.loads((tmp_path / "fallback" / "diagnostics.json").read_text())
    assert diagnostics["fallback"] is True
    assert diagnostics["requested_variant"] == "improved2"
    assert diagnostics["effective_variant"] == "base"
    assert diagnostics["init"] == "mom"
    assert diagnostics["near_duplicate"] is False
    assert diagnostics["resolved_config"]["variant"] == "improved2"


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


@pytest.mark.parametrize("settings, message", [
    ({"seed": -1}, "seed=-1 must be >= 0"),
    ({"seed": 2**64}, f"seed={2**64} must be <="),
    # a numeric r below 1, checked before the input gives min(p, n)
    ({"r": 0}, "r=0 must be >= 1"),
    ({"r": -2}, "r=-2 must be >= 1"),
    ({"init_slices": 0}, "slices=0 must be >= 1"),
    ({"step_size": 0}, "step_size must lie in"),
    ({"max_iters": 0}, "max_iters=0 must be >= 1"),
    # settings that the random scheme does not use, out of range as well
    ({"init": "random", "init_slices": 0, "init_draws": -4,
      "mom_subtraction": "lemma_consistent"},
     "init_draws = -4 is used by none of the init schemes random"),
    ({"init": "random", "init_slices": 4},
     "init_slices = 4 is used by none of the init schemes random"),
    # r_max is read only with r = auto
    ({"r": 3, "r_max": 0}, "r_max = 0 is used only by r = auto, not r = 3"),
    ({"r": 3, "r_max": 1}, "r_max = 1 is used only by r = auto, not r = 3"),
    # a label that is no longer a scheme, and one that is no longer a variant
    ({"init": "mom_improved"},
     "config key 'init': value must be one of random, multi_random, mom, got 'mom_improved'"),
    ({"variant": "improved1"},
     "config key 'variant': value must be one of base, improved2, got 'improved1'"),
], ids=["seed=-1", "seed=2**64", "r=0", "r=-2", "init_slices=0", "step_size=0", "max_iters=0",
        "random-with-unused-bad-settings", "random-with-init_slices", "r=3-r_max=0",
        "r=3-r_max=1", "init=mom_improved", "variant=improved1"])
def test_estimate_checks_every_setting_before_reading_input(tmp_path, capsys,
                                                            monkeypatch, settings,
                                                            message):
    def no_read(path):
        raise AssertionError("input read before the settings were checked")
    monkeypatch.setattr("dvarimax.cli.read_matrix_csv", no_read)
    config = _write_config(tmp_path, "early.cfg", input_path=tmp_path / "X.csv",
                           output_path=tmp_path / "out",
                           **{"r": "auto", **settings})
    assert _run("estimate", "--config", config) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_estimate_near_duplicate_reads_the_restricted_rounds(tmp_path, simulated,
                                                             monkeypatch):
    def one_restricted(*args):
        result = deflate(*args)
        return replace(result, restricted=np.array([False, True]))
    monkeypatch.setattr("dvarimax.estimator.deflate", one_restricted)
    out = tmp_path / "est"
    config = _write_config(tmp_path, "est.cfg", input_path=simulated / "X.csv",
                           output_path=out, r=2, seed=8, step_size=0.01)
    assert _run("estimate", "--config", config) == 0
    assert json.loads((out / "diagnostics.json").read_text())["near_duplicate"] is True


def test_estimate_rejects_oversized_rank(tmp_path, simulated, capsys):
    for r in (11, 0):
        config = _write_config(tmp_path, f"bad{r}.cfg", input_path=simulated / "X.csv",
                               output_path=tmp_path / "x", r=r, seed=1)
        assert _run("estimate", "--config", config) == 2
        assert f"r={r}" in capsys.readouterr().err


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
    # a file that exists but holds no data rows is a config error
    (tmp_path / "empty.csv").write_text("# rows=0 cols=0\n")
    config = _write_config(tmp_path, "empty.cfg", input_path=tmp_path / "empty.csv",
                           output_path=tmp_path, r=2, seed=1)
    assert _run("estimate", "--config", config) == 2
    assert "empty.csv: no data rows" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------

def _benchmark_config(tmp_path, out, **overrides):
    entries = dict(n=120, p=8, r=2, theta=0.3, varepsilon2=0.05, seed=99,
                   sweep_name="n", sweep_values="120", replications=1,
                   init_slices=8, step_size=0.01, max_iters=2000,
                   output_path=out)
    entries.update(overrides)
    if "init_slices" not in overrides and "mom" not in entries.get("init_schemes", "mom"):
        del entries["init_slices"]  # no listed scheme uses it
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
    config = _benchmark_config(tmp_path, out, sweep_values="a,b")
    assert _run("benchmark", "--config", config) == 2
    assert "error: sweep_values: " in capsys.readouterr().err


# base value of each sweepable parameter in _benchmark_config
_SWEEP_BASE = {"n": 120, "p": 8, "r": 2, "theta": 0.3, "varepsilon2": 0.05}
_CHOICES = (
    [{"variants": variant} for variant in VARIANTS]
    + [{"init_schemes": label} for label in InitScheme.LABELS]
    + [{"init": label} for label in InitScheme.LABELS]
    + [{"noise_kind": kind} for kind in NOISE_KINDS]
    + [{"sweep_name": name, "sweep_values": _SWEEP_BASE[name]}
       for name in SWEEPABLE_PARAMETERS]
    + [{"mom_subtraction": "lemma_consistent"}]
)
# records.csv column that echoes each choice
_CHOICE_COLUMN = {"variants": 0, "init_schemes": 1, "sweep_name": 2}


@pytest.mark.parametrize(
    "choice", _CHOICES,
    ids=["-".join(f"{k}={v}" for k, v in c.items()) for c in _CHOICES])
def test_benchmark_accepts_every_library_choice(tmp_path, choice):
    # An `init` row lists its label among every scheme; seeds derive from
    # labels, not grid positions, so its rows equal those it has listed alone.
    label = choice.get("init")
    overrides = ({"init_schemes": ",".join(InitScheme.LABELS)} if label
                 else choice)
    out = tmp_path / "bench"
    assert _run("benchmark", "--config",
                _benchmark_config(tmp_path, out, **overrides)) == 0
    records = [line.split(",")
               for line in (out / "records.csv").read_text().splitlines()[1:]]
    summary = [line.split(",")
               for line in (out / "summary.csv").read_text().splitlines()[1:]]
    assert all(row[5] == "0" for row in summary)   # n_fail
    for key, value in choice.items():
        if key in _CHOICE_COLUMN:
            assert records[0][_CHOICE_COLUMN[key]] == value
    if label:
        alone = tmp_path / "bench_alone"
        assert _run("benchmark", "--config",
                    _benchmark_config(tmp_path, alone, init_schemes=label)) == 0
        listed = [row for row in records if row[1] == label]
        assert listed and listed == [
            line.split(",")
            for line in (alone / "records.csv").read_text().splitlines()[1:]]


def test_mom_subtraction_reaches_only_the_mom_schemes(tmp_path):
    rows = {}
    for mode in ("as_written", "lemma_consistent"):
        out = tmp_path / mode
        config = _benchmark_config(tmp_path, out, mom_subtraction=mode,
                                   init_schemes="random,multi_random,mom",
                                   replications=2)
        assert _run("benchmark", "--config", config) == 0
        for line in (out / "records.csv").read_text().splitlines()[1:]:
            rows.setdefault(line.split(",")[1], []).append(line)
    for label, lines in rows.items():
        written, lemma = lines[:2], lines[2:]
        assert (written == lemma) == (label in ("random", "multi_random"))


@pytest.mark.parametrize("key, value", [("init_draws", 0), ("init_slices", -2)])
def test_benchmark_rejects_out_of_range_init_settings(tmp_path, capsys, key, value):
    # InitScheme checks the range, in the scheme that uses the setting
    config = _benchmark_config(tmp_path, tmp_path / "bench",
                               init_schemes="random,multi_random,mom", **{key: value})
    assert _run("benchmark", "--config", config) == 2
    assert f"{key.removeprefix('init_')}={value} must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["estimate", "benchmark"])
@pytest.mark.parametrize("settings, key", [
    (dict(init_schemes="random", init_slices=8, mom_subtraction="lemma_consistent"),
     "init_slices"),
    (dict(init_schemes="random,mom", init_draws=4), "init_draws"),
    (dict(init_schemes="multi_random", mom_subtraction="lemma_consistent"),
     "mom_subtraction"),
], ids=["slices-to-random", "draws-to-mom", "subtraction-to-multi_random"])
def test_an_init_setting_no_listed_scheme_uses_is_an_error(tmp_path, capsys, command,
                                                           settings, key):
    if command == "estimate":
        settings = dict(settings, init=settings["init_schemes"].split(",")[0])
        del settings["init_schemes"]
        config = _write_config(tmp_path, "est.cfg", input_path=tmp_path / "X.csv", r=2,
                               seed=1, output_path=tmp_path / "out", **settings)
    else:
        config = _benchmark_config(tmp_path, tmp_path / "out", **settings)
    assert _run(command, "--config", config) == 2
    err = capsys.readouterr().err
    assert f"error: {key} = " in err and "is used by none of the init schemes" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("repeat", [dict(variants="base,base"),
                                    dict(init_schemes="mom,mom"),
                                    dict(sweep_values="120,120")])
def test_benchmark_rejects_repeated_entries(tmp_path, capsys, repeat):
    config = _benchmark_config(tmp_path, tmp_path / "bench", **repeat)
    assert _run("benchmark", "--config", config) == 2
    assert "repeat" in capsys.readouterr().err


def test_benchmark_byte_identical_across_runs(tmp_path):
    outputs = []
    for sub in ("t1", "t1b"):
        out = tmp_path / sub
        config = _benchmark_config(tmp_path, out, sweep_values="80,120",
                                   replications=2)
        assert _run("benchmark", "--config", config) == 0
        outputs.append(((out / "records.csv").read_bytes(),
                        (out / "summary.csv").read_bytes()))
    assert outputs[0] == outputs[1]


def test_benchmark_record_runtime_key_fills_the_runtime_column(tmp_path):
    runtimes = {}
    for flag in ("on", "off"):
        out = tmp_path / flag
        config = _benchmark_config(tmp_path, out, record_runtime=flag, replications=2)
        assert _run("benchmark", "--config", config) == 0
        header, *rows = (out / "records.csv").read_text().splitlines()
        column = header.split(",").index("runtime_ms")
        runtimes[flag] = [float(row.split(",")[column]) for row in rows]
    assert all(ms > 0 for ms in runtimes["on"])
    assert runtimes["off"] == [0.0, 0.0]


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


# A value of each key that the command reading it accepts.
_VALID_TEXT = {
    **{spec.name: str(spec.default) for spec in fields(RotationSolveConfig)},
    "input_path": "X.csv", "r_max": "2", "variant": "improved2", "init": "random",
    "n": "10", "p": "4", "theta": "0.5", "varepsilon2": "0.2", "noise_kind": "toeplitz",
    "noise_alpha": "0.2", "noise_rho": "0.3", "init_draws": "4", "init_slices": "8",
    "mom_subtraction": "lemma_consistent", "sweep_name": "n",
    "sweep_values": "10,20", "variants": "improved2", "init_schemes": "mom",
    "replications": "3", "record_runtime": "true",
}
# A config of each command's own keys.
_OWN_ENTRIES = {
    "simulate": dict(n=10, p=4, r=2, seed=1),
    "estimate": dict(input_path="X.csv", r=2, seed=1),
    "benchmark": dict(n=10, p=4, r=2, seed=1, sweep_name="n", sweep_values="10"),
}
_FOREIGN_KEYS = [
    (command, {key: _VALID_TEXT[key]})
    for command, parsers in _KEY_PARSERS.items()
    for key in sorted({key for table in _KEY_PARSERS.values() for key in table} - set(parsers))
] + [
    # configs that each ran and ignored the keys that are not the command's
    ("estimate", dict(variants="improved2", r=3, r_max=1, sweep_values="1,2")),
    ("benchmark", dict(variant="improved2", variants="base", init="random",
                       init_schemes="mom")),
    ("simulate", dict(variant="improved2", init_schemes="mom", replications=3)),
]


@pytest.mark.parametrize(
    "command, entries", _FOREIGN_KEYS,
    ids=[f"{command}-" + "-".join(entries) for command, entries in _FOREIGN_KEYS])
def test_a_key_the_command_does_not_read_is_an_error(tmp_path, capsys, command, entries):
    # each value is one that a command reading its key accepts
    for key, text in entries.items():
        reader = next(other for other, table in _KEY_PARSERS.items() if key in table)
        _KEY_PARSERS[reader][key](str(text))
    entries = {**_OWN_ENTRIES[command], **entries, "output_path": tmp_path / "out"}
    config = _write_config(tmp_path, "foreign.cfg", **entries)
    assert _run(command, "--config", config) == 2
    first = next(key for key in entries if key not in _KEY_PARSERS[command])
    assert capsys.readouterr().err == (
        f"error: config key {first!r} is not read by {command}\n")
    assert not (tmp_path / "out").exists()


def test_set_without_equals_sign_is_a_config_error(tmp_path, capsys):
    config = _write_config(tmp_path, "s.cfg", n=10, p=4, r=2, seed=1,
                           output_path=tmp_path / "out")
    assert _run("simulate", "--config", config, "--set", "seed") == 2
    assert "--set expects key=value, got 'seed'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unreadable_config_is_a_config_error(tmp_path, capsys):
    for path in (tmp_path / "missing.cfg", tmp_path):
        assert _run("simulate", "--config", str(path)) == 2
        assert f"error: cannot read config {path}" in capsys.readouterr().err
