"""Tests of the package surface."""
import importlib
import pkgutil
from pathlib import Path

import numpy as np
import pytest
from helpers import ZeroDraws

import dvarimax
from dvarimax import (CorrectionInfeasibleError, DeflationVarimaxError,
                      DegenerateSlicingError, DegenerateSolutionsError, DivergenceError,
                      ExperimentGrid, FourthMoment, InitScheme, RankDeficiencyError,
                      RotationSolveConfig, SyntheticConfig, complement_basis,
                      corrected_decomposition, deflate, eigendecompose,
                      estimate_loading, fourth_moment, loading_from_rotation,
                      make_init_provider, mom_init, multi_random_init, pgd_solve,
                      predict_factors, select_rank, slice_operator, substream,
                      symmetric_orthogonalize)


def test_every_listed_export_resolves():
    modules = [dvarimax] + [
        importlib.import_module(f"dvarimax.{info.name}")
        for info in pkgutil.iter_modules(dvarimax.__path__)]
    for module in modules:
        exports = getattr(module, "__all__", ())
        missing = [name for name in exports if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ lists {missing}"
    namespace = {}
    exec("from dvarimax import *", namespace)
    assert set(dvarimax.__all__) <= set(namespace)


def test_readme_library_quick_start_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf8")
    section = readme.split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert 0 <= namespace["error"] < 1


def _complex_calls() -> dict:
    """One call per public array entry point, each given one complex array
    whose imaginary part is zero, so only its dtype is wrong."""
    stat = fourth_moment(substream(3, "complex").standard_normal((3, 40)))
    decomp = eigendecompose(substream(4, "complex").standard_normal((6, 40)), 3)
    start = np.eye(3)[:, 0] + 0j
    prior = np.eye(3)[:, :1] + 0j
    solve = RotationSolveConfig(step_size=1e-2)
    rng = substream(5, "complex")
    return {
        "pgd_solve": lambda: pgd_solve(start, stat, solve),
        "FourthMoment": lambda: FourthMoment(stat.matrix + 0j),
        "objective": lambda: stat.objective(start),
        "gradient": lambda: stat.gradient(start),
        "bias_corrected": lambda: stat.bias_corrected(np.eye(3) + 0j),
        "restrict": lambda: stat.restrict(complement_basis(prior.real) + 0j),
        "complement_basis": lambda: complement_basis(prior),
        "mom_init prior": lambda: mom_init(slice_operator(stat), prior, 8, rng=rng),
        "symmetric_orthogonalize": lambda: symmetric_orthogonalize(np.eye(3) + 0j),
        "select_rank": lambda: select_rank(decomp.eigvals + 0j, 2),
        "mom_init": lambda: mom_init(slice_operator(stat) + 0j, prior.real, 8, rng=rng),
        "random scheme": lambda: make_init_provider(InitScheme.random(), stat, rng)(prior),
        "multi_random_init": lambda: multi_random_init(stat, prior, 4, rng),
        "loading_from_rotation": lambda: loading_from_rotation(decomp, np.eye(3) + 0j),
        "predict_factors": lambda: predict_factors(decomp, np.eye(3) + 0j),
        "deflate": lambda: deflate(stat, lambda prior: start, solve),
    }


@pytest.mark.parametrize("entry_point", list(_complex_calls()))
def test_every_array_entry_point_rejects_a_complex_dtype(entry_point):
    # A cast to float would keep only the real part, with a ComplexWarning.
    with pytest.raises(ValueError, match="must be real, got dtype complex128"):
        _complex_calls()[entry_point]()


def _error_calls() -> dict:
    """One public call per exported error type, each raising that type for
    the one cause it names."""
    stat = fourth_moment(substream(3, "errors").standard_normal((3, 40)))
    overflowed = stat.matrix.copy()
    overflowed[0, 0] = np.inf
    start = np.eye(3)[:, 0]
    return {
        # an all-zero spectrum: the data has numerical rank 0
        RankDeficiencyError: lambda: select_rank(np.zeros(3), 2),
        # p <= r leaves no trailing eigenvalues to estimate the noise from
        CorrectionInfeasibleError: lambda: corrected_decomposition(
            eigendecompose(substream(4, "errors").standard_normal((3, 40)), 3)),
        DivergenceError: lambda: pgd_solve(start, FourthMoment(overflowed),
                                           RotationSolveConfig(step_size=1e-2)),
        # two equal columns: no orthogonal matrix is close to them
        DegenerateSolutionsError: lambda: symmetric_orthogonalize(np.ones((3, 2))),
        DegenerateSlicingError: lambda: mom_init(np.zeros((9, 9)), np.zeros((3, 0)), 4,
                                                 rng=substream(5, "errors")),
    }


def test_every_exported_error_type_has_a_raiser():
    # an error type that no public call raises has no cause to name
    exported = {value for value in map(vars(dvarimax).get, dvarimax.__all__)
                if isinstance(value, type) and issubclass(value, DeflationVarimaxError)}
    assert exported - {DeflationVarimaxError} == set(_error_calls())


@pytest.mark.parametrize("error", list(_error_calls()), ids=lambda error: error.__name__)
def test_each_error_type_is_raised_for_its_cause(error):
    with pytest.raises(error) as raised:
        _error_calls()[error]()
    assert type(raised.value) is error


def _grid(**overrides) -> ExperimentGrid:
    return ExperimentGrid(**{"base": SyntheticConfig(n=120, p=8, r=2), "sweep_name": "n",
                             "sweep_values": (120,), **overrides})


_X = substream(6, "bad input").standard_normal((4, 40))
_DECOMP = eigendecompose(_X, 2)


def _with(entry: float) -> np.ndarray:
    q_check = np.eye(2)
    q_check[0, 1] = entry
    return q_check


# Bad input raises ValueError, naming what is wrong with it.
_BAD_INPUT_CALLS = {
    "select_rank empty": (lambda: select_rank(np.array([]), 1), "nonempty"),
    "select_rank nan": (lambda: select_rank(np.array([np.nan, 1.0]), 1),
                        "eigvals contains NaN or Inf entries"),
    "select_rank inf": (lambda: select_rank(np.array([np.inf, 1.0]), 1),
                        "eigvals contains NaN or Inf entries"),
    "complement_basis full prior": (lambda: complement_basis(np.eye(3)),
                                    "3 prior columns leave no complement in dimension 3"),
    "multi_random_init zero draw": (
        lambda: multi_random_init(fourth_moment(np.eye(3)), np.zeros((3, 0)), 2,
                                  ZeroDraws()), "zero norm"),
    # an initializer's rng is checked before the fit goes on to any draw
    "mom_init rng None": (
        lambda: mom_init(slice_operator(fourth_moment(np.eye(3))), np.zeros((3, 0)), 8,
                         rng=None), "rng must be of type Generator, got None"),
    "multi_random_init rng None": (
        lambda: multi_random_init(fourth_moment(np.eye(3)), np.zeros((3, 0)), 4, None),
        "rng must be of type Generator, got None"),
    "make_init_provider rng None": (
        lambda: make_init_provider(InitScheme.method_of_moments(), fourth_moment(np.eye(3)),
                                   None), "rng must be of type Generator, got None"),
    "make_init_provider legacy RandomState": (
        lambda: make_init_provider(InitScheme.random(), fourth_moment(np.eye(3)),
                                   np.random.RandomState(0)), "rng must be of type Generator"),
    "substream tag": (lambda: substream(1, object()),
                      "unsupported stream tag type: object"),
    "estimate_loading improved1": (lambda: estimate_loading(_X, 2, "improved1"),
                                   "variant must be one of base, improved2, got 'improved1'"),
    # a container field given one entry, not a list of them
    "grid lone init scheme": (lambda: _grid(init_schemes=InitScheme.method_of_moments()),
                              "init_schemes must be a list of entries"),
    "grid scalar sweep_values": (lambda: _grid(sweep_values=100),
                                 "sweep_values must be a list of entries"),
    "grid str variants": (lambda: _grid(variants="base"), "variants must be a list of entries"),
    "grid list sweep_name": (lambda: _grid(sweep_name=["n"]),
                             "sweep_name must be one of n, p, r, varepsilon2, theta"),
    "grid array sweep_name": (lambda: _grid(sweep_name=np.array("n")),
                              "sweep_name must be one of n, p, r, varepsilon2, theta"),
    "grid empty array sweep_values": (lambda: _grid(sweep_values=np.array([], dtype=int)),
                                      "sweep_values must be nonempty"),
    # a non-finite rotation is named before any SVD, never read as a loading
    "loading_from_rotation nan": (lambda: loading_from_rotation(_DECOMP, _with(np.nan)),
                                  "q_check contains NaN or Inf"),
    "loading_from_rotation inf": (lambda: loading_from_rotation(_DECOMP, _with(np.inf)),
                                  "q_check contains NaN or Inf"),
    "predict_factors inf": (lambda: predict_factors(_DECOMP, _with(np.inf)),
                            "q_check contains NaN or Inf"),
    "symmetric_orthogonalize nan": (lambda: symmetric_orthogonalize(_with(np.nan)),
                                    "q_hat contains NaN or Inf"),
    "symmetric_orthogonalize inf": (lambda: symmetric_orthogonalize(_with(-np.inf)),
                                    "q_hat contains NaN or Inf"),
}


@pytest.mark.parametrize("case", list(_BAD_INPUT_CALLS))
def test_bad_input_raises_value_error(case):
    call, cause = _BAD_INPUT_CALLS[case]
    with pytest.raises(ValueError, match=cause) as raised:
        call()
    assert "at or below zero" not in str(raised.value)
