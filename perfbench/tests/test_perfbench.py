"""Tests of the benchmark's own machinery: tracing, inputs, accounting.

Run from the root of a checkout:  python3 -m pytest perfbench/tests -q
"""
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import dvarimax.estimator  # noqa: E402
import dvarimax.rotation  # noqa: E402
from dvarimax import SyntheticConfig  # noqa: E402
from run import layer_row, same_output  # noqa: E402
from tracer import TARGETS, Span, Tracer, per_fit, self_times  # noqa: E402
from workloads import WORKLOADS, EstimateWorkload, FitResult, SweepCareful  # noqa: E402


def bound_names():
    return {key: getattr(importlib.import_module(key[0]), key[1]) for key in TARGETS}


def test_wrappers_restore_every_name_when_a_fit_raises():
    before = bound_names()
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer, tracer.fit(0, "estimator.estimate_loading"):
            assert all(bound_names()[key] is not fn for key, fn in before.items())
            # r exceeds min(p, n): raised inside the wrapped eigendecompose
            dvarimax.estimator.estimate_loading(np.ones((3, 8)), r=5)
    assert bound_names() == before
    assert [span.name for span in tracer.spans] == [
        "estimator.estimate_loading", "spectral.eigendecompose"]
    assert all(span.end >= span.start > 0 for span in tracer.spans)


def test_missing_public_name_is_an_absent_layer(monkeypatch):
    monkeypatch.delattr(dvarimax.rotation, "symmetric_orthogonalize")
    with Tracer() as tracer:
        assert not hasattr(dvarimax.rotation, "symmetric_orthogonalize")
    assert tracer.absent == ["rotation.symmetric_orthogonalize"]
    assert not hasattr(dvarimax.rotation, "symmetric_orthogonalize")
    row = layer_row([FitResult(seconds=1.0)], {})
    assert row["rotation.symmetric_orthogonalize_ms"] == 0.0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_changes_the_inputs(name):
    workload = WORKLOADS[name]
    first, again, other = (workload.make_inputs(s)[0] for s in (1, 1, 2))
    if isinstance(workload, SweepCareful):
        assert first == again and first != other
    else:
        assert np.array_equal(first.data, again.data)
        assert not np.array_equal(first.data, other.data)


SMALL = EstimateWorkload("small", SyntheticConfig(n=400, p=40, r=3), "improved2", pool=1)
SWEEP = SweepCareful()


@pytest.mark.parametrize("workload, item", [
    (SMALL, SMALL.make_inputs(3)[0]),
    (SWEEP, SWEEP.grid(3, reps=1, variants=("improved2",))),
], ids=["estimate", "sweep"])
def test_self_times_add_up_to_the_traced_wall_time(workload, item):
    plain = workload.call(item, 0)
    tracer = Tracer()
    with tracer:
        traced = workload.call(item, 0, around=lambda: tracer.fit(0, workload.span))
    assert all(fit.lambda_hat is not None for fit in plain + traced)
    assert len(plain) == len(traced) and all(map(same_output, plain, traced))
    roots = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in roots] == [workload.span]
    wall = roots[0].end - roots[0].start
    assert sum(self_times(tracer.spans)) == pytest.approx(wall, rel=1e-9, abs=1e-9)
    assert sum(entry[2] for entry in per_fit(tracer.spans)[0].values()) == \
        pytest.approx(wall, rel=1e-9, abs=1e-9)
    names = {s.name for s in tracer.spans}
    assert {"rotation.pgd_solve", "initialization.init",
            "spectral.corrected_decomposition"} <= names


def test_self_time_clips_children_to_the_parent():
    spans = [Span("root", 0.0, 10.0, None, 0), Span("a", 1.0, 4.0, 0, 0),
             Span("b", 3.0, 12.0, 0, 0), Span("c", 2.0, 3.0, 1, 0)]
    assert self_times(spans) == pytest.approx([1.0, 2.0, 9.0, 1.0])
