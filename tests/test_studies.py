"""Smoke tests of the committed studies: each runs its --quick mode."""
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
STUDIES = sorted(path.stem for path in (ROOT / "studies").glob("*.py"))


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    """Run a study's --quick mode once per module; return its completed
    process, wall time and JSON report path."""
    runs = {}

    def run(study):
        if study not in runs:
            out = tmp_path_factory.mktemp(study) / f"{study}.json"
            start = time.perf_counter()
            process = subprocess.run(
                [sys.executable, str(ROOT / "studies" / f"{study}.py"), "--quick",
                 "--out", str(out)],
                env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                capture_output=True, text=True)
            runs[study] = process, time.perf_counter() - start, out
        return runs[study]

    return run


@pytest.mark.parametrize("study", STUDIES)
def test_every_study_runs_its_quick_mode(quick_run, study):
    process, elapsed, out = quick_run(study)
    assert process.returncode == 0, process.stderr
    assert elapsed < 5.0
    report = json.loads(out.read_text(encoding="utf8"))
    assert {"seeds", "quick", "runtime_s"} <= set(report)
    assert report["quick"] is True


def test_variants_study_quick_mode(quick_run):
    process, _, out = quick_run("variants")
    lines = process.stdout.splitlines()
    assert lines[0].startswith("| cell (n, p, r, ε²) | base |")
    assert len([line for line in lines if line.startswith("| (")]) == 2
    assert "rule:" in lines[-1]
    report = json.loads(out.read_text(encoding="utf8"))
    assert set(report) == {"seeds", "quick", "cells", "keep_improved1", "runtime_s"}
    assert report["seeds"] == [109] and report["quick"] is True
    assert report["keep_improved1"] is None
    assert len(report["cells"]) == 2
    for cell in report["cells"]:
        assert set(cell) == {"label", "config", "step_size", "reps", "per_seed_median",
                             "failed_fits", "median_over_seeds", "improved2_minus_improved1",
                             "improved2_spread", "improved1_wins"}
        assert cell["reps"] == 2
        assert set(cell["per_seed_median"]) == {"base", "improved1", "improved2"}
        assert all(len(scores) == 1 for scores in cell["per_seed_median"].values())
