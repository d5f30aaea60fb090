"""Smoke tests of the committed studies: each runs its --quick mode."""
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_variants_study_quick_mode(tmp_path):
    out = tmp_path / "variants.json"
    start = time.perf_counter()
    run = subprocess.run(
        [sys.executable, str(ROOT / "studies" / "variants.py"), "--quick", "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, check=True)
    assert time.perf_counter() - start < 5.0
    lines = run.stdout.splitlines()
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
