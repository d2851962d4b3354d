"""Smoke test of the scripts under scripts/: each runs on a small input and
exits 0 with output, so a removed or renamed public name shows up here."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

RUNS = {
    "rate_sweep": ["--d", "3", "--t", "10", "20", "40", "80"],
    "sharpness_scan": ["--d", "3", "--t", "10"],
    "mc_crosscheck": ["--d", "3", "--t", "1", "--x", "0", "--paths", "2000", "--step", "0.01"],
}


@pytest.mark.parametrize("script", sorted(RUNS))
def test_script_runs(script, tmp_path):
    argv = RUNS[script] + (["--out", str(tmp_path / "out.csv")] if script == "rate_sweep" else [])
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / f"{script}.py"), *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
    if script == "rate_sweep":
        assert len((tmp_path / "out.csv").read_text().splitlines()) == 5
