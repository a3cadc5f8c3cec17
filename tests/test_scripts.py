"""The example scripts, run end to end as `python scripts/<name>.py` runs them."""

import json
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, outdir, monkeypatch):
    """Run scripts/<name> as __main__ with --outdir; return its summary.json."""
    monkeypatch.setattr(sys, "argv", [name, "--outdir", str(outdir)])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return json.loads((outdir / "summary.json").read_text())


def test_small_benchmark_converges_to_the_direct_solution(tmp_path, monkeypatch):
    summary = run_script("run_small_benchmark.py", tmp_path, monkeypatch)
    assert summary["iteration_status"] == "converged"
    assert summary["distance_to_direct_L1"] < 1e-8
    for name in ("game.json", "solution.json", "trace.csv", "summary.json"):
        assert (tmp_path / name).is_file(), name


def test_large_benchmark_converges_on_every_seed(tmp_path, monkeypatch):
    summary = run_script("run_large_benchmark.py", tmp_path, monkeypatch)
    seeds = [str(seed) for seed in range(5)]
    assert sorted(k for k in summary if k != "total_seconds") == seeds
    for seed in seeds:
        assert summary[seed]["status"] == "converged", seed
        assert summary[seed]["final_distance"] < 1e-10, seed
        assert (tmp_path / f"distance_seed{seed}.csv").is_file(), seed
