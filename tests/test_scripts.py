"""Smoke tests for the scripts: an API change that breaks one fails here."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=120,
    )


def test_export_sample_paths_tiny(tmp_path):
    proc = run_script(
        "export_sample_paths.py", "--outdir", str(tmp_path), "--n-paths", "2", "--steps", "4"
    )
    assert proc.returncode == 0, proc.stderr
    names = {"poisson_grid.csv", "gamma_grid.csv", "brownian_grid.csv", "poisson_events.csv"}
    assert {p.name for p in tmp_path.iterdir()} == names
    lines = (tmp_path / "gamma_grid.csv").read_text().splitlines()
    assert lines[0] == "path_id,time,value"
    assert len(lines) == 1 + 2 * 5


def test_run_verify_suite_help(tmp_path):
    proc = run_script("run_verify_suite.py", "--help", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "--paths" in proc.stdout
    assert not any(tmp_path.iterdir())
