"""tools/fixture_diff.py: per-case differences between fixtures and the code."""

import json
import os
import subprocess
import sys

from recykl.fixtures import run_fixture_case

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "tools", "fixture_diff.py")

CASE = dict(
    generator=dict(grid=[6, 6], p=3, delta=0.05, seed=7, tol=1e-8),
    config=dict(strategy="pod-a-rbf", storage_cap=8, max_dim=4),
    precond="jacobi",
)


def write_fixture(path, frozen):
    with open(path, "w") as fh:
        json.dump({"case": CASE, "frozen": frozen}, fh)


def run_tool(fixture_dir):
    return subprocess.run([sys.executable, SCRIPT, str(fixture_dir)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


def test_reports_counter_and_residual_differences(tmp_path):
    fresh = run_fixture_case(CASE)
    write_fixture(tmp_path / "same.json", fresh)
    edited = json.loads(json.dumps(fresh))
    edited["matvecs"][1] += 3
    edited["final_residuals"][2] *= 1.5
    write_fixture(tmp_path / "edited.json", edited)
    write_fixture(tmp_path / "acceptance_calibration.json", {})  # skipped

    proc = run_tool(tmp_path)
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    assert "edited matvecs +0 -3 +0" in lines
    assert "edited residual_rel 0.333 (outside the allowance)" in lines
    assert "same residual_rel 0" in lines and "same ok" in lines
    assert not any(line.startswith("acceptance_calibration") for line in lines)
    assert len(lines) == 4


def test_reproducing_fixtures_exit_zero(tmp_path):
    write_fixture(tmp_path / "same.json", run_fixture_case(CASE))
    proc = run_tool(tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["same residual_rel 0", "same ok"]


def test_empty_directory_is_an_error(tmp_path):
    assert run_tool(tmp_path).returncode == 2
