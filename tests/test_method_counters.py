"""tools/method_counters.py: per-method counters of the benchmark workloads."""

import os
import subprocess
import sys

from recykl import bench, problems

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "tools", "method_counters.py")
BASELINES = os.path.join(ROOT, "tools", "counter_baselines")
WORKLOADS = ("roster-ssor", "krylov-unprec", "output-error")


def run(baseline: str, *args: str) -> str:
    """The ``--tiny --seed 2`` tables, checked against a committed baseline."""
    proc = subprocess.run([sys.executable, SCRIPT, "--tiny", "--seed", "2", *args, "--check",
                           os.path.join(BASELINES, baseline)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def parse(stdout: str) -> tuple[dict, dict, dict]:
    """{workload: ({method: [matvecs, precond, stage2, stage3, sweeps, failed]}, per_solve)},
    {workload: {method: peak_mb}} and {workload: mode}."""
    tables, peaks, modes, name = {}, {}, {}, None
    for line in stdout.splitlines():
        if not line.startswith(" "):
            name = line.split(" (")[0]
            tables[name], peaks[name] = ({}, None), {}
            modes[name] = line.split(", ")[3]
        elif line.strip().startswith("roster matvecs/solve"):
            tables[name] = (tables[name][0], float(line.split()[-1]))
        elif line.strip().startswith("method"):
            assert line.split()[1:] == ["matvecs", "precond", "stage2", "stage3", "sweeps",
                                        "failed", "peak_mb"]
        else:
            method, *counts, peak = line.split()
            tables[name][0][method] = [int(c) for c in counts]
            peaks[name][method] = float(peak)
    return tables, peaks, modes


def in_process_krylov_unprec(tmp_path, mode: str) -> dict:
    """The unpreconditioned workload's counters at smoke size, through the
    same manifest round trip, from ``bench.run_methods``."""
    seq = problems.gen_diffusion_sequence((10, 10), 3, 0.05, seed=2, tol=1e-6,
                                          load_scale=1e-4)
    seq = problems.load_sequence_manifest(problems.write_sequence(seq, tmp_path))
    runs = bench.run_methods(seq, bench.default_methods(storage_cap=50, mode=mode))
    return {run.method.name: [sum(r.matvecs for r in run.reports),
                              sum(r.precond_applies for r in run.reports),
                              sum(r.stage2_iters for r in run.reports),
                              sum(r.stage3_iters for r in run.reports),
                              sum(r.reorth_sweeps for r in run.reports),
                              sum(r.failure is not None for r in run.reports)] for run in runs}


def test_tiny_workloads_match_an_in_process_roster(tmp_path):
    tables, peaks, modes = parse(run("tiny-seed2-fom.json"))
    assert tuple(tables) == WORKLOADS
    assert set(modes.values()) == {"fom"}
    for name, (sums, _) in tables.items():
        # every method allocates while it runs; one that keeps directions
        # holds more than plain PCG
        assert set(peaks[name]) == set(sums) and min(peaks[name].values()) > 0, name
        assert peaks[name]["no-trunc"] > peaks[name]["pcg"], name
    for name, (sums, per_solve) in tables.items():
        assert sums["pcg"][2] == sums["pcg"][4] == 0 and sums["pcg"][0] == sums["pcg"][3]
        total = sum(counts[0] for counts in sums.values())
        assert per_solve == round(total / (3 * len(sums)), 3), name
    assert len(tables["output-error"][0]) == 9 and len(tables["roster-ssor"][0]) == 6
    assert tables["krylov-unprec"][0] == in_process_krylov_unprec(tmp_path, "fom")


def test_cg_mode_table(tmp_path):
    tables, _, modes = parse(run("tiny-seed2-cg.json", "--mode", "cg"))
    assert tuple(tables) == WORKLOADS and set(modes.values()) == {"cg"}
    for name, (sums, _) in tables.items():
        # the two-term recurrence makes no Gram-Schmidt sweep
        assert all(counts[4] == 0 for counts in sums.values()), name
    assert tables["krylov-unprec"][0] == in_process_krylov_unprec(tmp_path, "cg")
