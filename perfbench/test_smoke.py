"""Smoke tests of the benchmark itself, at a 10x10 grid with 3 systems.

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_smoke.py

Everything the tests write goes under perfbench/out/.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import numpy as np
import pytest

import ledger
import passes
from recykl import bench, krylov, linalg, preconditioners, problems, threestage
from workloads import WORKLOADS, tiny

SCRATCH = os.path.join(HERE, "out", "smoke")


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def bench_cmd(*args):
    return [sys.executable, os.path.join("perfbench", "run.py"), *args]


def tiny_manifest(name: str, seed: int = 3) -> str:
    wl = tiny(WORKLOADS[name])
    seq = problems.gen_diffusion_sequence(wl.grid, wl.systems, wl.delta, seed=seed,
                                          tol=wl.tol, load_scale=wl.load_scale)
    if wl.outputs:
        seq.C = problems.gen_output_matrix(wl.outputs, seq.n, seed + 1)
    return problems.write_sequence(seq, os.path.join(SCRATCH, name, "input"))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_its_unit(name, trace):
    proc = subprocess.run(
        bench_cmd("--workload", name, "--tiny", "--seed", "2", "--seconds", "0.1",
                  "--trace", str(trace)),
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0
    assert result["attempted"] >= 3 * passes.solves_per_pass(tiny(WORKLOADS[name]))
    wanted = contract()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {n: v["unit"] for n, v in result["metrics"].items()}
    # the human-readable table names all seven end-to-end metrics with units
    from run import E2E_UNITS

    for metric, unit in E2E_UNITS.items():
        assert any(ln.split()[:1] == [metric] and ln.split()[-1] == unit for ln in lines), metric


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counters_repeat_across_passes(name):
    wl = tiny(WORKLOADS[name])
    manifest = tiny_manifest(name)
    out_dir = os.path.join(SCRATCH, name, "reports")
    first = passes.run_pass(wl, manifest, out_dir)
    second = passes.run_pass(wl, manifest, out_dir)
    assert first["counters"] == second["counters"] and first["reports_ok"]
    traced = []
    for k in range(2):
        tracer = ledger.Tracer(f"smoke-{k}")
        tracer.install()
        try:
            out = passes.run_pass(wl, manifest, out_dir)
        finally:
            tracer.remove()
        traced.append(ledger.layer_metrics(tracer.spans, out["run_s"], out["solves"]))
    for key in ("krylov.iterations", "preconditioners.apply_count", "linalg.spmv_count",
                "precond_per_solve"):
        assert traced[0][key] == traced[1][key], key


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_self_times_add_up_to_the_traced_pass(name):
    wl = tiny(WORKLOADS[name])
    manifest = tiny_manifest(name)
    tracer = ledger.Tracer("smoke")
    tracer.install()
    try:
        out = passes.run_pass(wl, manifest, os.path.join(SCRATCH, name, "reports"))
    finally:
        tracer.remove()
    selfs = ledger.self_times(tracer.spans)
    assert min(selfs) >= 0.0
    assert 1.0 - ledger.COVERAGE_SLACK <= sum(selfs) / out["run_s"] <= 1.0
    names = {span[0] for span in tracer.spans}
    assert {"problems.load_sequence_manifest", "linalg.spmv", "krylov.stage3",
            "bench.run_sequence", "bench.write"} <= names


def test_tracer_removes_every_wrapper():
    targets = [(bench, "run_methods"), (threestage, "spmv"), (krylov, "spmv"),
               (linalg, "dense_cholesky"), (threestage, "augmented_pcg"),
               (preconditioners.Preconditioner, "apply"),
               (threestage.InnerIterativeProjection, "__call__")]
    before = [getattr(owner, attr) for owner, attr in targets]
    tracer = ledger.Tracer("smoke")
    tracer.install()
    assert all(getattr(o, a) is not b for (o, a), b in zip(targets, before))
    tracer.remove()
    assert all(getattr(o, a) is b for (o, a), b in zip(targets, before))


def test_perturbed_solution_counts_as_failed():
    wl = tiny(WORKLOADS["roster-ssor"])
    seq = problems.load_sequence_manifest(tiny_manifest("roster-ssor"))
    runs = bench.run_methods(seq, passes.roster(wl), keep_solutions=True)
    assert passes.check_runs(seq, runs)["failed"] == 0
    x = runs[0].solutions[0]
    spec, report = seq.systems[0], runs[0].reports[0]
    assert not passes.solve_failed(spec, report, x)
    assert passes.solve_failed(spec, report, x + 1e-3 * np.abs(x).max())
    runs[0].solutions[1] = runs[0].solutions[1] * 1.1
    assert passes.check_runs(seq, runs)["failed"] == 1


def copy_tree(dest, with_program=True):
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, os.path.join(dest, "perfbench"), ignore=ignore)
    if with_program:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dest, "src"), ignore=ignore)
        shutil.copytree(os.path.join(ROOT, "tests", "fixtures"),
                        os.path.join(dest, "tests", "fixtures"))


def test_fails_without_the_program():
    dest = os.path.join(SCRATCH, "bare")
    copy_tree(dest, with_program=False)
    proc = subprocess.run(bench_cmd("--workload", "roster-ssor", "--seconds", "1"),
                          cwd=dest, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_fails_when_a_fixture_does_not_reproduce():
    dest = os.path.join(SCRATCH, "broken-fixture")
    copy_tree(dest)
    path = os.path.join(dest, "tests", "fixtures", "drifting_pod.json")
    with open(path) as fh:
        payload = json.load(fh)
    payload["frozen"]["matvecs"][0] += 1
    with open(path, "w") as fh:
        json.dump(payload, fh)
    proc = subprocess.run(bench_cmd("--workload", "krylov-unprec", "--tiny", "--seconds", "1"),
                          cwd=dest, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 1
    assert "drifting_pod" in proc.stderr and '"metrics"' not in proc.stdout
