"""One pass from manifest to reports, and the checks made after it.

A pass runs exactly the public calls that ``recykl run`` or ``recykl
output-error`` make, in this order, each timed with the benchmark's own
clock:

1. ``problems.load_sequence_manifest``;
2. ``bench.default_methods(...)``;
3. one roster call: ``bench.run_methods(seq, methods, threads=1,
   keep_solutions=True)`` or ``bench.output_error_run(seq, methods, TAUS,
   threads=1)``;
4. ``bench.write_run_outputs`` or ``bench.write_rows_csv``.

``keep_solutions=True`` is the one departure from the CLI call: it keeps the
120 solution vectors so that the true residual of every solve can be checked
after the clock stops.  ``output_error_run`` returns no solutions, so on that
path the residuals come from a separate untimed :func:`check_pass`.

Every pass runs in a fresh interpreter (see ``run.py``), so the peak resident
set read at the end of the pass belongs to that pass alone.
"""

from __future__ import annotations

import csv
import json
import os
import time

import numpy as np

from recykl import bench, problems

from workloads import TAUS, Workload

# a converged solve fails the check when ||b - Ax||_2 > tol * (1 + slack)
RESIDUAL_SLACK = 0.1


def peak_rss_mb() -> float:
    """High-water resident set of this process (VmHWM), in MB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def roster(wl: Workload):
    return bench.default_methods(
        storage_cap=wl.storage_cap, precond=wl.precond, mode=wl.mode,
        include_output_metric=wl.output_error,
    )


def solves_per_pass(wl: Workload) -> int:
    """Denominator of the failure count: (method, system) solves in one pass."""
    return len(roster(wl)) * wl.systems


def solve_failed(spec, report, x) -> bool:
    """A solve fails if it reported not converged or its true residual is too large."""
    if not report.converged or x is None or not np.all(np.isfinite(x)):
        return True
    residual = float(np.linalg.norm(spec.b - spec.A.to_scipy() @ x))
    return not residual <= spec.tol * (1.0 + RESIDUAL_SLACK)


def check_runs(seq, runs) -> dict:
    """Failure count and exact counters of a finished ``run_methods`` roster."""
    failed = matvecs = precond = iters = 0
    for run in runs:
        sols = run.solutions or [None] * len(run.reports)
        for spec, report, x in zip(seq.systems, run.reports, sols):
            failed += solve_failed(spec, report, x)
            matvecs += report.matvecs
            precond += report.precond_applies
            iters += report.stage2_iters + report.stage3_iters
        failed += seq.p - len(run.reports)  # systems a method never reached
    return {"failed": failed, "solves": len(runs) * seq.p,
            "counters": {"matvecs": matvecs, "precond_applies": precond,
                         "stage_iters": iters}}


def verify_run_reports(paths: dict, runs) -> bool:
    """The written reports hold one row per solve and the in-memory counters."""
    with open(paths["systems"], newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(paths["summary"]) as fh:
        summary = json.load(fh)
    want = [(run.method.name, r.j, r.matvecs) for run in runs for r in run.reports]
    got = [(row["method"], int(row["j"]), int(row["matvecs"])) for row in rows]
    return got == want and list(summary) == [run.method.name for run in runs]


def verify_rows(path, rows) -> bool:
    with open(path, newline="") as fh:
        written = list(csv.DictReader(fh))
    return len(written) == len(rows) and all(
        w["method"] == r["method"] and int(w["systems_met"]) == r["systems_met"]
        for w, r in zip(written, rows)
    )


def run_pass(wl: Workload, manifest: str, out_dir: str) -> dict:
    """Time one pass; then check its outputs with the clock stopped."""
    clock = time.perf_counter
    t0 = clock()
    seq = problems.load_sequence_manifest(manifest)
    methods = roster(wl)
    t1 = clock()
    error = None
    try:
        if wl.output_error:
            result = bench.output_error_run(seq, methods, TAUS, threads=1)
        else:
            result = bench.run_methods(seq, methods, threads=1, keep_solutions=True)
    except Exception as exc:  # counted as failed solves; the workload carries on
        result, error = None, f"{type(exc).__name__}: {exc}"
    t2 = clock()
    paths = None
    if result is not None:
        if wl.output_error:
            os.makedirs(out_dir, exist_ok=True)
            paths = os.path.join(out_dir, "output_error.csv")
            bench.write_rows_csv(result, paths)
        else:
            paths = bench.write_run_outputs(result, out_dir)
    t3 = clock()
    out = {
        "run_s": t3 - t0, "setup_s": t1 - t0, "roster_s": t2 - t1, "write_s": t3 - t2,
        "peak_rss_mb": peak_rss_mb(), "error": error, "methods": [m.name for m in methods],
    }
    solves = len(methods) * seq.p
    if result is None:
        out.update(failed=solves, solves=solves, counters=None, reports_ok=False)
    elif wl.output_error:
        # failures come from check_pass; the counters here are the rows' exact fields
        out.update(failed=0, solves=solves, reports_ok=verify_rows(paths, result),
                   counters={"rows": [(r["method"], r["tau"], r["avg_matvecs"],
                                       r["avg_precond_apps"], r["systems_met"])
                                      for r in result]})
    else:
        out.update(check_runs(seq, result), reports_ok=verify_run_reports(paths, result))
    return out


def check_pass(wl: Workload, manifest: str) -> dict:
    """Untimed roster run that keeps solutions, for the output-error residual check."""
    seq = problems.load_sequence_manifest(manifest)
    runs = bench.run_methods(seq, roster(wl), threads=1, keep_solutions=True)
    return check_runs(seq, runs)
