"""Per-method counters of the benchmark workloads' inputs.

Usage: python3 tools/method_counters.py [--seed N] [--tiny] [--mode {fom,cg}]

For each workload of ``perfbench/workloads.py`` this generates the sequence
from the seed as the benchmark does, writes it as a manifest and reads it
back, and runs the workload's roster as ``bench.run_methods`` does (each
preconditioner built once per system, then one method after another) on
one BLAS thread.  It prints, per method, the sums over the sequence of
matvecs, preconditioner applications, stage-2 iterations, stage-3
iterations, ``fom``'s block Gram-Schmidt sweeps in full-space runs
(``sweeps``) and the solves whose report has a ``failure`` (``failed``, so
that a change in outcomes shows beside the counters), and the method's
``tracemalloc`` peak over its sequence above the level it started from
(``peak_mb``, in MB of 10^6 bytes: the
memory Python and numpy allocate, with the shared preconditioners and the
sequence left out), then the roster's matvecs per solve (the benchmark's
``matvecs_per_solve``).  Allocation sizes do not depend on timing, so the
peak repeats from run to run to about 0.01 MB, unlike the resident set
size the benchmark reports.  ``--tiny`` runs each workload at its
smoke-test size, and ``--mode`` runs every roster in that recurrence mode
instead of the workload's own (``fom``).  Nothing is timed, and nothing
under ``perfbench/`` is written.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import os
import sys
import tempfile
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
COLUMNS = ("matvecs", "precond", "stage2", "stage3", "sweeps", "failed")


def method_counters(wl, seed: int) -> tuple[dict, float]:
    """{method: counter sums and peak_mb} of one workload, and its matvecs per solve."""
    from recykl import bench, problems
    from recykl.threestage import build_preconditioners, run_sequence

    seq = problems.gen_diffusion_sequence(
        wl.grid, wl.systems, wl.delta, seed=seed, tol=wl.tol, load_scale=wl.load_scale
    )
    if wl.outputs:
        seq.C = problems.gen_output_matrix(wl.outputs, seq.n, seed + 1)
    with tempfile.TemporaryDirectory() as tmp:
        seq = problems.load_sequence_manifest(problems.write_sequence(seq, tmp))
    methods = bench.default_methods(storage_cap=wl.storage_cap, precond=wl.precond,
                                    mode=wl.mode, include_output_metric=wl.output_error)
    preconds = {kind: build_preconditioners(seq, kind)
                for kind in dict.fromkeys(m.config.precond for m in methods)}
    sums = {}
    solves = 0
    tracemalloc.start()
    try:
        for method in methods:
            gc.collect()  # the last method's cyclic garbage is not this one's
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            _, reports, _ = run_sequence(seq, method.config,
                                         preconds=preconds[method.config.precond],
                                         stop_on_failure=False)
            peak = tracemalloc.get_traced_memory()[1] - start
            sums[method.name] = dict(zip(COLUMNS, (
                sum(r.matvecs for r in reports),
                sum(r.precond_applies for r in reports),
                sum(r.stage2_iters for r in reports),
                sum(r.stage3_iters for r in reports),
                sum(r.reorth_sweeps for r in reports),
                sum(r.failure is not None for r in reports),
            )), peak_mb=peak / 1e6)
            solves += len(reports)
    finally:
        tracemalloc.stop()
    return sums, sum(c["matvecs"] for c in sums.values()) / solves


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--tiny", action="store_true", help="smoke-test size of each workload")
    parser.add_argument("--mode", choices=("fom", "cg"),
                        help="recurrence mode of every roster (default: the workload's)")
    args = parser.parse_args(argv)
    if "numpy" in sys.modules:
        raise SystemExit("error: numpy was imported before BLAS threads could be pinned")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    from workloads import WORKLOADS, tiny

    for name, wl in WORKLOADS.items():
        if args.tiny:
            wl = tiny(wl)
        if args.mode:
            wl = dataclasses.replace(wl, mode=args.mode)
        sums, per_solve = method_counters(wl, args.seed)
        print(f"{name} ({wl.grid[0]}x{wl.grid[1]}, {wl.systems} systems, {wl.precond}, "
              f"{wl.mode}, tol {wl.tol:g}, seed {args.seed})")
        print(f"  {'method':<18}" + "".join(f"{c:>9}" for c in COLUMNS) + f"{'peak_mb':>9}")
        for method, counts in sums.items():
            print(f"  {method:<18}" + "".join(f"{counts[c]:>9}" for c in COLUMNS)
                  + f"{counts['peak_mb']:>9.2f}")
        print(f"  roster matvecs/solve {per_solve:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
