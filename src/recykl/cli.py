"""Command-line front end for the benchmark protocol.

Subcommands:

- ``generate``      write a synthetic sequence (Matrix Market + manifest)
- ``run``           compare methods over a manifest, CSV/JSON reports
- ``output-error``  cost to reach output-norm thresholds per method
- ``weight-study``  weight-scheme comparison after a warmup stretch
- ``verify-bounds`` randomized verification of the supporting inequalities

Exit codes: 0 on success, 2 when any solve or bound check failed, 3 on
configuration errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys

import numpy as np

from . import bench
from .analysis import (
    REGIMES,
    check_conditioning_bound,
    check_subspace_distance_bound,
    check_weights_bound,
    make_distance_instance,
    make_weights_instance,
)
from .errors import RecyklError
from .problems import (
    gen_diffusion_sequence,
    gen_output_matrix,
    load_sequence_manifest,
    write_sequence,
)
from .threestage import SolverConfig, run_sequence
from .truncation import TruncationConfig


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads only -1 and -0.5 as negative numbers, so a value
        # such as -1e-3 would be taken for an unknown option; no option of
        # this parser looks like a number, so every negative decimal is a value
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(3)


def _count(text: str) -> int:
    """A non-negative integer argument; anything else is a usage error (exit 3)."""
    if not text.strip().isdigit():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="recykl", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic sequence")
    gen.add_argument("--grid", type=int, nargs=2, default=(20, 20), metavar=("NX", "NY"))
    gen.add_argument("--systems", type=int, default=20)
    gen.add_argument("--delta", type=float, default=0.05)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--tol", type=float, default=1e-8)
    gen.add_argument("--outputs", type=_count, default=0,
                     help="rows of a random output matrix (0 = none)")
    gen.add_argument("--out-dir", default="sequence")

    run = sub.add_parser("run", help="method comparison over a manifest")
    run.add_argument("--manifest", required=True)
    run.add_argument("--methods", help="JSON file with method specs")
    run.add_argument("--tol-sweep", action="store_true",
                     help="sweep forcing tolerances 1e-1 .. 1e-6")
    run.add_argument("--precond", default=None,
                     help="identity, jacobi, or ssor:<omega>; overrides method specs")
    run.add_argument("--storage-cap", type=int, default=None,
                     help="storage cap of the default roster (default 50)")
    run.add_argument("--diagnostics", action="store_true")
    run.add_argument("--out-dir", default="results")

    oer = sub.add_parser("output-error", help="output-norm threshold study")
    oer.add_argument("--manifest", required=True)
    oer.add_argument("--methods", help="JSON file with method specs")
    oer.add_argument("--precond", default=None,
                     help="identity, jacobi, or ssor:<omega>; overrides method specs")
    oer.add_argument("--storage-cap", type=int, default=None,
                     help="storage cap of the default roster (default 50)")
    oer.add_argument("--taus", type=float, nargs="+",
                     default=[10.0 ** (-k) for k in range(0, 9)])
    oer.add_argument("--out-dir", default="results")

    ws = sub.add_parser("weight-study", help="weight-scheme comparison")
    ws.add_argument("--manifest", required=True)
    ws.add_argument("--warmup", type=int, default=10)
    ws.add_argument("--dims", type=int, nargs="+", default=None)
    ws.add_argument("--weights", nargs="+", default=bench.WEIGHT_SCHEMES,
                    choices=bench.WEIGHT_SCHEMES)
    ws.add_argument("--precond", default="identity")
    ws.add_argument("--out-dir", default="results")

    vb = sub.add_parser("verify-bounds", help="randomized bound verification")
    vb.add_argument("--instances", type=_count, default=100)
    vb.add_argument("--seed", type=int, default=0)
    vb.add_argument("--out-dir", default="results")

    return parser


def _load_or_default_methods(args) -> list[bench.MethodSpec]:
    """The methods file's roster or the default one, each config checked.

    ``--precond`` overrides every method's preconditioner through a new
    config, so the override is checked as the file's own values are.
    """
    precond = args.precond
    if args.methods:
        if args.storage_cap is not None:
            raise RecyklError("--storage-cap sizes the default roster only; "
                              "set storage_cap in the methods file instead")
        methods = bench.load_methods_file(args.methods)
        if precond is not None:  # command-line choice overrides the file
            for m in methods:
                m.config = dataclasses.replace(m.config, precond=precond)
        return methods
    return bench.default_methods(
        storage_cap=50 if args.storage_cap is None else args.storage_cap,
        precond=precond or "identity",
        include_output_metric=args.command == "output-error",
    )


def cmd_generate(args) -> int:
    seq = gen_diffusion_sequence(
        tuple(args.grid), args.systems, args.delta, seed=args.seed, tol=args.tol
    )
    if args.outputs > 0:
        seq.C = gen_output_matrix(args.outputs, seq.n, seed=args.seed + 1)
    manifest = write_sequence(seq, args.out_dir)
    print(f"wrote {seq.p} systems of dimension {seq.n} to {manifest}")
    return 0


def cmd_run(args) -> int:
    seq = load_sequence_manifest(args.manifest)
    methods = _load_or_default_methods(args)
    if args.diagnostics:
        for m in methods:
            m.config = dataclasses.replace(m.config, diagnostics=True)
    failures = 0
    if args.tol_sweep:
        sweep_summary = {}
        for tol in bench.TOL_SWEEP:
            swept = dataclasses.replace(
                seq, systems=[dataclasses.replace(s, tol=tol) for s in seq.systems])
            runs = bench.run_methods(swept, methods)
            label = f"tol{tol:.0e}"
            bench.write_run_outputs(runs, args.out_dir, label=label)
            sweep_summary[label] = {r.method.name: r.summary for r in runs}
            failures += sum(not r.summary["all_converged"] for r in runs)
        path = os.path.join(args.out_dir, "sweep_summary.json")
        with open(path, "w") as fh:
            json.dump(sweep_summary, fh, indent=2)
        print(f"wrote sweep summary to {path}")
    else:
        runs = bench.run_methods(seq, methods)
        paths = bench.write_run_outputs(runs, args.out_dir)
        for run in runs:
            s = run.summary
            print(
                f"{run.method.name:>24}: avg matvecs {s['avg_matvecs']:8.1f}  "
                f"avg precond {s['avg_precond_applies']:8.1f}  "
                f"avg wall {1e3 * s['avg_wall_time']:8.2f} ms"
            )
            failures += 0 if s["all_converged"] else 1
        print(f"wrote {paths['systems']}")
    return 2 if failures else 0


def cmd_output_error(args) -> int:
    seq = load_sequence_manifest(args.manifest)
    if seq.C is None:
        raise RecyklError("manifest has no output matrix; regenerate with --outputs")
    methods = _load_or_default_methods(args)
    rows = bench.output_error_run(seq, methods, args.taus)
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, "output_error.csv")
    bench.write_rows_csv(rows, path)
    print(f"wrote {path}")
    return 2 if any(r["systems_converged"] < r["systems"] for r in rows) else 0


def cmd_weight_study(args) -> int:
    seq = load_sequence_manifest(args.manifest)
    rows = bench.weight_study(
        seq, dims=args.dims, warmup=args.warmup, precond=args.precond,
        schemes=tuple(args.weights),
    )
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, "weight_study.csv")
    bench.write_rows_csv(rows, path)
    print(f"wrote {path}")
    return 0


def cmd_verify_bounds(args) -> int:
    reports = []
    rng = np.random.default_rng(args.seed)
    base = int(rng.integers(0, 2**31))
    for i in range(args.instances):
        reports.append(
            {"check": "weight-gap", **check_weights_bound(
                make_weights_instance(base + i)).as_dict()}
        )
        reports.append(
            {"check": "weight-gap-output", **check_weights_bound(
                make_weights_instance(base + i, output_metric=True)).as_dict()}
        )
    for regime in REGIMES:
        for i in range(args.instances):
            inst = make_distance_instance(base + 7919 * REGIMES.index(regime) + i, regime)
            reports.append(
                {"check": f"subspace-distance-{regime}",
                 **check_subspace_distance_bound(inst, regime).as_dict()}
            )
    seq = gen_diffusion_sequence((10, 10), p=10, delta=0.05, seed=args.seed, tol=1e-8)
    cfg = SolverConfig(
        truncation=TruncationConfig(
            strategy="pod-a-rbf", nu_y=0.9999, nu_w=0.9999, storage_cap=30, max_dim=20
        )
    )
    _, _, traces = run_sequence(seq, cfg, keep_trace=True)
    for rep in check_conditioning_bound(traces):
        reports.append({"check": "reduced-conditioning", **rep.as_dict()})

    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, "bound_checks.json")
    with open(path, "w") as fh:
        json.dump(reports, fh, indent=2)
    satisfied = sum(r["satisfied"] for r in reports)
    print(f"{satisfied}/{len(reports)} bound checks satisfied; wrote {path}")
    return 0 if satisfied == len(reports) else 2


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": cmd_generate,
        "run": cmd_run,
        "output-error": cmd_output_error,
        "weight-study": cmd_weight_study,
        "verify-bounds": cmd_verify_bounds,
    }
    try:
        return handlers[args.command](args)
    except RecyklError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
