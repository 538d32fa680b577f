"""Benchmark of recykl, from sequence manifest to report files.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload roster-ssor --seed 1 --seconds 20 --trace 0

Without ``--workload`` it runs all three workloads in turn, each ending with
its own result line.

The workload's inputs are generated from ``--seed`` and written as a
manifest once, before any timing.  Timed passes then run one after another
(a closed loop with one client) until their summed time reaches
``--seconds``.  Each pass runs in a fresh interpreter pinned to one BLAS
thread, which first runs an untimed warm-up pass at smoke size.  With
``--trace 1`` traced passes alternate with untraced ones and the per-layer
ledger is reported instead of the end-to-end metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The exit code is 0 after a measurement, 1 when the program or the fixture
pre-flight fails, and 2 on a usage error.  README.md documents the metrics.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BUDGET_S = 165.0  # an invocation starts no pass that could end past this
# timed passes per run at least (with --trace 1: rounds of one untraced and
# one traced pass), whatever --seconds says
MIN_ROUNDS = {0: 3, 1: 2}

E2E_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "solves_per_s": "1/s",
    "matvecs_per_solve": "count",
    "precond_per_solve": "count",
    "failed_frac": "ratio",
    "peak_rss_mb": "MB",
}
# failed_frac and precond_per_solve read 0 on some workloads, so the result
# line carries them as failed/attempted and as a per-layer metric
RESULT_E2E = ("run_s", "setup_s", "solves_per_s", "matvecs_per_solve", "peak_rss_mb")


class PreflightError(Exception):
    pass


def layer_unit(name: str) -> str:
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith(("_mb", "_mb_computed")):
        return "MB"
    if name.endswith(("_frac", "coverage", "_per_matrix")):
        return "ratio"
    return "count"


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all",
                        help="one workload, or all of them in turn (default)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test size (10x10 grid, 3 systems); not a measurement")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def pin_threads() -> None:
    if "numpy" in sys.modules:
        raise SystemExit("error: numpy was imported before BLAS threads could be pinned")
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_program():
    """Import recykl from this checkout's src/, or fail."""
    if not os.path.isfile(os.path.join(SRC, "recykl", "__init__.py")):
        raise PreflightError(f"no recykl sources under {SRC}")
    sys.path.insert(0, SRC)
    import recykl

    if not os.path.abspath(recykl.__file__).startswith(SRC + os.sep):
        raise PreflightError(f"imported recykl from {recykl.__file__}, not from {SRC}")


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        **{var: os.environ.get(var) for var in THREAD_VARS},
    }


def preflight_fixtures() -> list[str]:
    """Replay every frozen fixture case read-only; raise on any mismatch."""
    from recykl.fixtures import verify_fixture

    verified = []
    for path in sorted(glob.glob(os.path.join(ROOT, "tests", "fixtures", "*.json"))):
        with open(path) as fh:
            if "case" not in json.load(fh):
                continue  # the calibration record holds thresholds, not a case
        mismatches = verify_fixture(path)
        if mismatches:
            raise PreflightError(f"fixture {path} does not reproduce: {mismatches}")
        verified.append(os.path.basename(path))
    if not verified:
        raise PreflightError("no fixture case found under tests/fixtures")
    return verified


def prepare_inputs(wl, seed: int, out_dir: str) -> str:
    """Generate the workload's sequence from the seed and write its manifest."""
    from recykl import problems

    shutil.rmtree(out_dir, ignore_errors=True)
    seq = problems.gen_diffusion_sequence(
        wl.grid, wl.systems, wl.delta, seed=seed, tol=wl.tol, load_scale=wl.load_scale
    )
    if wl.outputs:
        seq.C = problems.gen_output_matrix(wl.outputs, seq.n, seed + 1)
    return problems.write_sequence(seq, out_dir)


# -- child side ---------------------------------------------------------------


def child_main(spec: dict) -> dict:
    """Run one pass (or the check pass) in this fresh interpreter."""
    import passes
    from workloads import WORKLOADS, tiny

    wl = WORKLOADS[spec["workload"]]
    if spec["tiny"]:
        wl = tiny(wl)
    if spec["kind"] == "check":
        return passes.check_pass(wl, spec["manifest"])
    # first calls of every code path, at smoke size, before the clock starts
    passes.run_pass(tiny(wl), spec["warm_manifest"], spec["out_dir"] + "-warm")
    if spec["kind"] == "pass":
        return passes.run_pass(wl, spec["manifest"], spec["out_dir"])
    import ledger

    tracer = ledger.Tracer(spec["pass_id"])
    tracer.install()
    try:
        out = passes.run_pass(wl, spec["manifest"], spec["out_dir"])
    finally:
        tracer.remove()
    tracer.write(spec["spans_path"])
    out["layers"] = ledger.layer_metrics(tracer.spans, out["run_s"], out["solves"])
    return out


# -- parent side --------------------------------------------------------------


class Runner:
    """Starts passes in child interpreters and collects their records."""

    def __init__(self, args, wl, work: str, start: float):
        from passes import solves_per_pass

        self.args, self.wl, self.work = args, wl, work
        self.start = start
        self.solves_per_pass = solves_per_pass(wl)
        self.longest = 0.0
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=SRC)

    def time_left(self) -> float:
        return BUDGET_S - (time.perf_counter() - self.start)

    def can_run(self) -> bool:
        return self.time_left() > 1.5 * self.longest

    def child(self, kind: str, manifest: str, warm_manifest: str) -> dict:
        self.count += 1
        pass_id = f"{self.wl.name}-s{self.args.seed}-p{self.count}"
        spec = {
            "kind": kind, "workload": self.wl.name, "tiny": self.args.tiny,
            "manifest": manifest, "warm_manifest": warm_manifest,
            "out_dir": os.path.join(self.work, "reports"), "pass_id": pass_id,
            "spans_path": os.path.join(self.work, f"spans-{pass_id}.jsonl"),
        }
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--child", json.dumps(spec)],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=max(1.0, self.time_left()),
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
            record = json.loads(lines[-1])
        except (subprocess.TimeoutExpired, RuntimeError, ValueError) as exc:
            print(f"{pass_id} {kind}: child failed: {exc}", file=sys.stderr)
            record = {"error": str(exc), "failed": self.solves_per_pass,
                      "solves": self.solves_per_pass, "counters": None,
                      "reports_ok": False}
        self.longest = max(self.longest, time.perf_counter() - t0)
        record["id"], record["kind"], record["seq"] = pass_id, kind, self.count
        return record


def median(values):
    return statistics.median(values) if values else 0.0


def measure(args, wl, work: str, start: float) -> dict:
    runner = Runner(args, wl, work, start)
    manifest = prepare_inputs(wl, args.seed, os.path.join(work, "input"))
    from workloads import tiny

    warm_manifest = prepare_inputs(tiny(wl), args.seed, os.path.join(work, "input-warm"))
    check = runner.child("check", manifest, warm_manifest) if wl.output_error else None

    timed, traced = [], []
    kinds = ("pass", "traced") if args.trace else ("pass",)
    while True:
        for kind in kinds:
            (timed if kind == "pass" else traced).append(
                runner.child(kind, manifest, warm_manifest))
        measured = sum(p.get("run_s", 0.0) for p in timed + traced)
        crashed = not any("run_s" in p for p in timed)  # no point in retrying
        enough = len(timed) >= MIN_ROUNDS[args.trace] and (measured >= args.seconds or crashed)
        if enough or not runner.can_run():
            break
    if not enough:
        print(f"note: stopped after {measured:.1f} s of passes to end within {BUDGET_S:.0f} s",
              file=sys.stderr)

    if check is not None:  # output-error failures come from the residual check pass
        for p in timed + traced:
            if p.get("counters") is not None:
                p["failed"] = check["failed"] if check.get("counters") else p["solves"]
    return {"check": check, "timed": timed, "traced": traced,
            "solves_per_pass": runner.solves_per_pass}


def summarize(args, wl, run: dict) -> tuple[dict, dict]:
    """End-to-end (or per-layer) metrics and the bookkeeping of the result line."""
    check, timed, traced = run["check"], run["timed"], run["traced"]
    measured = timed + traced
    problems = []
    ok = [p for p in measured if p.get("counters") is not None]
    if not ok:
        problems.append("no pass finished, nothing could be checked")
    for p in ok:
        if p["counters"] != ok[0]["counters"]:
            problems.append(f"{p['id']}: counters differ from the first pass")
        if not p["reports_ok"]:
            problems.append(f"{p['id']}: written reports do not match the run")
    attempted = sum(p["solves"] for p in measured)
    failed = sum(p["failed"] for p in measured)

    counter_source = check if wl.output_error else (ok[0] if ok else None)
    counters = (counter_source or {}).get("counters") or {}
    solves = (counter_source or {}).get("solves") or 1
    timed_ok = [p for p in timed if "run_s" in p]
    e2e = {
        "run_s": median([p["run_s"] for p in timed_ok]),
        "setup_s": median([p["setup_s"] for p in timed_ok]),
        "solves_per_s": median([(p["solves"] - p["failed"]) / p["roster_s"] for p in timed_ok]),
        "matvecs_per_solve": counters.get("matvecs", 0) / solves,
        "precond_per_solve": counters.get("precond_applies", 0) / solves,
        "failed_frac": failed / attempted if attempted else 1.0,
        "peak_rss_mb": median([p["peak_rss_mb"] for p in timed_ok]),
    }
    layers = {}
    if args.trace:
        from ledger import COVERAGE_SLACK

        done = [p for p in traced if "layers" in p]
        names = list(done[0]["layers"]) if done else []
        layers = {n: median([p["layers"][n] for p in done]) for n in names}
        traced_run = median([p["run_s"] for p in done])
        layers["trace.overhead_frac"] = traced_run / e2e["run_s"] - 1.0 if e2e["run_s"] else 0.0
        for p in done:
            cov = p["layers"]["trace.coverage"]
            if not 1.0 - COVERAGE_SLACK <= cov <= 1.0 + 1e-9:
                problems.append(f"{p['id']}: trace coverage {cov:.4f} outside the slack")
            exact = (p["layers"]["krylov.iterations"], p["layers"]["preconditioners.apply_count"])
            if exact != (done[0]["layers"]["krylov.iterations"],
                         done[0]["layers"]["preconditioners.apply_count"]):
                problems.append(f"{p['id']}: traced counters differ from the first traced pass")
            if counters and p["layers"]["preconditioners.apply_count"] != \
                    counters["precond_applies"]:
                problems.append(f"{p['id']}: traced precond count differs from the reports")
        if not done:
            problems.append("no traced pass finished")
    book = {"attempted": attempted, "failed": failed, "problems": problems,
            "passes": len(timed_ok), "traced_passes": len(traced)}
    return {"e2e": e2e, "layers": layers}, book


def report(args, wl, env, fixtures, run, metrics, book, work) -> dict:
    print(f"env {json.dumps(env)}")
    print(f"fixtures verified: {', '.join(fixtures)}")
    for p in sorted(run["timed"] + run["traced"], key=lambda p: p["seq"]):
        if "run_s" in p:
            print(f"{p['id']} {p['kind']:>6}: run {p['run_s']:.3f} s  setup {p['setup_s']:.3f} s"
                  f"  roster {p['roster_s']:.3f} s  write {p['write_s']:.3f} s"
                  f"  peak {p['peak_rss_mb']:.1f} MB  failed {p['failed']}/{p['solves']}")
        else:
            print(f"{p['id']} {p['kind']:>6}: error {p.get('error')}")
    print(f"{wl.name}: {book['passes']} timed passes (medians), "
          f"{run['solves_per_pass']} solves per pass, {book['failed']}/{book['attempted']} failed")
    for name, value in metrics["e2e"].items():
        print(f"  {name:<20} {value:>14.6g} {E2E_UNITS[name]}")
    for name, value in metrics["layers"].items():
        print(f"  {name:<40} {value:>14.6g} {layer_unit(name)}")
    for problem in book["problems"]:
        print(f"problem: {problem}")
    if args.trace:
        chosen = {n: (v, layer_unit(n)) for n, v in metrics["layers"].items()}
    else:
        chosen = {n: (metrics["e2e"][n], E2E_UNITS[n]) for n in RESULT_E2E}
    result = {
        "correct": not book["problems"],
        "attempted": book["attempted"],
        "failed": book["failed"],
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in chosen.items()},
    }
    with open(os.path.join(work, f"result-s{args.seed}-t{args.trace}.json"), "w") as fh:
        json.dump({"workload": wl.name, "seed": args.seed, "env": env, "fixtures": fixtures,
                   "metrics": metrics, "book": book, "passes": run}, fh, indent=1)
    return result


def main(argv=None) -> int:
    start = time.perf_counter()
    pin_threads()
    args = parse_args(argv)
    try:
        import_program()
        if args.child is not None:
            print(json.dumps(child_main(json.loads(args.child))))
            return 0
        env = environment()
        fixtures = preflight_fixtures()
    except PreflightError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    from workloads import WORKLOADS, tiny

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        wl = tiny(WORKLOADS[name]) if args.tiny else WORKLOADS[name]
        work = os.path.join(HERE, "out", wl.name + ("-tiny" if args.tiny else ""))
        os.makedirs(work, exist_ok=True)
        try:
            run = measure(args, wl, work, start)
        finally:
            for sub in ("input", "input-warm"):
                shutil.rmtree(os.path.join(work, sub), ignore_errors=True)
        metrics, book = summarize(args, wl, run)
        result = report(args, wl, env, fixtures, run, metrics, book, work)
        print(json.dumps(result))
        start = time.perf_counter()  # each workload gets the whole time budget
    return 0


if __name__ == "__main__":
    sys.exit(main())
