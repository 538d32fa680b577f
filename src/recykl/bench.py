"""Benchmark protocol: method rosters, runners, and report writers.

A method is a name and a :class:`SolverConfig` (truncation shape, mode,
preconditioner, stage-2 tolerance factor).  Methods run over a shared
immutable sequence one after another, so each ``wall_ms`` measures its
solve alone, and their per-system reports land in CSV/JSON files: one row
per (method, system) with the three cost metrics (``wall_ms`` includes the
preconditioner build) and the solve's outcome flags (the ``failure`` cause
of a solve that did not converge, and whether its truncation stopped at
the numerical rank; ``reduced_condition`` only under diagnostics),
per-iteration residual histories, and per-method averages.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg

from .errors import RecyklError
from .pod import pod_evd
from .problems import SystemSequence
from .threestage import (
    RecycleState,
    SolveReport,
    SolverConfig,
    run_sequence,
    solve_system,
    summarize_reports,
)
from .truncation import TruncationConfig, parse_strategy
from .weights import weights_ideal, weights_previous, weights_rbf

TOL_SWEEP = tuple(10.0 ** (-k) for k in range(1, 7))
WEIGHT_SCHEMES = ("ideal", "prev", "rbf")


@dataclass
class MethodSpec:
    """Named solver configuration for a benchmark run."""

    name: str
    config: SolverConfig

    @classmethod
    def from_dict(cls, raw: dict) -> "MethodSpec":
        """One methods-file entry; its ``precond`` and ``tolerances`` go into the config.

        An entry, ``truncation`` or ``tolerances`` that is not a JSON object,
        a key it does not know, or a value of the wrong JSON type raises
        :class:`RecyklError` naming it.
        """
        if not isinstance(raw, dict):
            raise RecyklError(f"method spec {raw!r} must be a JSON object")
        try:
            name = raw["name"]
        except KeyError as exc:
            raise RecyklError("method spec needs a 'name'") from exc
        _check_values(raw, _ENTRY_KEYS, name)
        tr_raw = dict(raw.get("truncation", {}))
        # keys left out of the entry keep the SolverConfig defaults
        if "storage_cap" in tr_raw and tr_raw["storage_cap"] in ("inf", None):
            tr_raw["storage_cap"] = math.inf
        _check_values(tr_raw, _TRUNCATION_KEYS, f"{name}: truncation")
        if "strategy" in tr_raw:
            tr_raw.update(parse_strategy(tr_raw.pop("strategy")))
        tols = raw.get("tolerances", {})
        _check_values(tols, _TOLERANCE_KEYS, f"{name}: tolerances")
        kw = {k: raw[k] for k in _SOLVER_KEYS if k in raw}
        kw.update(tols)
        return cls(name=name, config=SolverConfig(truncation=TruncationConfig(**tr_raw), **kw))


# the JSON type each methods-file key takes, by the Python types json.load
# gives it; a boolean is an int to Python but only "true or false" here
_JSON_TYPES = {
    "a string": (str,),
    "true or false": (bool,),
    "a number": (int, float),
    "an integer or null": (int, type(None)),
    "an object": (dict,),
}
_SOLVER_KEYS = {"mode": "a string", "precond": "a string", "recycle": "true or false",
                "diagnostics": "true or false", "max_iter": "an integer or null"}
_ENTRY_KEYS = {"name": "a string", "truncation": "an object", "tolerances": "an object",
               **_SOLVER_KEYS}
_TOLERANCE_KEYS = {"eps_hat_factor": "a number"}
_TRUNCATION_KEYS = {"strategy": "a string", "nu_y": "a number", "nu_w": "a number",
                    "storage_cap": "a number", "full_orth": "true or false",
                    "deflate_dim": "an integer or null", "max_dim": "an integer or null",
                    "stage1_dim": "an integer or null"}


def _check_values(raw: dict, known: dict, where: str) -> None:
    for key, value in raw.items():
        if key not in known:
            raise RecyklError(f"method spec {where}: unknown key {key!r}")
        kind = known[key]
        if not isinstance(value, _JSON_TYPES[kind]) or (
                isinstance(value, bool) and kind != "true or false"):
            raise RecyklError(f"method spec {where}: {key!r} must be {kind}, "
                              f"got {json.dumps(value)}")


def default_methods(
    storage_cap: int = 50,
    precond: str = "identity",
    mode: str = "fom",
    include_output_metric: bool = False,
) -> list[MethodSpec]:
    """The standard comparison roster at a given storage budget.

    Truncation keeps half the budget, and the split methods give five of
    those columns (fewer on a budget under ten) to the stage-1 block.
    ``mode`` applies to the recycling methods only: the ``pcg`` baseline
    keeps no directions, so it runs plain PCG with the two-term recurrence
    whatever ``mode`` says.
    """
    retained = storage_cap // 2
    small = min(5, retained)

    def spec(name, **tr):
        recycle = tr.pop("recycle", True)
        return MethodSpec(
            name=name,
            config=SolverConfig(
                truncation=TruncationConfig(**tr), mode=mode, precond=precond,
                recycle=recycle,
            ),
        )

    pod_kw = dict(nu_y=1.0, nu_w=1.0, storage_cap=storage_cap, max_dim=retained)
    methods = [
        spec("pcg", recycle=False),
        spec("no-trunc", strategy="none", storage_cap=math.inf),
        spec(f"df({retained},0)", strategy="deflate", deflate_dim=retained,
             storage_cap=storage_cap),
        spec(f"pod({retained},0)", strategy="pod-a-rbf", **pod_kw),
        spec(f"pod({small},{retained - small})", strategy="pod-a-rbf",
             stage1_dim=small, **pod_kw),
        spec(f"pod({small},{retained - small})it", strategy="pod-a-rbf",
             stage1_dim=small, full_orth=True, **pod_kw),
    ]
    if include_output_metric:
        methods += [
            spec(f"pod-ctc({retained},0)", strategy="pod-ctc-rbf", **pod_kw),
            spec(f"pod-ctc({small},{retained - small})", strategy="pod-ctc-rbf",
                 stage1_dim=small, **pod_kw),
            spec(f"pod-ctc({small},{retained - small})it", strategy="pod-ctc-rbf",
                 stage1_dim=small, full_orth=True, **pod_kw),
        ]
    return methods


def load_methods_file(path) -> list[MethodSpec]:
    """The specs of a methods file; an unreadable or invalid file raises RecyklError."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise RecyklError(f"{path}: cannot read methods file ({exc.strerror})") from exc
    except json.JSONDecodeError as exc:
        raise RecyklError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from exc
    if not isinstance(raw, list):
        raise RecyklError(f"{path}: methods file must hold a JSON list")
    return [MethodSpec.from_dict(entry) for entry in raw]


@dataclass
class MethodRun:
    method: MethodSpec
    reports: list[SolveReport]
    solutions: list[np.ndarray] | None = None

    @property
    def summary(self) -> dict:
        return summarize_reports(self.reports)


def _check_serial(threads: int) -> None:
    if threads != 1:
        raise RecyklError(f"methods run one after another; threads must be 1, got {threads!r}")


def run_methods(
    seq: SystemSequence,
    methods: list[MethodSpec],
    *,
    threads: int = 1,
    keep_solutions: bool = False,
    track_iterates: bool = False,
    tol_override: float | None = None,
) -> list[MethodRun]:
    """Run every method over the shared sequence, one method after another.

    Serial, so each report's ``wall_time`` measures its solve alone.
    ``threads`` must be 1; any other value raises :class:`RecyklError`.  The
    keyword remains only because perfbench still passes ``threads=1``.
    ``track_iterates`` records output checkpoints (C @ x), which needs the
    sequence's output matrix; ``keep_solutions`` keeps the solution vectors.
    """
    _check_serial(threads)
    seq_used = seq
    if tol_override is not None:
        from .problems import LinearSystemSpec

        seq_used = SystemSequence(
            n=seq.n,
            systems=[
                LinearSystemSpec(s.A, s.b, s.xbar, tol_override) for s in seq.systems
            ],
            C=seq.C,
            metadata=seq.metadata,
        )
    runs = []
    for method in methods:
        sols, reports, _ = run_sequence(
            seq_used,
            method.config,
            stop_on_failure=False,
            track_iterates=track_iterates,
        )
        runs.append(MethodRun(method=method, reports=reports,
                              solutions=sols if keep_solutions else None))
    return runs


CSV_FIELDS = (
    "method", "j", "matvecs", "precond_apps", "stage1_dim", "stage2_iters",
    "stage3_iters", "wall_ms", "final_residual", "converged", "failure", "stage2_converged",
    "stage1_fallback", "rank_truncated", "reduced_condition",
)


def write_run_outputs(runs: list[MethodRun], out_dir, label: str = "run") -> dict:
    """Write per-system CSV, residual histories, and a JSON summary."""
    os.makedirs(out_dir, exist_ok=True)
    rows_path = os.path.join(out_dir, f"{label}_systems.csv")
    with open(rows_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
        writer.writeheader()
        for run in runs:
            for r in run.reports:
                writer.writerow({
                    "method": run.method.name,
                    "j": r.j,
                    "matvecs": r.matvecs,
                    "precond_apps": r.precond_applies,
                    "stage1_dim": r.stage1_dim,
                    "stage2_iters": r.stage2_iters,
                    "stage3_iters": r.stage3_iters,
                    "wall_ms": round(1e3 * r.wall_time, 3),
                    "final_residual": r.final_residual,
                    "converged": r.converged,
                    "failure": r.failure or "",
                    "stage2_converged": r.stage2_converged,
                    "stage1_fallback": r.stage1_fallback,
                    "rank_truncated": r.rank_truncated,
                    # computed only under diagnostics: blank otherwise
                    "reduced_condition": "" if r.reduced_condition is None
                    else r.reduced_condition,
                })
    hist_path = os.path.join(out_dir, f"{label}_residuals.csv")
    with open(hist_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "j", "k", "residual"])
        for run in runs:
            for r in run.reports:
                if r.residual_history is None:
                    continue
                for k, val in enumerate(r.residual_history):
                    writer.writerow([run.method.name, r.j, k, val])
    summary = {run.method.name: run.summary for run in runs}
    summary_path = os.path.join(out_dir, f"{label}_summary.json")
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return {"systems": rows_path, "residuals": hist_path, "summary": summary_path}


# ---------------------------------------------------------------------------
# output-oriented error tracking


def dense_solutions(seq: SystemSequence) -> list[np.ndarray]:
    """Reference solutions x* = A^{-1} b, one sparse LU per system.

    A is SPD, so the factorization orders symmetrically (minimum degree on
    A' + A) and pivots on the diagonal without a threshold.
    """
    return [
        scipy.sparse.linalg.splu(
            s.A.to_scipy().tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        ).solve(s.b)
        for s in seq.systems
    ]


def output_error_run(
    seq: SystemSequence,
    methods: list[MethodSpec],
    taus,
    *,
    threads: int = 1,
) -> list[dict]:
    """Average cost for the output-norm error to first fall below each tau.

    The output error ||C x* - C x||_2 is evaluated at every checkpoint the
    staged solver passes (start, after stage 1, after stage 2, and each
    stage-3 iterate), from the output C x the checkpoint holds; per tau the
    first checkpoint meeting it is charged.
    Averages below one preconditioner application mean the threshold was
    typically met before stage 3.  Each row also counts the method's
    solves that converged (``systems_converged``) out of ``systems``.
    ``threads`` must be 1, as in :func:`run_methods`.
    """
    _check_serial(threads)
    if seq.C is None:
        raise RecyklError("output-error runs need the sequence's output matrix")
    xstars = dense_solutions(seq)
    runs = run_methods(seq, methods, track_iterates=True)
    rows = []
    for run in runs:
        per_tau = {tau: {"matvecs": [], "precond": [], "wall": [], "met": 0} for tau in taus}
        for r, xstar in zip(run.reports, xstars):
            target = seq.C @ xstar
            errs = [(cp, float(np.linalg.norm(target - cp.output))) for cp in r.checkpoints]
            for tau in taus:
                hit = next((cp for cp, e in errs if e < tau), None)
                if hit is not None:
                    per_tau[tau]["matvecs"].append(hit.matvecs)
                    per_tau[tau]["precond"].append(hit.precond_applies)
                    per_tau[tau]["wall"].append(hit.wall_time)
                    per_tau[tau]["met"] += 1
        for tau in taus:
            bucket = per_tau[tau]
            count = max(1, len(bucket["matvecs"]))
            rows.append({
                "method": run.method.name,
                "tau": tau,
                "avg_matvecs": float(np.sum(bucket["matvecs"])) / count,
                "avg_precond_apps": float(np.sum(bucket["precond"])) / count,
                "avg_wall_ms": 1e3 * float(np.sum(bucket["wall"])) / count,
                "systems_met": bucket["met"],
                "systems_converged": sum(r.converged for r in run.reports),
                "systems": len(run.reports),
            })
    return rows


# ---------------------------------------------------------------------------
# weight-scheme study


def weight_study(
    seq: SystemSequence,
    *,
    dims=None,
    warmup: int = 10,
    precond: str = "identity",
    schemes=WEIGHT_SCHEMES,
) -> list[dict]:
    """Compare weight schemes by truncating after a warmup stretch.

    The first ``warmup`` systems accumulate directions without truncation;
    the accumulated block is then POD-truncated in the metric of the last
    solved matrix to each dimension in ``dims``, and the following system is
    solved from that basis: recorded are the residual after stages 1-2 and
    the stage-3 iteration count.  Every solve uses the ``fom`` recurrence.
    ``warmup`` and each entry of ``dims`` must be at least 1, and every
    scheme one of :data:`WEIGHT_SCHEMES`; all three are checked before any
    solve.
    """
    unknown = [scheme for scheme in schemes if scheme not in WEIGHT_SCHEMES]
    if unknown:
        raise RecyklError(f"unknown scheme {unknown[0]!r}")
    if warmup < 1:
        raise RecyklError(f"weight study needs warmup >= 1, got {warmup}")
    if dims is not None and any(k < 1 for k in dims):
        raise RecyklError(f"weight study dims must be >= 1, got {list(dims)}")
    if seq.p < warmup + 1:
        raise RecyklError("weight study needs at least warmup+1 systems")
    cfg = SolverConfig(truncation=TruncationConfig(strategy="none", nu_w=1.0), precond=precond)
    state = RecycleState.empty(seq.n)
    for spec in seq.systems[:warmup]:
        _, report = solve_system(spec.A, spec.b, spec.xbar, state, spec.tol, cfg)
        if not report.converged:
            raise RecyklError(f"warmup system {report.j} did not converge")
    Z = state.Y
    A_last = seq.systems[warmup - 1].A
    target = seq.systems[warmup]
    if dims is None:
        top = min(Z.shape[1], 40)
        dims = list(range(2, top + 1, max(1, top // 12)))

    weight_vectors = {}
    for scheme in schemes:
        if scheme == "ideal":
            weight_vectors[scheme] = weights_ideal(Z, target.A, target.b, target.xbar)
        elif scheme == "prev":
            weight_vectors[scheme] = weights_previous(state.history)
        else:
            weight_vectors[scheme] = weights_rbf(state.history, len(state.history))

    rows = []
    for scheme, gamma in weight_vectors.items():
        pod = pod_evd(Z, gamma, A_last, eps=1.0)
        for k in dims:
            k_eff = min(k, pod.columns.shape[1])
            basis = pod.columns[:, :k_eff]
            trial = RecycleState(n=seq.n, Y=basis, systems_seen=warmup)
            _, report = solve_system(target.A, target.b, target.xbar, trial, target.tol, cfg)
            rows.append({
                "scheme": scheme,
                "dim": k_eff,
                "stage2_residual": float(report.residual_history[0]),
                "stage3_iters": report.stage3_iters,
            })
    return rows


def write_rows_csv(rows: list[dict], path) -> None:
    if not rows:
        raise RecyklError("nothing to write")
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
