"""Benchmark protocol: method rosters, runners, and report writers.

A method is a name and a :class:`SolverConfig` (truncation shape, mode,
preconditioner, stage-2 tolerance factor).  Methods run over a shared
immutable sequence one after another, so each ``wall_ms`` measures its
solve alone.  A preconditioner belongs to its matrix: a roster builds
each kind it needs once per system before the first method runs, every
method of that kind shares the built M, and the roster keeps them all
alive until its last method ends (the SSOR factor of a 100x100 grid holds
about 0.68 MB, plus 0.08 MB for its diagonal: 15 MB for 20 systems).  The
per-system reports land in CSV/JSON files: one row per (method, system)
with the three cost metrics (``wall_ms`` leaves out the preconditioner
build, which no solve's clock holds) and the solve's outcome flags (the
``failure`` cause of a solve that did not converge, and whether its
truncation stopped at the numerical rank; ``reduced_condition`` only
under diagnostics), per-iteration residual histories, and per-method
averages.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import typing
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg

from .errors import RecyklError
from .pod import pod_evd_from_gram
from .problems import SystemSequence
from .threestage import (
    RecycleState,
    SolveReport,
    SolverConfig,
    build_preconditioners,
    run_sequence,
    solve_system,
    summarize_reports,
)
from .truncation import TruncationConfig
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
        # keys left out of the entry keep the SolverConfig defaults
        tr_raw = raw.get("truncation", {})
        _check_values(tr_raw, _TRUNCATION_KEYS, f"{name}: truncation")
        tols = raw.get("tolerances", {})
        _check_values(tols, _TOLERANCE_KEYS, f"{name}: tolerances")
        kw = {k: v for k, v in raw.items() if k not in ("name", "truncation", "tolerances")}
        return cls(name=name, config=SolverConfig(truncation=TruncationConfig(**tr_raw),
                                                  **kw, **tols))


# a config field's annotation gives its methods-file kind: the text that
# names it and the Python types json.load gives such a value (a boolean is
# an int to Python, but only "true or false" here)
_OBJECT = ("an object", (dict,))
_KINDS = {str: ("a string", (str,)), bool: ("true or false", (bool,)),
          float: ("a number", (int, float)),
          int | None: ("an integer or null", (int, type(None))), TruncationConfig: _OBJECT}


def _field_kinds(config: type) -> dict:
    """{field name: kind} of a config dataclass, read off its annotations."""
    hints = typing.get_type_hints(config)
    return {f.name: _KINDS[hints[f.name]] for f in dataclasses.fields(config)}


# the methods-file keys are the config fields: an entry holds SolverConfig's
# but eps_hat_factor, which sits in its "tolerances" object, and its
# "truncation" object holds TruncationConfig's
_ENTRY_KEYS = {"name": _KINDS[str], "tolerances": _OBJECT, **_field_kinds(SolverConfig)}
_TOLERANCE_KEYS = {"eps_hat_factor": _ENTRY_KEYS.pop("eps_hat_factor")}
_TRUNCATION_KEYS = _field_kinds(TruncationConfig)


def _check_values(raw: dict, known: dict, where: str) -> None:
    for key, value in raw.items():
        if key not in known:
            raise RecyklError(f"method spec {where}: unknown key {key!r}")
        kind, types = known[key]
        if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
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
    those columns to the stage-1 block.  On a budget under 12 they would
    keep all of them there, the same method as ``pod(k,0)``, so the roster
    leaves them out; a budget under 2 keeps no column and raises
    :class:`RecyklError`.  ``mode`` applies to the recycling methods only:
    the ``pcg`` baseline keeps no directions, so it runs plain PCG with the
    two-term recurrence whatever ``mode`` says.
    """
    if storage_cap < 2:
        raise RecyklError(f"the storage cap must be at least 2, got {storage_cap}")
    retained = storage_cap // 2

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
    ]
    strategies = {"pod": "pod-a-rbf"}
    if include_output_metric:
        strategies["pod-ctc"] = "pod-ctc-rbf"
    for prefix, strategy in strategies.items():
        methods.append(spec(f"{prefix}({retained},0)", strategy=strategy, **pod_kw))
        if retained > 5:
            methods += [
                spec(f"{prefix}(5,{retained - 5})", strategy=strategy, stage1_dim=5, **pod_kw),
                spec(f"{prefix}(5,{retained - 5})it", strategy=strategy, stage1_dim=5,
                     full_orth=True, **pod_kw),
            ]
    return methods


def load_methods_file(path) -> list[MethodSpec]:
    """The specs of a methods file; an unreadable or invalid file raises RecyklError.

    Each method names its own rows and summary key, so a name given twice
    is invalid.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise RecyklError(f"{path}: cannot read methods file ({exc.strerror})") from exc
    except json.JSONDecodeError as exc:
        raise RecyklError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from exc
    if not isinstance(raw, list) or not raw:
        raise RecyklError(f"{path}: methods file must hold a non-empty JSON list")
    specs = [MethodSpec.from_dict(entry) for entry in raw]
    names = [spec.name for spec in specs]
    for name in names:
        if names.count(name) > 1:
            raise RecyklError(f"{path}: method name {name!r} appears more than once")
    return specs


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
) -> list[MethodRun]:
    """Run every method over the shared sequence, one method after another.

    Each system is solved to its own ``tol``; a sweep over tolerances hands
    in a copy of the sequence with them replaced.  Serial, so each report's
    ``wall_time`` measures its solve alone.  Each preconditioner kind the
    methods name is built once per system before the first method runs,
    and every method of that kind is handed the same list; no solve's
    clock holds a build.
    ``threads`` must be 1; any other value raises :class:`RecyklError`.  The
    keyword remains only because perfbench still passes ``threads=1``.
    ``track_iterates`` records output checkpoints (C @ x), which needs the
    sequence's output matrix; ``keep_solutions`` keeps the solution vectors.
    """
    _check_serial(threads)
    preconds = {kind: build_preconditioners(seq, kind)
                for kind in dict.fromkeys(m.config.precond for m in methods)}
    runs = []
    for method in methods:
        sols, reports, _ = run_sequence(
            seq,
            method.config,
            preconds=preconds[method.config.precond],
            stop_on_failure=False,
            track_iterates=track_iterates,
        )
        runs.append(MethodRun(method=method, reports=reports,
                              solutions=sols if keep_solutions else None))
    return runs


CSV_FIELDS = (
    "method", "j", "matvecs", "precond_apps", "stage1_dim", "stage2_iters",
    "stage3_iters", "wall_ms", "final_residual", "converged", "failure", "stage2_converged",
    "rank_truncated", "reduced_condition",
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
    typically met before stage 3; a threshold no system met
    (``systems_met`` 0) has no average cost, so its averages are None.
    Each row also counts the method's solves that converged
    (``systems_converged``) out of ``systems``.  Every tau must be positive
    (infinity included); ``threads`` must be 1, as in :func:`run_methods`.
    """
    _check_serial(threads)
    bad = [tau for tau in taus if not tau > 0]
    if bad:
        raise RecyklError(f"output-error thresholds must be positive, got {bad[0]}")
    if seq.C is None:
        raise RecyklError("output-error runs need the sequence's output matrix")
    # the reference outputs C x*, one per system, shared by every method
    targets = [seq.C @ xstar for xstar in dense_solutions(seq)]
    runs = run_methods(seq, methods, track_iterates=True)
    rows = []
    for run in runs:
        per_tau = {tau: {"matvecs": [], "precond": [], "wall": [], "met": 0} for tau in taus}
        for r, target in zip(run.reports, targets):
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
            met = bucket["met"]
            rows.append({
                "method": run.method.name,
                "tau": tau,
                "avg_matvecs": float(np.sum(bucket["matvecs"])) / met if met else None,
                "avg_precond_apps": float(np.sum(bucket["precond"])) / met if met else None,
                "avg_wall_ms": 1e3 * float(np.sum(bucket["wall"])) / met if met else None,
                "systems_met": met,
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
    the stage-3 iteration count.  Every solve uses the ``fom`` recurrence,
    and each matrix's preconditioner is built once: every trial solve on
    the target shares its M.
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
    preconds = build_preconditioners(seq.systems[:warmup + 1], precond)
    for spec, M in zip(seq.systems[:warmup], preconds):
        _, report = solve_system(spec.A, spec.b, spec.xbar, state, spec.tol, cfg, M)
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

    # Z'AZ does not depend on the weights: formed once for every scheme
    gram = Z.T @ (A_last.to_scipy() @ Z)
    rows = []
    for scheme, gamma in weight_vectors.items():
        pod = pod_evd_from_gram(gram, Z, gamma, eps=1.0)
        for k in dims:
            k_eff = min(k, pod.y)
            basis = Z @ pod.coef[:, :k_eff]
            trial = RecycleState(Y=basis, systems_seen=warmup)
            _, report = solve_system(target.A, target.b, target.xbar, trial, target.tol, cfg,
                                     preconds[warmup])
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
