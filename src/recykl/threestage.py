"""Hybrid direct/iterative solver for sequences of SPD systems.

Each system is attacked in three stages over the recycled basis Y carried
across the sequence, which :func:`solve_system` runs in turn:

1. a direct Galerkin solve over the stage-1 block W (a few columns of Y
   expected to capture most of the solution), factored once and reused
   (:func:`~recykl.krylov.direct_reduced_solve`);
2. :func:`_stage2`: the products AY and G = Y'AY, formed once (A W is
   reused; the other columns of Y take one matvec each), and, when Y is
   wider than W, one nested run of unpreconditioned augmented CG on G
   (:func:`_nested_run`) from the stage-1 solution, augmented with W.  It
   picks the block stage 3 keeps new directions A-orthogonal to: W, or
   Y C = [W, Y V] for the run's coefficients C = [E, V], or, under
   ``full_orth``, all of Y (:class:`InnerIterativeProjection`);
3. :func:`_stage3`: one full-space augmented PCG run to the forcing
   tolerance from the start, block and projection stage 2 picked.

Without a basis (the first system, or ``recycle=False``) stages 1 and 2
are skipped and stage 3 is plain PCG.  Each projection backsolves the
Cholesky factor of its block's whole Gram matrix (W'AW, G or C'GC, read
off G), so no block need be A-orthonormal.  Every one of them is
:func:`~recykl.linalg.gram_cholesky`'s: a basis with dependent columns (a
repeated column, or more columns than A has rows) is factored over its
independent columns and the others get zero coefficients, so Y and the
weight history keep their widths.  Every Krylov run says how it ended on
its result's ``failure``, never by an exception.  A nested run that broke
down contributes nothing: stage 3 runs from the stage-1 solution over W
alone.  A broken stage 3 returns its start and adds nothing to the state.

After the solve, :func:`update_basis` appends the new search directions to
Y at unit A-norm (a ``cg`` run's without those past the numerical rank of
V'AV), and they join the stage-1 block, always the trailing columns
``Y[:, stage1_start:]``; past the storage cap the block is compressed by
:func:`~recykl.truncation.compress`, the one reader of the strategy,
which is handed the products AZ as the two column blocks the solve holds
(AY and the stage-3 products), so truncation costs no matvec.  The
retained basis is stored with its stage-1 prefix moved to the tail.

A method is one :class:`SolverConfig`.  The preconditioner belongs to the
matrix: :func:`build_preconditioners` builds one per system, so a roster
of methods can share them, and :func:`solve_system` is handed the built
``M``.  :func:`solve_system` counts the state's ``systems_seen``, and
:func:`update_basis` alone writes its Y, ``stage1_start`` and history.

Blocks pass between the stages without copies where the layout allows,
and each lives only as long as a stage reads it: AY outlives stage 3 only
for a truncation.  Checkpoint outputs C x are formed after the clock stops.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import preconditioners
from .errors import DimensionMismatch, RecyklError
from .krylov import (
    AugmentedPcgResult,
    DirectReducedProjection,
    ReducedSpdOperator,
    augmented_pcg,
    direct_reduced_solve,
    stack_blocks,
)
from .linalg import (
    InstrumentationSink,
    SparseSpdMatrix,
    gram_cholesky,
    pivoted_cholesky,
    spmv,
    symmetric_evd,
)
from .truncation import TruncationConfig, TruncationOutcome, compress
from .weights import WeightHistory


@dataclass
class SolverConfig:
    """A method: truncation shape, recurrence mode, preconditioner, tolerances.

    ``mode`` is the recurrence of every Krylov run that keeps its
    directions: ``fom`` re-orthogonalizes each new direction against all
    earlier ones, ``cg`` runs the two-term recurrence.  With
    ``recycle=False`` no run keeps its directions, so stage 3 is plain PCG
    with the two-term recurrence whatever ``mode`` says.

    ``precond`` is ``identity`` (no preconditioner), ``jacobi``, ``ssor`` or
    ``ssor:<omega>``, checked when the config is made.  For a system with
    forcing tolerance eps, stage 2 iterates to eps_hat = eps_hat_factor *
    eps, a positive finite factor; the ``full_orth`` projections are direct
    and take no tolerance.
    ``max_iter``, at least 1 when set, caps the iterations of stage 3
    (default: n).
    """

    truncation: TruncationConfig = field(default_factory=TruncationConfig)
    mode: str = "fom"
    precond: str = "identity"
    eps_hat_factor: float = 1e-4
    recycle: bool = True
    diagnostics: bool = False
    max_iter: int | None = None

    def __post_init__(self):
        if self.mode not in ("cg", "fom"):
            raise RecyklError(f"unknown mode {self.mode!r}; expected 'cg' or 'fom'")
        if self.precond != "identity":
            preconditioners.parse_kind(self.precond)
        if self.max_iter is not None and self.max_iter < 1:
            raise RecyklError(f"max_iter must be at least 1, got {self.max_iter}")
        value = self.eps_hat_factor
        if not (math.isfinite(value) and value > 0):
            raise RecyklError(f"eps_hat_factor must be a positive finite number, got {value}")


@dataclass
class RecycleState:
    """Durable solver state carried from one system to the next.

    A Y that is not a finite 2-D array, or a ``stage1_start`` outside 0 .. its
    width, raises ``DimensionMismatch``; the solver replaces Y unchecked.
    """

    Y: np.ndarray
    stage1_start: int = 0  # the stage-1 block is Y[:, stage1_start:]
    systems_seen: int = 0
    history: WeightHistory = field(default_factory=WeightHistory)

    def __post_init__(self):
        if not (isinstance(self.Y, np.ndarray) and self.Y.ndim == 2 and np.isfinite(self.Y).all()):
            raise DimensionMismatch("the recycled basis must be a finite 2-D array")
        if not 0 <= self.stage1_start <= self.basis_dim:
            raise DimensionMismatch(f"stage1_start {self.stage1_start} not in 0..{self.basis_dim}")

    @classmethod
    def empty(cls, n: int) -> "RecycleState":
        return cls(Y=np.zeros((n, 0)))

    @property
    def n(self) -> int:
        return self.Y.shape[0]

    @property
    def basis_dim(self) -> int:
        return self.Y.shape[1]


@dataclass
class Checkpoint:
    stage: str
    iteration: int
    matvecs: int
    precond_applies: int
    wall_time: float  # since the solve started
    output: np.ndarray  # C @ x of the iterate, formed after the solve


@dataclass
class SolveReport:
    j: int
    matvecs: int = 0
    precond_applies: int = 0
    reorth_sweeps: int = 0  # fom's block Gram-Schmidt sweeps in full-space runs
    stage1_dim: int = 0
    stage2_iters: int = 0
    stage3_iters: int = 0
    wall_time: float = 0.0
    residual_history: np.ndarray | None = None
    stage2_residual_history: np.ndarray | None = None
    truncated: bool = False
    stage2_converged: bool = True
    failure: str | None = None  # why a solve did not converge: "budget", "breakdown", "nonfinite"
    rank_truncated: bool = False  # truncation stopped at the numerical rank of the block
    reduced_condition: float | None = None
    checkpoints: list[Checkpoint] | None = None

    @property
    def converged(self) -> bool:
        return self.failure is None

    @property
    def final_residual(self) -> float:
        """The last stage-3 residual norm; NaN before the solve has run."""
        if self.residual_history is None:
            return float("nan")
        return float(self.residual_history[-1])


@dataclass
class SystemTrace:
    """Per-system record of the internal bases, for verification harnesses.

    ``Y_entry`` and ``stage1_start`` are the state's on entry, and
    ``stage3_basis`` stage 3's augmenting block.  The arrays are the
    solver's own, shared, not copied, and read-only by contract.
    """

    j: int
    A: SparseSpdMatrix
    b: np.ndarray
    xbar: np.ndarray | None
    eps: float
    Y_entry: np.ndarray
    stage1_start: int  # the stage-1 block is Y_entry[:, stage1_start:]
    stage3_basis: np.ndarray
    Y_exit: np.ndarray
    truncated: bool


# perfbench's tracer times the full_orth projections by wrapping this
# class's __call__ (perfbench/ledger.py), so the class keeps its name
class InnerIterativeProjection(DirectReducedProjection):
    """The ``full_orth`` projection: reduced solves G mu = Y'Az over all of Y.

    Built from the products ``AY`` and the Cholesky factor of G = Y'AY the
    solve formed from them, so each projection is one product (AY)'z and
    one backsolve, and costs no matvec.
    """


def _nested_run(G, bhat, what, s, factor, tol, mode):
    """The nested run of stage 2: augmented CG on G v = bhat from ``what``.

    Augmented with the stage-1 selection E = I[:, s:], whose Gram factor is
    ``factor``; at most 3y + 10 iterations, to ``tol`` floored at
    1e-13 ||bhat|| (the attainable accuracy).  Returns the run, whatever
    its ``failure``, the coefficients C = [E, V] of the stage-3 block
    Y C = [W, Y V] and the Cholesky factor of C'GC, whatever the mode
    leaves of V's G-orthogonality (C = E and the stage-1 factor for a run
    that kept no direction).
    """
    y = G.shape[0]
    E = np.eye(y)[:, s:]
    proj = DirectReducedProjection(G[:, s:], factor)
    tol = max(tol, 1e-13 * float(np.linalg.norm(bhat)))
    res = augmented_pcg(ReducedSpdOperator(G), bhat, what, E, proj, None,
                        tol, mode=mode, max_iter=3 * y + 10, r0=bhat - proj.cross @ what)
    if not res.V.shape[1]:  # no step, or a breakdown
        return res, E, factor
    C = np.concatenate([E, res.V], axis=1)
    return res, C, gram_cholesky(C.T @ (G @ C))


def _stage2(A, r0, Y, s, stage1, cfg, eps, report, sink):
    """Stage 2: the products AY, G = Y'AY, the nested run and the stage-3 block.

    The columns in front of W = Y[:, s:] take one block product beside
    stage 1's A W.  When Y is wider than W, :func:`_nested_run` iterates
    to eps_hat = ``cfg.eps_hat_factor`` * eps.  Returns stage 3's start,
    block and projection (W, Y C = [W, Y V2] from the run's C, or, under
    ``full_orth``, all of Y), AY and the start's coefficients over Y.  A run
    that breaks down contributes nothing: the stage-1 solution is Galerkin
    over W only, so stage 3 starts from it over W alone, even under
    ``full_orth``.  Fills the report's stage-1 width, stage-2 fields and,
    under ``diagnostics``, ``reduced_condition``.
    """
    what, proj1 = stage1
    W = Y[:, s:]
    report.stage1_dim = W.shape[1]
    AY = np.concatenate([spmv(A, Y[:, :s], sink), proj1.cross], axis=1) if s else proj1.cross
    yhat = np.concatenate([np.zeros(s), what])
    if s or cfg.diagnostics:
        # symmetric by construction, as the nested run assumes
        G = Y.T @ AY
        G = 0.5 * (G + G.T)
    if cfg.diagnostics:
        eigs, _ = symmetric_evd(G)
        report.reduced_condition = float(eigs[0] / eigs[-1]) if eigs[-1] > 0 else float("inf")
    if not s:
        return what, W, proj1, AY, yhat
    run, C, factor = _nested_run(G, Y.T @ r0, what, s, proj1.factor,
                                 cfg.eps_hat_factor * eps, cfg.mode)
    if run.failure == "breakdown":
        report.stage2_converged = False
        return what, W, proj1, AY, yhat
    report.stage2_iters = run.k
    report.stage2_converged = run.converged
    report.stage2_residual_history = run.residual_history
    if cfg.truncation.full_orth:
        return run.x, Y, InnerIterativeProjection(AY, gram_cholesky(G)), AY, run.x
    # the block Y C = [W, Y V2], its products AY C and their Gram factor share one C
    proj = DirectReducedProjection(AY @ C, factor)
    return np.concatenate([what, run.vhat]), Y @ C, proj, AY, run.x


def _stages12(A, r0, Y, s, cfg, eps, report, sink, record):
    """Stages 1 and 2 over the entry basis Y, whose stage-1 block is Y[:, s:].

    Returns what :func:`_stage2` returns for stage 3: without a basis an
    empty block and yhat = 0 with no AY, so stage 3 is plain PCG.
    ``record``, when given, takes the stage-1 and stage-2 checkpoints.
    """
    if not Y.shape[1]:
        return np.zeros(0), Y, None, None, np.zeros(0)
    stage1 = direct_reduced_solve(A, r0, Y[:, s:], sink)
    if record is not None:
        record("stage1", 0, Y[:, s:] @ stage1[0])
    start, basis, proj, AY, yhat = _stage2(A, r0, Y, s, stage1, cfg, eps, report, sink)
    if record is not None:
        record("stage2", 0, Y @ yhat)
    return start, basis, proj, AY, yhat


def _stage3(A, r0, start, basis, proj, AY, yhat, M, eps, cfg, report, sink, monitor):
    """Stage 3: augmented PCG from ``start`` over ``basis`` to the tolerance ``eps``.

    The entry residual is r0 - AY yhat (r0 when ``AY`` is None).  Copies
    the run's ``failure``, iterations and residual history into the report.
    Returns its iterate (a broken run's is its start) and the run, or None
    for a broken run, whose directions are not trusted.
    """
    r3 = r0 if AY is None else r0 - AY @ yhat
    run = augmented_pcg(A, r0, start, basis, proj, M, eps,
                        mode=cfg.mode, keep_directions=cfg.recycle,
                        sink=sink, max_iter=cfg.max_iter, r0=r3, monitor=monitor)
    report.failure = run.failure
    report.stage3_iters = run.k
    report.residual_history = run.residual_history
    return run.x, None if run.failure == "breakdown" else run


def _checkpoints(marks: list[tuple], chalf: np.ndarray) -> list[Checkpoint]:
    """The checkpoints of the recorded marks, with their outputs C @ x.

    One GEMM over the stacked iterates; each output is a contiguous row.
    """
    outputs = np.stack([x for *_, x in marks]) @ chalf.T
    return [Checkpoint(*fields, output=out) for (*fields, _), out in zip(marks, outputs)]


def solve_system(
    A: SparseSpdMatrix,
    b: np.ndarray,
    xbar: np.ndarray | None,
    state: RecycleState,
    eps: float,
    cfg: SolverConfig,
    M: preconditioners.Preconditioner | None = None,
    sink: InstrumentationSink | None = None,
    chalf: np.ndarray | None = None,
    track_iterates: bool = False,
    trace_out: list | None = None,
) -> tuple[np.ndarray, SolveReport]:
    """Solve one system to the forcing tolerance ``eps``; update ``state``.

    Returns the solution and a report of per-stage costs; ``state`` is
    updated in place (see :func:`update_basis`).  ``M`` is the built
    preconditioner of kind ``cfg.precond`` for ``A`` (see
    :func:`build_preconditioners`), None under ``identity``; a missing M
    for any other kind, or an M under ``identity``, raises
    :class:`RecyklError`.  The build is the caller's, so
    ``report.wall_time`` leaves it out.  ``chalf`` is the output matrix C: the
    output-metric truncation strategies need it, and ``track_iterates``
    records C @ x at every checkpoint.  When stage 3 runs out of iterations
    or breaks down, the report says ``converged=False`` with the ``failure``
    cause (never an exception): a run out of budget returns its partial
    solution and keeps its directions, a broken one returns its start and
    leaves Y and the weight history as they were; either way the state
    stays usable for the next system.  A ``b`` or ``xbar`` holding a NaN or
    an infinity is not solved: it returns the initial guess with
    ``failure="nonfinite"``, spends no matvec and leaves
    ``residual_history`` None and Y and the weight history as they were.
    No stage writes b, xbar or a basis in place (a new basis replaces the
    old one), so ``trace_out`` shares them, read-only by contract.
    """
    if track_iterates and chalf is None:
        raise RecyklError("tracking iterates needs the output matrix")
    if (M is None) != (cfg.precond == "identity"):
        raise RecyklError(f"preconditioner kind {cfg.precond!r} cannot take M={type(M).__name__}")
    sink = InstrumentationSink() if sink is None else sink
    t0 = time.perf_counter()
    report = SolveReport(j=state.systems_seen + 1)
    b = np.asarray(b, dtype=np.float64)
    xbar = None if xbar is None or not np.any(xbar) else np.asarray(xbar, dtype=np.float64)
    eps = float(eps)

    def add_center(x):
        return x if xbar is None else xbar + x

    # checkpoint fields and the iterate: the solvers never mutate theirs, so
    # a reference lasts until the outputs C @ x are formed after the clock
    marks: list[tuple] | None = [] if track_iterates else None

    def record(stage, iteration, x):
        marks.append((stage, iteration, sink.matvecs, sink.precond_applies,
                      time.perf_counter() - t0, add_center(x)))

    if track_iterates:
        record("start", 0, np.zeros(A.n))
    Y = state.Y if cfg.recycle else state.Y[:, :0]  # empty without recycling
    s = state.stage1_start  # the stage-1 block is Y[:, s:]
    if np.isfinite(b).all() and (xbar is None or np.isfinite(xbar).all()):
        r0 = b if xbar is None else b - spmv(A, xbar, sink)
        start, basis, proj, AY, yhat = _stages12(A, r0, Y, s, cfg, eps, report, sink,
                                                 record if track_iterates else None)
        monitor = (lambda k, x: record("stage3", k, x)) if track_iterates else None
        x, run = _stage3(A, r0, start, basis, proj, AY, yhat, M, eps, cfg, report, sink, monitor)
    else:
        report.failure = "nonfinite"
        x, run, start, basis, proj, AY = np.zeros(A.n), None, None, Y[:, :0], None, None
    if trace_out is not None:
        Y_entry, stage3_basis = Y, basis
    # only a truncation reads AY again; every other block is done with, so
    # the old Y is freed once the grown one is written
    if not cfg.truncation.truncates(Y.shape[1] + (0 if run is None else run.V.shape[1])):
        AY = None
    del start, basis, proj, Y
    # a broken or unsolved system adds neither directions nor a weight snapshot
    outcome = (update_basis(state, yhat, run, cfg, A, chalf=chalf, sink=sink, products=AY)
               if cfg.recycle and run is not None else None)
    del AY
    state.systems_seen = report.j
    report.truncated = outcome is not None
    report.rank_truncated = report.truncated and outcome.rank_truncated
    report.matvecs = sink.matvecs
    report.precond_applies = sink.precond_applies
    report.reorth_sweeps = sink.reorth_sweeps
    report.wall_time = time.perf_counter() - t0
    if marks is not None:
        report.checkpoints = _checkpoints(marks, chalf)
    if trace_out is not None:
        trace_out.append(SystemTrace(
            j=report.j, A=A, b=b, xbar=xbar, eps=eps, Y_entry=Y_entry, stage1_start=s,
            stage3_basis=stage3_basis, Y_exit=state.Y, truncated=report.truncated))
    return add_center(x), report


def update_basis(
    state: RecycleState,
    yhat_comb: np.ndarray,
    stage3_res: AugmentedPcgResult,
    cfg: SolverConfig,
    A: SparseSpdMatrix,
    *,
    chalf: np.ndarray | None,
    sink: InstrumentationSink | None,
    products: np.ndarray | None,
) -> TruncationOutcome | None:
    """Fold the new directions into the recycled basis, truncating at the cap.

    ``state`` is updated in place; the truncation's outcome is returned
    when it fired, else None.  New directions enter as the stage-3 run
    hands them out, at unit A-norm, and all join the stage-1 block: the
    grown block Z = [Y, V] replaces the old Y as soon as it is written, so
    the old one is freed unless the caller holds it.  A ``cg`` run's
    directions lose A-independence in finite precision, so first the
    columns past the numerical rank of V'AV are dropped (see
    :func:`_independent_directions`); ``fom`` keeps V'AV = I to round-off
    and drops none.  The solution's coefficients in Z join the weight
    history.  When the config says Z is to be truncated,
    :func:`~recykl.truncation.compress` gets the block, the just-solved
    matrix, the history and the products AZ; it picks the weights, metric
    and method, and reads A only from those products.

    ``products`` is A times the old basis as the solve formed it (None for
    an empty one); it and AV go to ``compress`` as two column blocks, so no
    matvec is spent.  The history is then reset, and the retained basis is
    stored with ``compress``'s stage-1 prefix moved to its tail, where
    ``stage1_start`` marks it; appended directions leave it as it is.
    """
    tcfg = cfg.truncation
    V, AV, vhat = stage3_res.V, stage3_res.AV, stage3_res.vhat
    if cfg.mode == "cg" and V.shape[1]:
        # fom's sweeps keep V'AV = I to round-off; the two-term recurrence does not
        V, AV, vhat = _independent_directions(V, AV, vhat)
    y_old, k = state.Y.shape[1], V.shape[1]
    truncates = tcfg.truncates(y_old + k)
    eta = np.concatenate([yhat_comb, vhat])
    if eta.size:
        state.history.push(eta)
    if k:
        # the grown block is allocated once, in C order
        state.Y = stack_blocks([state.Y, V])
    if not truncates:
        return None
    blocks = [block for block in (products, AV) if block is not None and block.shape[1]]
    out = compress(state.Y, tcfg, A, state.history, chalf=chalf, products=blocks, sink=sink)
    state.history.reset()
    w, y_new = out.stage1_width, out.Y_new.shape[1]
    state.Y = out.Y_new
    if w < y_new:
        state.Y = np.concatenate([out.Y_new[:, w:], out.Y_new[:, :w]], axis=1)
    state.stage1_start = y_new - w
    return out


def _independent_directions(V, AV, vhat):
    """The A-independent columns of V, their products AV, and vhat over them.

    The columns :func:`~recykl.linalg.pivoted_cholesky` of G = V'AV drops
    go, and the kept ones stay in their order, so a V without a small pivot
    comes back as it is.  V vhat becomes its A-projection onto the kept
    columns, G_kk^{-1} G_k: vhat, backsolved on the pivoted factor.
    """
    gram = V.T @ AV
    factor = pivoted_cholesky(gram)
    if factor.m == V.shape[1]:
        return V, AV, vhat
    kept = np.sort(factor.kept)
    coef = factor.solve_spd(gram @ vhat)
    return V[:, kept], AV[:, kept], coef[kept]


def build_preconditioners(systems, kind: str) -> list:
    """The preconditioner of kind ``kind`` for each system's matrix, in order.

    One :func:`~recykl.preconditioners.build` per system; under
    ``identity`` every entry is None and nothing is built.  The list keeps
    every factor alive as long as it is held.
    """
    if kind == "identity":
        return [None for _ in systems]
    return [preconditioners.build(kind, spec.A) for spec in systems]


def run_sequence(
    seq,
    cfg: SolverConfig,
    *,
    preconds: list | None = None,
    stop_on_failure: bool = True,
    keep_trace: bool = False,
    track_iterates: bool = False,
):
    """Drive the staged solver across a system sequence.

    Each system is solved to its own forcing tolerance with the method
    ``cfg`` and the matching entry of ``preconds``, one built
    preconditioner of kind ``cfg.precond`` per system; without the list,
    :func:`build_preconditioners` builds it first.  Returns (solutions,
    reports, traces).
    """
    if preconds is None:
        preconds = build_preconditioners(seq, cfg.precond)
    if len(preconds) != seq.p:
        raise RecyklError(f"{len(preconds)} preconditioners for {seq.p} systems")
    state = RecycleState.empty(seq.n)
    reports: list[SolveReport] = []
    solutions: list[np.ndarray] = []
    traces: list[SystemTrace] | None = [] if keep_trace else None
    for spec, M in zip(seq, preconds):
        x, report = solve_system(
            spec.A,
            spec.b,
            spec.xbar,
            state,
            spec.tol,
            cfg,
            M,
            chalf=seq.C,
            track_iterates=track_iterates,
            trace_out=traces,
        )
        solutions.append(x)
        reports.append(report)
        if not report.converged and stop_on_failure:
            break
    return solutions, reports, traces


def summarize_reports(reports) -> dict:
    """Per-sequence averages of the three cost metrics plus iteration counts."""
    if not reports:
        return {}
    return {
        "systems": len(reports),
        "avg_matvecs": float(np.mean([r.matvecs for r in reports])),
        "avg_precond_applies": float(np.mean([r.precond_applies for r in reports])),
        "avg_wall_time": float(np.mean([r.wall_time for r in reports])),
        "avg_stage3_iters": float(np.mean([r.stage3_iters for r in reports])),
        "total_stage3_iters": int(np.sum([r.stage3_iters for r in reports])),
        "total_matvecs": int(np.sum([r.matvecs for r in reports])),
        "all_converged": bool(all(r.converged for r in reports)),
    }
