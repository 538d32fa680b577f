"""Hybrid direct/iterative solver for sequences of SPD systems.

Each system is attacked in three stages over the recycled basis Y carried
across the sequence:

1. a direct Galerkin solve over the stage-1 block W (a few columns of Y
   expected to capture most of the solution), factored once and reused;
2. when Y is wider than W, one nested run of unpreconditioned augmented CG
   over all of Y on the reduced matrix G = Y'AY, from the stage-1 solution
   and augmented with W.  G is formed once per system from the products
   AY: A W is reused and the other columns of Y take one block product, one
   matvec each; stage 2, ``full_orth`` and truncation read A only from AY
   and G.  The run's block leaves G-orthonormal in either mode (CholeskyQR);
3. one full-space augmented PCG run to the forcing tolerance.  Each stage
   that ran contributes a block of columns and start coefficients, and its
   A-products and Gram factor to one
   :class:`~recykl.krylov.DirectReducedProjection`; the run starts from the
   stacked blocks and keeps new directions A-orthogonal to them.  Under
   ``full_orth``, after a stage 2, it keeps them A-orthogonal to all of Y
   instead (:class:`InnerIterativeProjection`), each projection a
   backsolve of G's Cholesky factor; if G fails to factor, the stage
   blocks serve.  Every block after the stage-1 one is A-orthonormal.

Stages 1 and 2 run only over a non-empty basis; without one (the first
system, or ``recycle=False``) the block is empty and stage 3 is plain PCG.
Without recycling that PCG runs the two-term recurrence whatever ``mode``
says, because nothing keeps its directions; only runs that keep them (every
run of a recycling method, its first system and stage-1 fallbacks included)
store the directions with their A-products, in either mode, and pay for
``fom``'s re-orthogonalization.
A system whose stage-1 Gram matrix fails its Cholesky factorization is
solved the same way, and its report sets ``stage1_fallback``; so is one whose
stage-1 block has more columns than A has rows, without assembling the Gram
matrix, which is then singular.  A stage 2 that breaks down contributes
nothing: stage 3 runs from the stage-1 solution over the stage-1 block
alone, and the report leaves ``stage2_converged`` false.  A stage 3 that
runs out of iterations or breaks down ends in a report with ``converged``
false and its ``failure`` cause, never an exception; a broken run returns
its start iterate and adds no direction to Y and no weight snapshot.

After the solve, new search directions are appended to Y at unit A-norm,
and they join the stage-1 block; once the block exceeds the storage
cap it is compressed by :func:`~recykl.truncation.compress`, which alone
reads the truncation strategy.  The stage-1 block is always the trailing
columns ``Y[:, stage1_start:]``, read as a view: truncation stores the
retained basis with its stage-1 prefix moved to the tail, and appended
directions land behind it.  Every truncation is handed the products AZ of
the grown block, whatever the strategy and mode: the solve's products AY
of the old basis and the stage-3 products of the new directions are copied
in, so truncation costs no matvec; only after a stage-1 fallback, when the
solve holds no product of the old basis, does A multiply every old column.

A method is one :class:`SolverConfig`: truncation shape, recurrence mode,
preconditioner kind and the stage-2 tolerance factor.  :func:`solve_system`
builds the preconditioner of each matrix itself, inside its clock, and
updates the :class:`RecycleState` it is given in place.

Blocks pass between the stages without copies where the layout allows: a
single C-ordered block (such as the stage-1 products A W when stage 2 adds
none) goes to stage 3 as it is, and the grown Y is allocated once with the
new directions written into its tail.  A run without recycling keeps no
direction block at all.  Checkpoint outputs C x are formed after the clock
stops, by one product over the stacked iterates.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import preconditioners
from .errors import Breakdown, NotConverged, NotPositiveDefinite, RecyklError
from .krylov import (
    AugmentedPcgResult,
    DirectReducedProjection,
    ReducedSpdOperator,
    augmented_pcg,
    direct_reduced_solve,
    stack_blocks,
)
from .linalg import InstrumentationSink, SparseSpdMatrix, dense_cholesky, spmv, symmetric_evd
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
    ``ssor:<omega>``.  For a system with forcing tolerance eps, stage 2
    iterates to eps_hat = eps_hat_factor * eps, a positive finite factor;
    the ``full_orth`` projections are direct and take no tolerance.
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
        if self.max_iter is not None and self.max_iter < 1:
            raise RecyklError(f"max_iter must be at least 1, got {self.max_iter}")
        value = self.eps_hat_factor
        if not (math.isfinite(value) and value > 0):
            raise RecyklError(f"eps_hat_factor must be a positive finite number, got {value}")


@dataclass
class RecycleState:
    """Durable solver state carried from one system to the next."""

    n: int
    Y: np.ndarray
    stage1_start: int = 0  # the stage-1 block is Y[:, stage1_start:]
    systems_seen: int = 0
    history: WeightHistory = field(default_factory=WeightHistory)

    @classmethod
    def empty(cls, n: int) -> "RecycleState":
        return cls(n=n, Y=np.zeros((n, 0)))

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
    stage1_dim: int = 0
    stage2_iters: int = 0
    stage3_iters: int = 0
    wall_time: float = 0.0
    final_residual: float = float("nan")
    residual_history: np.ndarray | None = None
    stage2_residual_history: np.ndarray | None = None
    truncated: bool = False
    stage2_converged: bool = True
    stage1_fallback: bool = False  # stage-1 factor failed or was skipped; solved without basis
    failure: str | None = None  # why a solve did not converge: "budget" or "breakdown"
    rank_truncated: bool = False  # truncation stopped at the numerical rank of the block
    reduced_condition: float | None = None
    checkpoints: list[Checkpoint] | None = None

    @property
    def converged(self) -> bool:
        return self.failure is None


@dataclass
class SystemTrace:
    """Per-system record of the internal bases, for verification harnesses."""

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


def _stage2(G, bhat, what, s, factor, tol, mode) -> AugmentedPcgResult:
    """Stage 2: augmented CG on G v = bhat from the stage-1 solution ``what``.

    Augmented with the stage-1 selection, whose Gram factor is ``factor``;
    at most 3y + 10 iterations, to ``tol`` floored at 1e-13 ||bhat|| (the
    attainable accuracy), a run out of budget returning its partial result.
    The block leaves G-orthonormal in either mode by CholeskyQR with the
    run's products, since ``cg`` loses that and stage 3 assumes it; a
    failing factor raises NotPositiveDefinite.
    """
    y = G.shape[0]
    proj = DirectReducedProjection(G[:, s:], factor)
    tol = max(tol, 1e-13 * float(np.linalg.norm(bhat)))
    try:
        res = augmented_pcg(ReducedSpdOperator(G), bhat, what, np.eye(y)[:, s:], proj, None,
                            tol, mode=mode, max_iter=3 * y + 10, r0=bhat - proj.cross @ what)
    except NotConverged as exc:
        res = exc.partial
    if res.k:
        # V <- V L^-T (AV with it) and vhat <- L' vhat keep the iterate V vhat
        gram = res.V.T @ res.AV
        L = dense_cholesky(0.5 * (gram + gram.T))
        res.V, res.AV = L.solve_lower(res.V.T).T, L.solve_lower(res.AV.T).T
        res.vhat = L.full().T @ res.vhat
    return res


def solve_system(
    A: SparseSpdMatrix,
    b: np.ndarray,
    xbar: np.ndarray | None,
    state: RecycleState,
    eps: float,
    cfg: SolverConfig,
    sink: InstrumentationSink | None = None,
    chalf: np.ndarray | None = None,
    track_iterates: bool = False,
    trace_out: list | None = None,
) -> tuple[np.ndarray, SolveReport]:
    """Solve one system to the forcing tolerance ``eps``; update ``state``.

    Returns the solution and a report of per-stage costs; ``state`` is
    updated in place (see :func:`update_basis`).  The preconditioner named
    by ``cfg.precond`` is built for ``A`` inside the clock, so
    ``report.wall_time`` includes it.  ``chalf`` is the output matrix C: the
    output-metric truncation strategies need it, and ``track_iterates``
    records C @ x at every checkpoint.  When stage 3 runs out of iterations
    or breaks down, the report says ``converged=False`` with the ``failure``
    cause (never an exception): a run out of budget returns its partial
    solution and keeps its directions, a broken one returns its start and
    leaves Y and the weight history as they were; either way the state
    stays usable for the next system.
    """
    if track_iterates and chalf is None:
        raise RecyklError("tracking iterates needs the output matrix")
    if sink is None:
        sink = InstrumentationSink()
    t0 = time.perf_counter()
    M = None if cfg.precond == "identity" else preconditioners.build(cfg.precond, A)
    j = state.systems_seen + 1
    report = SolveReport(j=j)
    # checkpoint fields plus the iterate itself: the solvers rebind their
    # iterates and never mutate them, so a reference suffices until the
    # outputs C @ x are formed after the clock stops, all in one product
    marks: list[tuple] | None = [] if track_iterates else None

    def record(stage, iteration, x):
        marks.append((stage, iteration, sink.matvecs, sink.precond_applies,
                      time.perf_counter() - t0, x))

    b = np.asarray(b, dtype=np.float64)
    if xbar is not None:
        xbar = np.asarray(xbar, dtype=np.float64)
        if not np.any(xbar):
            xbar = None
    r0 = b - spmv(A, xbar, sink) if xbar is not None else b.copy()
    eps = float(eps)
    eps_hat = cfg.eps_hat_factor * eps
    if track_iterates:
        record("start", 0, xbar if xbar is not None else np.zeros(A.n))

    def add_center(x):
        return x if xbar is None else xbar + x

    # without recycling the basis counts as empty: stages 1 and 2 are
    # skipped and stage 3 is plain PCG
    Y = state.Y if cfg.recycle else state.Y[:, :0]
    y = Y.shape[1]
    s = state.stage1_start if y else 0  # the stage-1 block is Y[:, s:]
    yhat_comb = np.zeros(y)  # coefficients over the entry basis
    cols: list[np.ndarray] = []  # each stage's block of the stage-3 basis
    starts: list[np.ndarray] = []  # its Galerkin start coefficients
    proj = None  # the stage-3 projection over those blocks
    full = None  # the full_orth projection over all of Y, when it runs
    if y and y - s <= A.n:
        # stage 1: direct solve over W, factor cached for every later stage
        W = Y[:, s:]
        try:
            what, proj = direct_reduced_solve(A, r0, W, sink)
        except NotPositiveDefinite:
            pass
    if y and proj is None:
        # the stage-1 Gram matrix W'AW is singular (W has more columns than
        # A has rows) or lost definiteness in round-off: solve this system
        # over an empty basis, as without recycling
        report.stage1_fallback = True
        Y, y, s = Y[:, :0], 0, 0
    AY = None  # A times the entry basis, once stage 1 has run
    if y:
        cols.append(W)
        starts.append(what)
        yhat_comb[s:] = what
        if track_iterates:
            record("stage1", 0, add_center(W @ what))
        # the columns in front of W take one block product, one matvec each
        AY = np.concatenate([spmv(A, Y[:, :s], sink), proj.cross], axis=1) if s else proj.cross
        if s or cfg.diagnostics:
            # the reduced matrix, formed once from the products; symmetric
            # by construction, as stage 2's CG assumes
            G = Y.T @ AY
            G = 0.5 * (G + G.T)
            sink.add_gram()
        if cfg.diagnostics:
            eigs, _ = symmetric_evd(G)
            report.reduced_condition = float(eigs[0] / eigs[-1]) if eigs[-1] > 0 else float("inf")

        # stage 2: over all of Y from the stage-1 solution, augmented with
        # the stage-1 selection block
        if s:
            try:
                stage2 = _stage2(G, Y.T @ r0, what, s, proj.factor, eps_hat, cfg.mode)
            except (Breakdown, NotPositiveDefinite):
                # stage 2 contributes nothing: stage 3 starts from the
                # stage-1 solution, which is Galerkin over W only, so even
                # under full_orth it augments with the stage-1 block alone
                report.stage2_converged = False
            else:
                yhat_comb = stage2.x
                report.stage2_iters = stage2.k
                report.stage2_converged = stage2.converged
                report.stage2_residual_history = stage2.residual_history
                if cfg.truncation.full_orth:
                    try:
                        full = InnerIterativeProjection(AY, dense_cholesky(G))
                    except NotPositiveDefinite:
                        pass  # G lost definiteness: project over the stage blocks
                if full is None and stage2.k:
                    cols.append(Y @ stage2.V)
                    starts.append(stage2.vhat)
                    proj.append(AY @ stage2.V)
        if track_iterates:
            record("stage2", 0, add_center(Y @ yhat_comb))

    # stage 3: augmented PCG from the stage blocks to the forcing tolerance.
    # New directions stay A-orthogonal to the stacked blocks, each
    # projection backsolving the stage-1 factor, or with ``full_orth`` to
    # all of Y, each projection backsolving G's factor.  Both start from
    # the iterate Y yhat_comb.
    if full is not None:
        stage3_basis, stage3_start, proj = Y, yhat_comb, full
    else:
        stage3_basis = stack_blocks(cols, A.n)
        stage3_start = np.concatenate(starts) if starts else np.zeros(0)
    stage3_r0 = r0 - AY @ yhat_comb if y else r0
    monitor = (lambda k, x: record("stage3", k, add_center(x))) if track_iterates else None
    try:
        stage3_res = augmented_pcg(
            A,
            r0,
            stage3_start,
            stage3_basis,
            proj,
            M,
            eps,
            # a run that keeps no directions has nothing to orthogonalize
            # them for: plain PCG runs the two-term recurrence
            mode=cfg.mode if cfg.recycle else "cg",
            keep_directions=cfg.recycle,
            sink=sink,
            max_iter=cfg.max_iter,
            r0=stage3_r0,
            monitor=monitor,
        )
    except NotConverged as exc:
        stage3_res = exc.partial
        report.failure = "budget"
    except Breakdown as exc:
        # the run's iterate and directions are not trusted: the solve
        # returns the stage-3 start and adds no direction to the basis
        stage3_res = _entry_result(stage3_basis, stage3_start, stage3_r0, exc.iterations)
        report.failure = "breakdown"

    x = add_center(stage3_res.x)
    report.stage1_dim = y - s
    report.stage3_iters = stage3_res.k
    report.final_residual = stage3_res.final_residual
    report.residual_history = stage3_res.residual_history

    if report.failure == "breakdown":
        # a broken run adds neither directions nor a weight snapshot
        state.systems_seen = j
        outcome = None
    else:
        outcome = update_basis(state, yhat_comb, stage3_res, cfg, A, chalf=chalf, sink=sink,
                               products=AY)
    report.truncated = outcome is not None
    report.rank_truncated = report.truncated and outcome.rank_truncated
    report.matvecs = sink.matvecs
    report.precond_applies = sink.precond_applies
    report.wall_time = time.perf_counter() - t0
    if marks is not None:
        # one GEMM over the stacked iterates, not one GEMV per checkpoint;
        # each output is a contiguous row of the product
        outputs = np.stack([x for *_, x in marks]) @ chalf.T
        report.checkpoints = [Checkpoint(*fields, output=out)
                              for (*fields, _), out in zip(marks, outputs)]
    if trace_out is not None:
        trace_out.append(
            SystemTrace(
                j=j,
                A=A,
                b=b,
                xbar=xbar,
                eps=eps,
                Y_entry=Y.copy(),
                stage1_start=s,
                stage3_basis=stage3_basis.copy(),
                Y_exit=state.Y.copy(),
                truncated=report.truncated,
            )
        )
    return x, report


def update_basis(
    state: RecycleState,
    yhat_comb: np.ndarray,
    stage3_res: AugmentedPcgResult,
    cfg: SolverConfig,
    A: SparseSpdMatrix,
    *,
    chalf: np.ndarray | None = None,
    sink: InstrumentationSink | None = None,
    products: np.ndarray | None = None,
) -> TruncationOutcome | None:
    """Fold the new directions into the recycled basis, truncating at the cap.

    ``state`` is updated in place; the truncation's outcome is returned
    when it fired, else None.  New directions enter as the stage-3 run
    hands them out, at unit A-norm, and all join the stage-1 block.  The
    solution's coefficients in the grown block join the weight history.
    When the config says the grown block Z = [Y, V] is to be truncated,
    :func:`~recykl.truncation.compress` gets the block, the just-solved
    matrix, the history and the products AZ; it picks the weights, metric
    and method, and reads A only from those products.

    ``products`` is A times the old basis, as the solve formed it; it and
    the stage-3 products AV are copied into AZ.  Without it (after a
    stage-1 fallback, when the solve held no product of the old basis) A
    multiplies every old column, one matvec each on ``sink``.  The weight
    history is then reset, and the retained basis is stored with the
    stage-1 prefix ``compress`` derived moved to its tail, where
    ``stage1_start`` marks it; appended directions leave ``stage1_start`` as
    it is.
    """
    j = state.systems_seen + 1
    if not cfg.recycle:
        state.systems_seen = j
        return None
    tcfg = cfg.truncation
    k = stage3_res.V.shape[1]
    y_old = state.Y.shape[1]
    if k > 0:
        # the grown block is allocated once, in C order
        Y_grown = stack_blocks([state.Y, stage3_res.V], state.n)
        eta = np.concatenate([yhat_comb, stage3_res.vhat])
    else:
        Y_grown = state.Y
        eta = yhat_comb.copy()
    if eta.size:
        state.history.push(eta)

    if not tcfg.truncates(Y_grown.shape[1]):
        state.Y = Y_grown
        state.systems_seen = j
        return None
    if products is None:
        # after a stage-1 fallback (or over an empty basis) the solve holds
        # no product of the old columns
        products = spmv(A, state.Y, sink) if y_old else state.Y
    # Fortran order, so that both blocks land in whole contiguous columns
    AZ = np.empty(Y_grown.shape, order="F")
    AZ[:, :y_old] = products
    AZ[:, y_old:] = stage3_res.AV
    out = compress(Y_grown, tcfg, A, state.history, chalf=chalf, products=AZ, sink=sink)
    state.history.reset()
    w, y_new = out.stage1_width, out.Y_new.shape[1]
    state.Y = out.Y_new
    if w < y_new:
        state.Y = np.concatenate([out.Y_new[:, w:], out.Y_new[:, :w]], axis=1)
    state.stage1_start = y_new - w
    state.systems_seen = j
    return out


def _entry_result(basis, start, r, iterations) -> AugmentedPcgResult:
    """The result of a stage-3 run that broke down: its start, no directions.

    ``r`` is the residual at the start and ``iterations`` the iterations
    the run spent.
    """
    n = basis.shape[0]
    return AugmentedPcgResult(
        k=iterations or 0, vhat=np.zeros(0), V=np.zeros((n, 0)), AV=np.zeros((n, 0)),
        residual_history=np.array([np.linalg.norm(r)]), x=basis @ start, converged=False,
    )


def run_sequence(
    seq,
    cfg: SolverConfig,
    *,
    stop_on_failure: bool = True,
    keep_trace: bool = False,
    track_iterates: bool = False,
):
    """Drive the staged solver across a system sequence.

    Each system is solved to its own forcing tolerance with the method
    ``cfg``.  Returns (solutions, reports, traces).
    """
    state = RecycleState.empty(seq.n)
    reports: list[SolveReport] = []
    solutions: list[np.ndarray] = []
    traces: list[SystemTrace] | None = [] if keep_trace else None
    for spec in seq:
        x, report = solve_system(
            spec.A,
            spec.b,
            spec.xbar,
            state,
            spec.tol,
            cfg,
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
