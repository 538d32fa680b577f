"""Preconditioned conjugate gradients augmented with a recycled subspace.

The central routine :func:`augmented_pcg` runs PCG while keeping every new
search direction A-orthogonal to a fixed augmenting basis Y.  The caller
supplies the starting coordinates in Y (normally the Galerkin solution over
range(Y)) and a handle that solves the reduced systems Y'AY mu = Y'Az by
backsolving cached Cholesky factors.  The final solution x0 + sum(alpha p)
is then the A-orthogonal projection of the exact solution onto the direct
sum of range(Y) and the generated Krylov directions.

It is the one Krylov entry point, run in two spaces: over a
:class:`~recykl.linalg.SparseSpdMatrix` in the full space (plain PCG is the
empty-basis case) and over a :class:`ReducedSpdOperator`, the reduced matrix
Y'AY of the staged solver's reduced space, which the solver forms once per
system from the products AY.  The staged solver's direct
projections, in either space, are :class:`DirectReducedProjection` handles,
the one type that holds an augmenting block: its cached A-products and the
Cholesky factor of its whole Gram matrix, so the block need not be
A-orthonormal.  :func:`stack_blocks` lays blocks side by side in the C
order the frozen fixtures pin.

Every run hands its directions out at unit A-norm, p / sqrt(p'Ap), with
their products and the steps along them, so a returned block has V'AV = I.
Two direction updates are available.  ``mode="cg"`` keeps the classical
two-term recurrence.  ``mode="fom"`` re-orthogonalizes each new direction
against all previous ones, which guarantees a full-rank direction block in
finite precision; its coefficients are the explicit projections -(V'Az).
The projection is block classical Gram-Schmidt in the A-inner product,
p1 = p0 - V c with c = (AV)'p0, swept a second time only when the first
sweep cancels: when ||p1||_A < ||p0||_A / sqrt(2) ("twice is enough" when
needed; Daniel, Gragg, Kaufman & Stewart, "Reorthogonalization and stable
algorithms for updating the Gram-Schmidt QR factorization", Math. Comp.
30, 1976).  Two sweeps reach orthogonality at the level of round-off
(Giraud, Langou & Rozloznik, "The loss of orthogonality in the Gram-Schmidt
orthogonalization process", Comput. Math. Appl. 50, 2005).  The test costs
no extra work: the stored columns are A-orthonormal, so ||c||^2 is the
squared A-norm the sweep removed, and the iteration's own product A p1
gives ||p1||_A^2.  A second sweep carries the product along, A p = A p1 -
AV c2, so it costs two matrix-vector products over the stored block and
no operator application.  The directions of a run and their operator
products live in one preallocated, Fortran-ordered store, in both modes:
``fom`` reads the products in every sweep, and a caller that recycles the
directions reuses them instead of multiplying by A again.  Each block is a
contiguous prefix BLAS reads without copying; the result gets both in the
same layout, and a run told to keep no directions (plain PCG, whose caller
recycles nothing) stores neither and runs the two-term recurrence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, RecyklError
from .linalg import (
    DenseLowerTriangular,
    InstrumentationSink,
    SparseSpdMatrix,
    assemble_gram,
    dense_cholesky,
    spmv,
)

_BREAKDOWN_RTOL = 1e-14

# a fom direction is swept again when its first sweep left less than this
# fraction of its A-norm
_REORTH_ETA = 0.5 ** 0.5

# columns a direction store starts with before it doubles
_STORE_INITIAL_COLS = 64


class ReducedSpdOperator:
    """Reduced operator p -> G p on R^dim for a formed reduced matrix G = Y'AY.

    An application is one dense product with G and charges no matvec: the
    sparse products behind G were charged when the caller formed AY.
    """

    def __init__(self, G: np.ndarray):
        self.G = np.asarray(G, dtype=np.float64)
        self.dim = self.G.shape[0]
        if self.G.shape != (self.dim, self.dim):
            raise DimensionMismatch(f"reduced matrix must be square, got {self.G.shape}")

    def apply(self, p):
        return self.G @ p


def stack_blocks(arrays: list[np.ndarray]) -> np.ndarray:
    """The blocks side by side in one C-ordered array, written once.

    C order whatever the blocks' order: the layout decides how BLAS rounds
    products with the stacked basis, and the frozen fixtures pin that
    rounding.
    """
    out = np.empty((arrays[0].shape[0], sum(a.shape[1] for a in arrays)))
    return np.concatenate(arrays, axis=1, out=out)


class DirectReducedProjection:
    """Reduced solves mu = (B'AB)^{-1} B'Az over an augmenting block B.

    ``cross`` holds A*B (in whatever space the operator acts), C-ordered, so
    B'Az is the dense product cross' z and no operator application is
    needed.  ``factor`` is the dense Cholesky factor of the whole Gram
    matrix B'AB, whatever the block: each solve is one backsolve.
    """

    def __init__(self, cross: np.ndarray, factor: DenseLowerTriangular):
        self.cross = np.ascontiguousarray(cross, dtype=np.float64)
        self.factor = factor

    def __call__(self, z: np.ndarray) -> np.ndarray:
        return self.factor.solve_spd(self.cross.T @ z)


class _DirectionStore:
    """The directions of one augmented-PCG run, in preallocated blocks.

    Column i of ``V`` is direction p_i at unit A-norm, p_i / sqrt(p_i'Ap_i),
    and column i of ``AV`` its product, both kept only when ``directions``,
    in either mode; ``alpha[i]`` is the step along that unit column.  The
    blocks are Fortran-ordered, so the live prefixes ``V[:, :k]`` and
    ``AV[:, :k]`` are contiguous blocks.  Capacity starts at
    min(64, max_iter) columns and doubles, capped at max_iter, when full.

    A ``fom`` step is split around the iteration's matvec:
    :meth:`a_orthogonalize` makes the first sweep and keeps the squared
    A-norm it removed, and :meth:`curvature`, handed the product of the
    swept direction, sweeps once more only when the first sweep cancelled.
    Every sweep is charged to ``sink``.
    """

    def __init__(self, n: int, max_iter: int, directions: bool = True,
                 sink: InstrumentationSink | None = None):
        cap = min(_STORE_INITIAL_COLS, max_iter)
        self.k = 0
        self.max_iter = max_iter
        self.V = np.empty((n, cap), order="F") if directions else None
        self.AV = np.empty((n, cap), order="F") if directions else None
        self.alpha = np.empty(cap)
        self.sink = sink
        # squared A-norm the last first sweep removed; 0 once curvature read it
        self.removed = 0.0

    def append(self, p: np.ndarray, Ap: np.ndarray, gamma: float, alpha: float) -> None:
        k = self.k
        if k == self.alpha.shape[0]:
            cap = min(2 * k, self.max_iter)
            if self.V is not None:
                self.V = _grown(self.V, k, cap)
                self.AV = _grown(self.AV, k, cap)
            self.alpha = _grown(self.alpha, k, cap)
        norm = np.sqrt(gamma)
        if self.V is not None:
            np.divide(p, norm, out=self.V[:, k])
            np.divide(Ap, norm, out=self.AV[:, k])
        self.alpha[k] = alpha * norm
        self.k = k + 1

    def a_orthogonalize(self, p: np.ndarray) -> np.ndarray:
        """p minus its A-projection onto every stored direction, one block sweep."""
        c = p @ self.AV[:, :self.k]
        self.removed = float(c @ c)
        return self._sweep(p, c)

    def curvature(self, p: np.ndarray, Ap: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """(p, Ap, p'Ap), after a second sweep if the first one cancelled.

        ``p`` is the direction the iteration multiplied and ``Ap`` its
        product.  Only the result of the last :meth:`a_orthogonalize` is
        swept again (a ``cg`` direction never is), when p'Ap < eta^2 (p'Ap
        + removed): ||p||_A below eta times the A-norm before the first
        sweep.  The second sweep carries the product along from the stored
        ones.
        """
        gamma = float(p @ Ap)
        removed, self.removed = self.removed, 0.0
        if removed > 0.0 and gamma < _REORTH_ETA ** 2 * (gamma + removed):
            AV = self.AV[:, :self.k]
            c = p @ AV
            p = self._sweep(p, c)
            Ap = Ap - AV @ c
            gamma = float(p @ Ap)
        return p, Ap, gamma

    def _sweep(self, p: np.ndarray, c: np.ndarray) -> np.ndarray:
        if self.sink is not None:
            self.sink.add_reorth_sweep()
        return p - self.V[:, :self.k] @ c


def _grown(block: np.ndarray, k: int, cap: int) -> np.ndarray:
    """A copy of ``block`` with room for ``cap`` columns (entries, if 1-D)."""
    out = np.empty(block.shape[:-1] + (cap,), order="F")
    out[..., :k] = block[..., :k]
    return out


@dataclass
class AugmentedPcgResult:
    """Outputs of one augmented-PCG run.

    ``x`` is the final iterate in the run's own coordinates (the caller adds
    any outer centering); it equals Y @ yhat0 + V @ vhat.  The columns of
    the direction block V have unit A-norm; ``fom`` keeps them A-orthogonal
    to round-off, ``cg`` loses that in finite precision, and no caller
    relies on it.  ``AV`` holds the operator's products with V, both
    Fortran-ordered.  A run that kept no directions returns V, AV and vhat
    with no columns; ``k`` still counts its iterations.  ``failure`` says
    how the run ended (see :func:`augmented_pcg`).
    """

    k: int
    vhat: np.ndarray
    V: np.ndarray
    AV: np.ndarray
    residual_history: np.ndarray
    x: np.ndarray
    failure: str | None = None

    @property
    def converged(self) -> bool:
        return self.failure is None

    @property
    def final_residual(self) -> float:
        return float(self.residual_history[-1])


def augmented_pcg(
    op,
    b,
    yhat0=None,
    aug_basis=None,
    reduced_solver=None,
    precond=None,
    tol: float = 0.0,
    *,
    mode: str = "cg",
    max_iter: int | None = None,
    sink: InstrumentationSink | None = None,
    r0: np.ndarray | None = None,
    monitor=None,
    keep_directions: bool = True,
) -> AugmentedPcgResult:
    """Augmented preconditioned CG over the affine space Y yhat0 + directions.

    Parameters
    ----------
    op : SparseSpdMatrix or ReducedSpdOperator
        The SPD system operator: a matrix, whose products are counted on
        ``sink``, or the formed reduced matrix Y'AY of a nested run, whose
        dense products are not matvecs.  Anything else raises
        ``DimensionMismatch``.  ``sink`` also counts ``fom``'s block
        Gram-Schmidt sweeps (``reorth_sweeps``).
    b : array
        Right-hand side (already centered by the caller when solving around
        an initial guess).
    yhat0 : array or None
        Starting coordinates in the augmenting basis; required when
        ``aug_basis`` is nonempty.  Normally the Galerkin solution over
        range(Y) so that the entry residual is Y-orthogonal.
    aug_basis : array (dim x m) or None
        Augmenting basis Y.  New directions are kept A-orthogonal to it.
    reduced_solver : callable or None
        Handle solving Y'AY mu = Y'Az given z.  Defaults to a direct
        factorization of Y'AY formed from one block product A*Y, charged as
        m operator applications.
    precond : Preconditioner or None
        Applied as z = M^{-1} r; None means unpreconditioned (and charges no
        preconditioner applications).
    tol : float
        Absolute exit threshold on ||r||_2.
    r0 : array, optional
        Entry residual b - A (Y yhat0) when the caller can compute it from
        cached products; skips one operator application.
    monitor : callable, optional
        Called as monitor(k, x_k) at entry (k=0) and after every iteration;
        x_k is the solver's own array, rebound (never mutated) afterwards.
    keep_directions : bool
        False for a caller that reads no direction block: the run then
        stores no directions or products, returns none, and takes the
        two-term recurrence whatever ``mode`` says.

    The run never writes ``b``, ``r0`` or ``aug_basis`` in place, so it
    copies none of them.

    Every run is returned, and its ``failure`` says how it ended, in the
    words of ``SolveReport.failure``: None once ||r|| <= ``tol``; "budget"
    when ``max_iter`` iterations did not get there, with the partial
    result; "breakdown" at a nonpositive or non-finite curvature p'Ap or a
    non-finite residual norm, with the start Y @ yhat0, no directions, ``k``
    counting the broken iteration and the entry residual norm as the whole
    history.  Only bad input raises: a shape mismatch
    (``DimensionMismatch``) or an unknown ``mode`` (``RecyklError``).
    """
    if isinstance(op, SparseSpdMatrix):
        n = op.n

        def apply(v):
            return spmv(op, v, sink)
    elif isinstance(op, ReducedSpdOperator):
        n, apply = op.dim, op.apply
    else:
        raise DimensionMismatch("augmented_pcg: unsupported operator type")
    b = np.asarray(b, dtype=np.float64)
    if b.shape[0] != n:
        raise DimensionMismatch("augmented_pcg: rhs length mismatch")
    if mode not in ("cg", "fom"):
        raise RecyklError(f"unknown mode {mode!r}")
    two_term = mode == "cg" or not keep_directions

    Y = None
    if aug_basis is not None:
        Y = np.asarray(aug_basis, dtype=np.float64)
        if Y.ndim != 2 or Y.shape[0] != n:
            raise DimensionMismatch("augmented_pcg: basis shape mismatch")
        if Y.shape[1] == 0:
            Y = None
    if Y is not None:
        if yhat0 is None:
            raise DimensionMismatch("augmented_pcg: yhat0 required with a nonempty basis")
        yhat0 = np.asarray(yhat0, dtype=np.float64)
        if yhat0.shape[0] != Y.shape[1]:
            raise DimensionMismatch("augmented_pcg: yhat0 length mismatch")
        x = Y @ yhat0
        if reduced_solver is None:
            # one block product A*Y, one operator application per column
            cross = apply(Y)
            gram = Y.T @ cross
            reduced_solver = DirectReducedProjection(cross, dense_cholesky(0.5 * (gram + gram.T)))
    else:
        x = np.zeros(n)

    if r0 is not None:
        r = np.asarray(r0, dtype=np.float64)
    elif Y is not None and np.any(x):
        r = b - apply(x)
    else:
        r = b

    history = [float(np.linalg.norm(r))]
    if monitor is not None:
        monitor(0, x)

    if max_iter is None:
        max_iter = n
    store = _DirectionStore(n, max_iter, directions=keep_directions, sink=sink)

    def result(failure):
        kept = store.k if keep_directions else 0
        # each live prefix is contiguous, so each copy is one memcpy; it
        # keeps the layout, and lets the store's spare columns go
        if keep_directions:
            V, AV = store.V[:, :kept].copy(order="F"), store.AV[:, :kept].copy(order="F")
        else:
            V = AV = np.zeros((n, 0))
        return AugmentedPcgResult(
            k=store.k,
            vhat=store.alpha[:kept],
            V=V,
            AV=AV,
            residual_history=np.asarray(history),
            x=x,
            failure=failure,
        )

    def broken(k):  # the start is formed again, not held through the run
        x0, empty = Y @ yhat0 if Y is not None else np.zeros(n), np.zeros((n, 0))
        return AugmentedPcgResult(k=k, vhat=np.zeros(0), V=empty, AV=empty, x=x0,
                                  residual_history=np.asarray(history[:1]), failure="breakdown")

    if history[0] <= tol:
        return result(None)

    z = precond.apply(r, sink) if precond is not None else r
    p = z - Y @ reduced_solver(z) if Y is not None else z
    rz = float(r @ z)

    for k in range(max_iter):
        p, Ap, gamma = store.curvature(p, apply(p))
        if not np.isfinite(gamma) or gamma <= _BREAKDOWN_RTOL * float(p @ p):
            return broken(k + 1)
        alpha = rz / gamma
        x = x + alpha * p
        r = r - alpha * Ap
        store.append(p, Ap, gamma, alpha)
        history.append(float(np.linalg.norm(r)))
        if not np.isfinite(history[-1]):
            return broken(k + 1)
        if monitor is not None:
            monitor(k + 1, x)
        if history[-1] <= tol:
            return result(None)

        z = precond.apply(r, sink) if precond is not None else r
        rz_next = float(r @ z)
        mu = reduced_solver(z) if Y is not None else None
        if two_term:
            p = z + (rz_next / rz) * p
            if Y is not None:
                p -= Y @ mu
        else:
            # one block classical Gram-Schmidt sweep now, a second at the
            # next matvec if this one cancels, keeps the direction block
            # A-orthogonal even for badly conditioned operators
            p = store.a_orthogonalize(z - Y @ mu if Y is not None else z)
        rz = rz_next

    return result("budget")


def direct_reduced_solve(
    A: SparseSpdMatrix, b, W, sink: InstrumentationSink | None = None
) -> tuple[np.ndarray, DirectReducedProjection]:
    """Galerkin solve over range(W) by dense Cholesky of W'AW.

    Returns the reduced solution (W'AW)^{-1} W'b and the projection over
    W that holds the product A*W (one matvec per column, charged to the
    sink) and the factor, so later solves over W apply A no more.
    """
    W = np.atleast_2d(np.asarray(W, dtype=np.float64))
    b = np.asarray(b, dtype=np.float64)
    gram, AW = assemble_gram(A, W, sink)
    factor = dense_cholesky(0.5 * (gram + gram.T))
    return factor.solve_spd(W.T @ b), DirectReducedProjection(AW, factor)
