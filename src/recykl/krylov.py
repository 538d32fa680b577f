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
the one type that holds a set of mutually A-orthogonal augmenting blocks:
their cached A-products and the Cholesky factor of the leading block's Gram
matrix; every block appended after it is A-orthonormal.  :func:`stack_blocks`
lays blocks side by side in the C order the frozen fixtures pin.

Every run hands its directions out at unit A-norm, p / sqrt(p'Ap), with
their products and the steps along them, so a returned block has V'AV = I.
Two direction updates are available.  ``mode="cg"`` keeps the classical
two-term recurrence.  ``mode="fom"`` re-orthogonalizes each new direction
against all previous ones, which guarantees a full-rank direction block in
finite precision; its coefficients are the explicit projections -(V'Az).
The projection is block classical Gram-Schmidt applied twice (CGS2): two
sweeps suffice to reach orthogonality at the level of round-off (Giraud,
Langou & Rozloznik, "The loss of orthogonality in the Gram-Schmidt
orthogonalization process", Comput. Math. Appl. 50, 2005), and each sweep
is two matrix-vector products over the stored block.  The directions of a
run and their operator products live in one preallocated, Fortran-ordered
store, in both modes: ``fom`` reads the products in every sweep, and a
caller that recycles the directions reuses them instead of multiplying by A
again.  Each block is a contiguous prefix BLAS reads without copying; the
result gets both in the same layout, and a run told to keep no directions
(plain PCG, whose caller recycles nothing) stores neither.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Breakdown, DimensionMismatch, NotConverged
from .linalg import (
    DenseLowerTriangular,
    InstrumentationSink,
    SparseSpdMatrix,
    assemble_gram,
    dense_cholesky,
    spmv,
)

_BREAKDOWN_RTOL = 1e-14

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


def stack_blocks(arrays: list[np.ndarray], rows: int) -> np.ndarray:
    """The blocks side by side in one C-ordered array, written once.

    C order whatever the blocks' order: the layout decides how BLAS rounds
    products with the stacked basis, and the frozen fixtures pin that
    rounding.  A single block already in C order is returned as it is.
    """
    if len(arrays) == 1 and arrays[0].flags.c_contiguous:
        return arrays[0]
    out = np.empty((rows, sum(a.shape[1] for a in arrays)))
    return np.concatenate(arrays, axis=1, out=out) if arrays else out


class DirectReducedProjection:
    """Reduced solves mu = (B'AB)^{-1} B'Az over mutually A-orthogonal blocks.

    ``cross`` holds A*B (in whatever space the operator acts), C-ordered, so
    B'Az is the dense product cross' z and no operator application is
    needed.  The Gram matrix B'AB is block diagonal: the leading block is
    the dense Cholesky ``factor`` of the first block of B, and every block
    appended later is an A-orthonormal direction block (Gram block I).
    """

    def __init__(self, cross: np.ndarray, factor: DenseLowerTriangular):
        self.cross = np.ascontiguousarray(cross, dtype=np.float64)
        self.factor = factor

    def append(self, cross_block: np.ndarray) -> None:
        """Add an A-orthonormal block, A-orthogonal to those before, by A times it."""
        self.cross = stack_blocks([self.cross, cross_block], self.cross.shape[0])

    def solve_gram(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (B'AB) mu = rhs: backsolve the leading block, keep the rest."""
        m = self.factor.m
        if rhs.shape[0] != self.cross.shape[1]:
            raise DimensionMismatch("reduced projection: rhs length mismatch")
        return np.concatenate([self.factor.solve_spd(rhs[:m]), rhs[m:]])

    def __call__(self, z: np.ndarray) -> np.ndarray:
        return self.solve_gram(self.cross.T @ z)


class _DirectionStore:
    """The directions of one augmented-PCG run, in preallocated blocks.

    Column i of ``V`` is direction p_i at unit A-norm, p_i / sqrt(p_i'Ap_i),
    and column i of ``AV`` its product, both kept only when ``directions``,
    in either mode; ``alpha[i]`` is the step along that unit column.  The
    blocks are Fortran-ordered, so the live prefixes ``V[:, :k]`` and
    ``AV[:, :k]`` are contiguous blocks.  Capacity starts at
    min(64, max_iter) columns and doubles, capped at max_iter, when full.
    """

    def __init__(self, n: int, max_iter: int, directions: bool = True):
        cap = min(_STORE_INITIAL_COLS, max_iter)
        self.k = 0
        self.max_iter = max_iter
        self.V = np.empty((n, cap), order="F") if directions else None
        self.AV = np.empty((n, cap), order="F") if directions else None
        self.alpha = np.empty(cap)

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
        """p minus its A-projection onto every stored direction, by CGS2."""
        V, AV = self.V[:, :self.k], self.AV[:, :self.k]
        for _ in range(2):
            p = p - V @ (p @ AV)
        return p


def _grown(block: np.ndarray, k: int, cap: int) -> np.ndarray:
    """A copy of ``block`` with room for ``cap`` columns (entries, if 1-D)."""
    out = np.empty(block.shape[:-1] + (cap,), order="F")
    out[..., :k] = block[..., :k]
    return out


@dataclass
class AugmentedPcgResult:
    """Outputs of one augmented-PCG run.

    ``x`` is the final iterate in the run's own coordinates (the caller adds
    any outer centering); it equals Y @ yhat0 + V @ vhat.  The direction
    block V is A-orthonormal (up to round-off, and ``cg``'s loss of
    orthogonality), ``AV`` holds the operator's products with it, both
    Fortran-ordered.  A run that kept no directions returns V, AV and vhat
    with no columns; ``k`` still counts its iterations.
    """

    k: int
    vhat: np.ndarray
    V: np.ndarray
    AV: np.ndarray
    residual_history: np.ndarray
    x: np.ndarray
    converged: bool = True

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
        ``DimensionMismatch``.
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
        stores no directions or products and returns none.  Only
        ``mode="cg"`` can run without them.

    Raises
    ------
    NotConverged
        Iteration budget exhausted; carries the partial result.
    Breakdown
        Nonpositive direction curvature p'Ap, or a residual norm that is
        not finite.
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
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "fom" and not keep_directions:
        raise ValueError("mode 'fom' re-orthogonalizes against its stored directions")

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
        r = np.array(r0, dtype=np.float64)
    elif Y is not None and np.any(x):
        r = b - apply(x)
    else:
        r = b.copy()

    history = [float(np.linalg.norm(r))]
    if monitor is not None:
        monitor(0, x)

    if max_iter is None:
        max_iter = n
    store = _DirectionStore(n, max_iter, directions=keep_directions)

    def result(converged):
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
            converged=converged,
        )

    if history[0] <= tol:
        return result(True)

    z = precond.apply(r, sink) if precond is not None else r.copy()
    p = z - Y @ reduced_solver(z) if Y is not None else z.copy()
    rz = float(r @ z)

    for k in range(max_iter):
        Ap = apply(p)
        gamma = float(p @ Ap)
        if not np.isfinite(gamma) or gamma <= _BREAKDOWN_RTOL * float(p @ p):
            raise Breakdown(f"direction curvature {gamma:.3e} at iteration {k}",
                            iterations=k + 1)
        alpha = rz / gamma
        x = x + alpha * p
        r = r - alpha * Ap
        store.append(p, Ap, gamma, alpha)
        history.append(float(np.linalg.norm(r)))
        if not np.isfinite(history[-1]):
            raise Breakdown(f"residual norm {history[-1]} at iteration {k}", iterations=k + 1)
        if monitor is not None:
            monitor(k + 1, x)
        if history[-1] <= tol:
            return result(True)

        z = precond.apply(r, sink) if precond is not None else r.copy()
        rz_next = float(r @ z)
        mu = reduced_solver(z) if Y is not None else None
        if mode == "cg":
            p = z + (rz_next / rz) * p
            if Y is not None:
                p -= Y @ mu
        else:
            # block classical Gram-Schmidt, applied twice ("twice is
            # enough", Giraud et al. 2005), keeps the direction block
            # A-orthogonal even for badly conditioned operators
            p = store.a_orthogonalize(z - Y @ mu if Y is not None else z)
        rz = rz_next

    raise NotConverged(
        f"no convergence to {tol:.3e} within {max_iter} iterations",
        partial=result(False),
    )


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
