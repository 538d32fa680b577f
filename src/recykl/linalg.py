"""Sparse and dense kernels shared by all solvers.

Sparse SPD matrices are stored in CSR layout with both triangles so the
matrix-vector product is a single row sweep.  Dense factorizations delegate
to LAPACK (via numpy/scipy) since every reduced matrix in this library is at
most a few hundred rows.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import (
    DimensionMismatch,
    IterationLimit,
    NotPositiveDefinite,
    NotSymmetric,
    RankDeficient,
)

_SYMMETRY_RTOL = 1e-12


class InstrumentationSink:
    """Counters for the operation costs of one solve.

    Each solve owns its sink: :func:`recykl.threestage.solve_system` makes
    one unless handed one.  The counters are plain integers with no lock,
    so a sink is not thread-safe and must not be shared between threads.
    """

    def __init__(self):
        self.matvecs = 0
        self.precond_applies = 0
        self.reorth_sweeps = 0

    def add_matvec(self, count: int) -> None:
        self.matvecs += count

    def add_precond(self) -> None:
        self.precond_applies += 1

    def add_reorth_sweep(self) -> None:
        self.reorth_sweeps += 1


class SparseSpdMatrix:
    """Symmetric positive-definite sparse matrix in CSR layout.

    Both triangles are stored explicitly (2x memory, single-sweep matvec).
    The one copy of the CSR arrays is the wrapped scipy matrix's, with the
    index width scipy picks (int32 while the entries fit); the properties
    ``row_offsets``, ``col_indices`` and ``values`` return its arrays.
    Construction validates squareness, finite entries, numerical symmetry to
    1e-12 relative, and strictly positive diagonal entries.  Instances are
    immutable and safe to share across threads.
    """

    def __init__(self, n, row_offsets, col_indices, values):
        self.n = int(n)
        row_offsets = np.asarray(row_offsets)
        if row_offsets.shape != (self.n + 1,):
            raise DimensionMismatch(
                f"row_offsets must have length n+1={self.n + 1}, got {row_offsets.shape}"
            )
        self._csr = scipy.sparse.csr_matrix(
            (np.asarray(values, dtype=np.float64), col_indices, row_offsets),
            shape=(self.n, self.n),
        )
        self._validate()

    @classmethod
    def from_dense(cls, mat) -> "SparseSpdMatrix":
        csr = scipy.sparse.csr_matrix(np.asarray(mat, dtype=np.float64))
        return cls(csr.shape[0], csr.indptr, csr.indices, csr.data)

    @classmethod
    def from_scipy(cls, mat) -> "SparseSpdMatrix":
        """Wrap a scipy sparse matrix; a float64 CSR input is taken over, not copied."""
        csr = scipy.sparse.csr_matrix(mat).astype(np.float64, copy=False)
        csr.sum_duplicates()
        return cls(csr.shape[0], csr.indptr, csr.indices, csr.data)

    @classmethod
    def identity(cls, n: int) -> "SparseSpdMatrix":
        return cls.from_scipy(scipy.sparse.identity(n, format="csr"))

    @classmethod
    def from_diagonal(cls, diag) -> "SparseSpdMatrix":
        return cls.from_scipy(scipy.sparse.diags(np.asarray(diag, dtype=np.float64), format="csr"))

    def _validate(self) -> None:
        bad = np.flatnonzero(~np.isfinite(self.values))
        if bad.size:
            raise NotPositiveDefinite(f"entry {self.values[bad[0]]!r} is not finite")
        scale = float(np.max(np.abs(self.values))) if self.values.size else 0.0
        asym = self._csr - self._csr.T
        if asym.nnz and scale > 0:
            worst = float(np.max(np.abs(asym.data)))
            if worst > _SYMMETRY_RTOL * scale:
                raise NotSymmetric(
                    f"matrix asymmetry {worst:.3e} exceeds {_SYMMETRY_RTOL:.0e} * {scale:.3e}"
                )
        diag = self._csr.diagonal()
        bad = np.where(diag <= 0.0)[0]
        if bad.size:
            raise NotPositiveDefinite(
                f"diagonal entry {bad[0]} is {diag[bad[0]]!r}, must be > 0", pivot=int(bad[0])
            )

    @property
    def row_offsets(self) -> np.ndarray:
        return self._csr.indptr

    @property
    def col_indices(self) -> np.ndarray:
        return self._csr.indices

    @property
    def values(self) -> np.ndarray:
        return self._csr.data

    @property
    def shape(self):
        return (self.n, self.n)

    def diagonal(self) -> np.ndarray:
        return self._csr.diagonal()

    def to_scipy(self) -> scipy.sparse.csr_matrix:
        return self._csr

    def to_dense(self) -> np.ndarray:
        return self._csr.toarray()


def spmv(A: SparseSpdMatrix, x, sink: InstrumentationSink | None = None) -> np.ndarray:
    """Sparse matrix-vector product A @ x, or A @ X for a block of columns.

    Counts one matvec per column on ``sink`` when provided.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != A.n:
        raise DimensionMismatch(f"matvec: matrix is {A.n}x{A.n}, vector has length {x.shape[0]}")
    if sink is not None:
        sink.add_matvec(1 if x.ndim == 1 else x.shape[1])
    return A.to_scipy() @ x


def assemble_gram(A: SparseSpdMatrix, B: np.ndarray, sink: InstrumentationSink | None = None):
    """Densely assemble the reduced matrix B'AB and the product AB.

    The staged solver calls it for the stage-1 block; it forms the reduced
    matrix Y'AY of the whole basis itself, reusing these products.  Every
    call charges one matvec per column of B to the sink.
    """
    B = np.atleast_2d(np.asarray(B, dtype=np.float64))
    if B.shape[0] != A.n:
        raise DimensionMismatch("assemble_gram: basis rows must match matrix dimension")
    if sink is not None:
        sink.add_matvec(B.shape[1])
    AB = A.to_scipy() @ B
    return B.T @ AB, AB


class DenseLowerTriangular:
    """Lower-triangular Cholesky factor L with G = L L'."""

    def __init__(self, L: np.ndarray):
        # C order pins which LAPACK call solve_triangular makes, and with it
        # the rounding of every reduced solve
        self._full = np.ascontiguousarray(L, dtype=np.float64)
        self.m = self._full.shape[0]
        if self._full.shape != (self.m, self.m):
            raise DimensionMismatch("triangular factor must be square")
        if self.m and np.any(np.diag(self._full) <= 0.0):
            raise NotPositiveDefinite("lower-triangular factor must have positive diagonal")

    def full(self) -> np.ndarray:
        return self._full.copy()

    def solve_lower(self, rhs: np.ndarray) -> np.ndarray:
        """Solve L x = rhs (vector or matrix right-hand side)."""
        return self._trtrs(rhs, trans=1)

    def solve_upper(self, rhs: np.ndarray) -> np.ndarray:
        """Solve L' x = rhs (vector or matrix right-hand side)."""
        return self._trtrs(rhs, trans=0)

    def _trtrs(self, rhs, trans: int) -> np.ndarray:
        # The C-ordered L is the Fortran-ordered upper factor L', so this is
        # the LAPACK call scipy.linalg.solve_triangular makes, without its
        # per-call overhead.  Non-finite input raises its ValueError.
        rhs = np.asarray_chkfinite(rhs, dtype=np.float64)
        if rhs.shape[0] != self.m:
            raise DimensionMismatch(f"triangular solve: factor is {self.m}x{self.m}, "
                                    f"rhs has {rhs.shape[0]} rows")
        if rhs.size == 0:  # dtrtrs rejects an empty system
            return np.empty_like(rhs)
        x, info = scipy.linalg.lapack.dtrtrs(self._full.T, rhs, lower=0, trans=trans)
        if info > 0:
            raise NotPositiveDefinite(f"triangular factor has a zero pivot at {info - 1}",
                                      pivot=int(info - 1))
        if info < 0:
            raise DimensionMismatch(f"dtrtrs: illegal argument {-info}")
        return x

    def solve_spd(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (L L') x = rhs by one forward and one back substitution."""
        return self.solve_upper(self.solve_lower(rhs))


def dense_cholesky(G: np.ndarray) -> DenseLowerTriangular:
    """Cholesky factorization G = L L' of a dense SPD matrix.

    Raises NotPositiveDefinite carrying the index of the first failing pivot.
    """
    G = np.asarray(G, dtype=np.float64)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise DimensionMismatch("dense_cholesky: matrix must be square")
    if G.shape[0] == 0:
        return DenseLowerTriangular(np.zeros((0, 0)))
    L, info = scipy.linalg.lapack.dpotrf(G, lower=1, clean=1, overwrite_a=0)
    if info > 0:
        raise NotPositiveDefinite(
            f"leading minor of order {info} is not positive definite", pivot=int(info - 1)
        )
    if info < 0:
        raise DimensionMismatch(f"dpotrf: illegal argument {-info}")
    return DenseLowerTriangular(L)


def symmetric_evd(G: np.ndarray):
    """Eigendecomposition of a dense symmetric matrix, eigenvalues descending.

    Returns (eigenvalues, eigenvectors) with G V = V diag(w) and V'V = I.
    """
    G = np.asarray(G, dtype=np.float64)
    try:
        w, V = np.linalg.eigh(G)
    except np.linalg.LinAlgError as exc:
        raise IterationLimit(f"symmetric EVD did not converge: {exc}") from exc
    return w[::-1].copy(), V[:, ::-1].copy()


def thin_svd(B: np.ndarray):
    """Thin SVD B = U diag(s) V' with singular values descending."""
    B = np.atleast_2d(np.asarray(B, dtype=np.float64))
    try:
        U, s, Vt = np.linalg.svd(B, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise IterationLimit(f"SVD did not converge: {exc}") from exc
    return U, s, Vt.T


def generalized_symmetric_evd(K: np.ndarray, Mmat: np.ndarray):
    """Solve K G = Mmat G diag(w) for symmetric K and SPD Mmat.

    Eigenvalues are returned in descending order; eigenvectors are
    Mmat-orthonormal.
    """
    K = np.asarray(K, dtype=np.float64)
    Mmat = np.asarray(Mmat, dtype=np.float64)
    if K.shape != Mmat.shape:
        raise DimensionMismatch("generalized EVD: operand shapes differ")
    try:
        w, G = scipy.linalg.eigh(K, Mmat)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise NotPositiveDefinite(f"mass matrix is not SPD: {exc}") from exc
    return w[::-1].copy(), G[:, ::-1].copy()


def _orthonormal_basis(B: np.ndarray, label: str) -> np.ndarray:
    if B.shape[1] == 0:
        return B
    U, s, _ = np.linalg.svd(B, full_matrices=False)
    if s[0] == 0.0 or s[-1] <= max(B.shape) * np.finfo(float).eps * s[0]:
        raise RankDeficient(f"{label} basis is rank deficient")
    return U


def principal_angle_distance(U, V) -> float:
    """sin of the largest principal angle between range(U) and range(V).

    Equals max over unit u in range(U) of the distance from u to range(V);
    symmetric whenever the two subspaces have equal dimension.  Computed from
    the singular values of the residual (I - P_V) Q_U, which stays accurate
    for nearly coincident subspaces.
    """
    Qu = _orthonormal_basis(np.atleast_2d(np.asarray(U, dtype=np.float64)), "first")
    Qv = _orthonormal_basis(np.atleast_2d(np.asarray(V, dtype=np.float64)), "second")
    if Qu.shape[0] != Qv.shape[0]:
        raise DimensionMismatch("principal_angle_distance: ambient dimensions differ")
    if Qu.shape[1] == 0:
        return 0.0
    if Qv.shape[1] == 0:
        return 1.0
    resid = Qu - Qv @ (Qv.T @ Qu)
    d = float(np.linalg.norm(resid, 2))
    return min(max(d, 0.0), 1.0)
