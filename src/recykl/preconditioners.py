"""SPD preconditioners: Jacobi and SSOR.

SSOR plays the role of a preconditioner that is expensive relative to a
matvec (two triangular sweeps); Jacobi is the cheap alternative.  Application
solves M z = r for the fixed SPD operator

    M = (D/w + L) D^{-1} (D/w + L)'      (SSOR, relaxation w in (0, 2))

with A = L + D + L' split into strictly lower, diagonal, and upper parts.
The build factors the triangle D/w + L once with SuperLU (natural order, no
pivot search); an application is its solve, a scaling by D, and its
transposed solve, so both sweeps come from the one factor.  PCG is
invariant to positive scaling of M, so no scalar normalization is applied.
No preconditioner at all (the ``identity`` kind of a solver configuration)
is ``precond=None`` to the Krylov solvers, never an object.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .errors import DimensionMismatch, NotPositiveDefinite, RecyklError
from .linalg import InstrumentationSink, SparseSpdMatrix


class Preconditioner:
    """Ready-to-apply SPD operator M with z = apply(r) solving M z = r."""

    def __init__(self, n: int):
        self.n = n

    def apply(self, r: np.ndarray, sink: InstrumentationSink | None = None) -> np.ndarray:
        if r.shape[0] != self.n:
            raise DimensionMismatch("preconditioner: vector length mismatch")
        if sink is not None:
            sink.add_precond()
        return self._solve(np.asarray(r, dtype=np.float64))

    def _solve(self, r: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class JacobiPreconditioner(Preconditioner):
    def __init__(self, A: SparseSpdMatrix):
        super().__init__(A.n)
        diag = A.diagonal()
        if np.any(diag <= 0.0):
            raise NotPositiveDefinite("Jacobi preconditioner needs positive diagonal")
        self._inv_diag = 1.0 / diag

    def _solve(self, r):
        return r * self._inv_diag


class SsorPreconditioner(Preconditioner):
    """SSOR with relaxation ``omega`` in (0, 2), which :func:`parse_kind` checks."""

    def __init__(self, A: SparseSpdMatrix, omega: float):
        super().__init__(A.n)
        diag = A.diagonal()
        if np.any(diag <= 0.0):
            raise NotPositiveDefinite("SSOR preconditioner needs positive diagonal")
        # A is symmetric, so the upper triangle of its CSR arrays, read as
        # CSC, is the lower factor D/w + L
        csr = A.to_scipy()
        rows = np.repeat(np.arange(A.n), np.diff(csr.indptr))
        keep = csr.indices >= rows
        kept = np.concatenate(([0], np.cumsum(keep)))
        cols, data = csr.indices[keep], csr.data[keep]
        data[cols == rows[keep]] /= omega
        lower = scipy.sparse.csc_matrix((data, cols, kept[csr.indptr]), shape=A.shape)
        # SuperLU with natural ordering and no pivot search factors the
        # triangular matrix as it stands and gives C-speed sweeps in both
        # directions (a spsolve_triangular sweep is 7x slower).  The factor
        # of a triangle needs no column updates, so one-column panels give
        # the same factor; wider ones cost 2.5 of 4.2 ms at 100x100.
        self._lu = scipy.sparse.linalg.splu(
            lower,
            permc_spec="NATURAL",
            options={"DiagPivotThresh": 0.0, "PanelSize": 1},
        )
        self._diag = diag

    def _solve(self, r):
        u = self._lu.solve(r)
        u *= self._diag
        return self._lu.solve(u, trans="T")


def parse_kind(kind: str) -> float | None:
    """The SSOR relaxation a preconditioner kind names; None for ``jacobi``.

    ``kind`` is ``jacobi``, ``ssor`` (relaxation 1), or ``ssor:<omega>``
    with omega in (0, 2); anything else raises :class:`RecyklError`.  A
    solver configuration calls this when it is made, so a malformed kind
    fails before any solve.
    """
    if kind == "jacobi":
        return None
    name, sep, val = kind.partition(":")
    if name != "ssor":
        raise RecyklError(f"unknown preconditioner kind {kind!r}")
    try:
        omega = float(val) if sep else 1.0
    except ValueError:
        raise RecyklError(f"SSOR relaxation must be a number, got {val!r}") from None
    if not 0.0 < omega < 2.0:
        raise RecyklError(f"SSOR relaxation must lie in (0, 2), got {omega}")
    return omega


def build(kind: str, A: SparseSpdMatrix) -> Preconditioner:
    """Construct the preconditioner of kind ``kind`` (see :func:`parse_kind`) for A."""
    omega = parse_kind(kind)
    return JacobiPreconditioner(A) if omega is None else SsorPreconditioner(A, omega)
