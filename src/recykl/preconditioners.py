"""SPD preconditioners: Jacobi and SSOR.

SSOR plays the role of a preconditioner that is expensive relative to a
matvec (two triangular sweeps); Jacobi is the cheap alternative.  Application
solves M z = r for the fixed SPD operator

    M = (D/w + L) D^{-1} (D/w + L)'      (SSOR, relaxation w in (0, 2))

with A = L + D + L' split into strictly lower, diagonal, and upper parts.
PCG is invariant to positive scaling of M, so no scalar normalization is
applied.  No preconditioner at all (the ``identity`` kind of a solver
configuration) is ``precond=None`` to the Krylov solvers, never an object.
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
    def __init__(self, A: SparseSpdMatrix, omega: float):
        super().__init__(A.n)
        if not 0.0 < omega < 2.0:
            raise RecyklError(f"SSOR relaxation must lie in (0, 2), got {omega}")
        diag = A.diagonal()
        if np.any(diag <= 0.0):
            raise NotPositiveDefinite("SSOR preconditioner needs positive diagonal")
        csr = A.to_scipy()
        lower = scipy.sparse.tril(csr, k=-1) + scipy.sparse.diags(diag / omega)
        # SuperLU with natural ordering factors the triangular matrix in place
        # and gives C-speed sweeps; spsolve_triangular is a Python-level loop.
        self._lower_solve = scipy.sparse.linalg.splu(
            lower.tocsc(), permc_spec="NATURAL", options={"SymmetricMode": False}
        )
        self._upper_solve = scipy.sparse.linalg.splu(
            lower.T.tocsc(), permc_spec="NATURAL", options={"SymmetricMode": False}
        )
        self._diag = diag

    def _solve(self, r):
        u = self._lower_solve.solve(r)
        u *= self._diag
        return self._upper_solve.solve(u)


def build(kind: str, A: SparseSpdMatrix) -> Preconditioner:
    """Construct a preconditioner for A.

    ``kind`` is ``jacobi``, ``ssor`` (relaxation 1), or ``ssor:<omega>``.
    """
    if kind == "jacobi":
        return JacobiPreconditioner(A)
    name, sep, val = kind.partition(":")
    if name == "ssor":
        try:
            omega = float(val) if sep else 1.0
        except ValueError:
            raise RecyklError(f"SSOR relaxation must be a number, got {val!r}") from None
        return SsorPreconditioner(A, omega)
    raise RecyklError(f"unknown preconditioner kind {kind!r}")
