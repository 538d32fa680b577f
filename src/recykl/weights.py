"""Snapshot-weight schemes for goal-oriented truncation.

The snapshots handed to POD are the accumulated basis columns; the weights
decide which directions of that block matter.  The ideal weights are the
Galerkin coordinates of the *current* centered solution in the accumulated
block, which costs a full reduced solve with the current matrix and is
therefore only an oracle for studies.  The computable schemes reuse the
correspondingly cheap data from previous solves:

- previous weights: the expansion coefficients of the last computed solution
  in the accumulated block (free bookkeeping);
- radial-basis-function weights: an inverse-distance blend of the previous
  coefficient vectors, rho(r) = 1 / 2**(r-1) for the solution r systems back,
  over a window reaching back to the most recent truncation.

Earlier coefficient vectors are shorter than the current block; because the
block only grows by appending columns between truncations, zero-padding them
on the right is exact.
"""

from __future__ import annotations

import numpy as np

from .errors import NoHistory
from .krylov import direct_reduced_solve
from .linalg import SparseSpdMatrix, spmv


def idw_weight(r: int) -> float:
    """Inverse-distance weight for the solution r systems back (r >= 1)."""
    return 1.0 / 2.0 ** (r - 1)


class WeightHistory:
    """Coefficient vectors of previous solutions in the accumulated block.

    Entries are stored in the coordinates of the block as it existed when
    each solution was computed; reads zero-pad them to the current width.
    """

    def __init__(self):
        self._entries: list[np.ndarray] = []

    def __len__(self) -> int:
        return len(self._entries)

    def push(self, eta) -> None:
        self._entries.append(np.asarray(eta, dtype=np.float64).copy())

    def reset(self) -> None:
        self._entries.clear()

    def width(self) -> int:
        return max((e.shape[0] for e in self._entries), default=0)

    def padded(self, index: int) -> np.ndarray:
        e = self._entries[index]
        out = np.zeros(self.width())
        out[: e.shape[0]] = e
        return out


def weights_ideal(Z, A: SparseSpdMatrix, b, xguess=None) -> np.ndarray:
    """Galerkin coordinates of the current centered solution in range(Z).

    Oracle only: this is a full reduced solve with the current matrix, the
    exact cost truncation is trying to avoid.  Used by weight studies and
    bound checks, never on the production path.
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=np.float64))
    b = np.asarray(b, dtype=np.float64)
    rhs = b if xguess is None else b - spmv(A, xguess)
    what, _ = direct_reduced_solve(A, rhs, Z)
    return what


def weights_previous(history: WeightHistory) -> np.ndarray:
    """Coefficients of the most recent solution in the current block."""
    if len(history) == 0:
        raise NoHistory("no previous solve recorded")
    return history.padded(len(history) - 1)


def weights_rbf(history: WeightHistory, omega: int) -> np.ndarray:
    """Inverse-distance blend of the last ``omega`` coefficient vectors."""
    if len(history) == 0:
        raise NoHistory("no previous solve recorded")
    omega = max(1, min(int(omega), len(history)))
    out = np.zeros(history.width())
    last = len(history) - 1
    for i in range(1, omega + 1):
        out += idw_weight(i) * history.padded(last - (i - 1))
    return out
