"""Goal-oriented proper orthogonal decomposition with energy truncation.

Given snapshots S, per-snapshot weights gamma, and a symmetric
positive-semidefinite (pseudo)metric Theta, the POD basis of dimension y
minimizes the sum of squared Theta-norm projection errors of the weighted
snapshots over all y-dimensional subspaces of range(S diag(gamma)).  Two
equivalent computations are provided: an eigendecomposition of the weighted
Gram matrix (the method of snapshots, right choice when only Theta-products
are available) and an SVD of the factored snapshots (right choice when a
factor F with Theta = F'F is at hand, e.g. an output map).

The returned basis columns are Theta-orthonormal, optimally ordered, and
nested: the basis for a smaller energy criterion is a column prefix of the
basis for a larger one.  Truncation (:func:`recykl.truncation.compress`)
uses the Gram route for the metric of the system matrix, where the solver
may already hold the Gram block, and the SVD route for the output metric
C'C with factor F = C.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyBasis
from .linalg import SparseSpdMatrix, symmetric_evd, thin_svd

_RANK_RTOL = 1e-12  # on sigma^2, relative to the largest


@dataclass
class PodBasisResult:
    """A POD basis as snapshot coefficients; a caller keeping k columns forms S @ coef[:, :k]."""

    snapshots: np.ndarray  # the snapshots S, n x s, shared with the caller
    singular_values: np.ndarray  # full spectrum, descending, length = snapshot count
    coef: np.ndarray  # snapshot coefficients, s x y
    rank_truncated: bool = False  # the energy criterion was unreachable within the rank

    @property
    def y(self) -> int:
        return self.coef.shape[1]

    @property
    def columns(self) -> np.ndarray:  # the Theta-orthonormal basis, n x y, formed on each read
        return self.snapshots @ self.coef


def energy_truncation_dim(sigma_sq, eps: float) -> int:
    """Smallest dimension whose cumulative spectral energy reaches eps.

    ``sigma_sq`` must be nonincreasing and nonnegative.  Modes below the rank
    tolerance 1e-12 * sigma_sq[0] are never selected; if the criterion cannot
    be met within the numerical rank (possible only through roundoff-level
    trailing energy), the rank is returned.
    """
    return energy_dim(sigma_sq, eps)[0]


def energy_dim(sigma_sq, eps: float) -> tuple[int, bool]:
    """:func:`energy_truncation_dim`'s dimension, and whether it was cut at the rank.

    The flag is the one report of an unreachable criterion; the POD
    routines pass it on as ``rank_truncated``.
    """
    sigma_sq = np.asarray(sigma_sq, dtype=np.float64)
    if sigma_sq.size == 0:
        raise EmptyBasis("empty spectrum")
    if np.any(np.diff(sigma_sq) > 0) or np.any(sigma_sq < -_RANK_RTOL * max(sigma_sq[0], 0.0)):
        raise DimensionMismatch("spectrum must be nonincreasing and nonnegative")
    total = float(np.sum(sigma_sq))
    if sigma_sq[0] <= 0.0 or total <= 0.0:
        raise EmptyBasis("all spectral energy is zero")
    rank = int(np.sum(sigma_sq > _RANK_RTOL * sigma_sq[0]))
    ratios = np.cumsum(sigma_sq) / total
    admissible = np.where(ratios[:rank] >= eps)[0]
    if admissible.size == 0:
        return rank, True
    return int(admissible[0]) + 1, False


def _finalize(S, gamma, sigma, V, eps):
    if np.all(gamma == 0.0):
        raise EmptyBasis("all snapshot weights are zero")
    sigma_sq = np.maximum(sigma, 0.0) ** 2
    y, rank_truncated = energy_dim(sigma_sq, eps)
    coef = (V[:, :y] / sigma[:y]) * gamma[:, None]
    return PodBasisResult(snapshots=S, singular_values=np.maximum(sigma, 0.0), coef=coef,
                          rank_truncated=rank_truncated)


def pod_evd(S, gamma, theta, eps: float) -> PodBasisResult:
    """POD basis via eigendecomposition of the weighted Gram matrix.

    Parameters
    ----------
    S : array (n x s)
        Snapshot columns.
    gamma : array (s,)
        Snapshot weights.
    theta : SparseSpdMatrix or dense array
        Explicit SPD metric.
    eps : float
        Energy criterion in [0, 1]; eps = 0 keeps a single mode.
    """
    S = np.atleast_2d(np.asarray(S, dtype=np.float64))
    gamma = np.asarray(gamma, dtype=np.float64)
    if gamma.shape[0] != S.shape[1]:
        raise DimensionMismatch("one weight per snapshot required")
    theta_mat = theta.to_scipy() if isinstance(theta, SparseSpdMatrix) else np.asarray(theta)
    gram = S.T @ (theta_mat @ S)
    return pod_evd_from_gram(gram, S, gamma, eps)


def pod_evd_from_gram(gram_sts, S, gamma, eps: float) -> PodBasisResult:
    """Method-of-snapshots POD from a precomputed S'Theta S block."""
    S = np.atleast_2d(np.asarray(S, dtype=np.float64))
    gamma = np.asarray(gamma, dtype=np.float64)
    gram_sts = np.asarray(gram_sts, dtype=np.float64)
    weighted = gamma[:, None] * gram_sts * gamma[None, :]
    eigs, V = symmetric_evd(0.5 * (weighted + weighted.T))
    sigma = np.sqrt(np.maximum(eigs, 0.0))
    return _finalize(S, gamma, sigma, V, eps)


def pod_svd(S, gamma, chalf, eps: float) -> PodBasisResult:
    """POD basis via thin SVD of the factored weighted snapshots.

    ``chalf`` is a factor F with Theta = F'F; F may have fewer rows than
    columns, in which case the metric is only positive semidefinite and
    snapshot components in its null space carry no energy.
    """
    S = np.atleast_2d(np.asarray(S, dtype=np.float64))
    gamma = np.asarray(gamma, dtype=np.float64)
    chalf = np.atleast_2d(np.asarray(chalf, dtype=np.float64))
    if gamma.shape[0] != S.shape[1]:
        raise DimensionMismatch("one weight per snapshot required")
    if chalf.shape[1] != S.shape[0]:
        raise DimensionMismatch("metric factor columns must match snapshot length")
    factored = (chalf @ S) * gamma  # q x s: no weighted n x s copy of S
    _, sigma, V = thin_svd(factored)
    s = S.shape[1]
    if sigma.shape[0] < s:
        # components beyond the factor rank carry zero energy
        sigma = np.concatenate([sigma, np.zeros(s - sigma.shape[0])])
        Vfull = np.zeros((s, s))
        Vfull[:, : V.shape[1]] = V
        V = Vfull
    return _finalize(S, gamma, sigma, V, eps)
