"""Compression of the accumulated direction block into an augmenting basis.

When the stored block Z (previous augmenting basis plus the latest Krylov
directions) grows past the storage cap, :func:`compress` shrinks it.  It is
the one reader of the strategy name; the solver only asks
:meth:`TruncationConfig.truncates` whether to call it.  The strategies:

- goal-oriented POD, ``pod-<metric>-<weights>``: snapshots weighted by the
  last solution's coefficients in the block (``prev``) or by an
  inverse-distance blend of the recent ones (``rbf``), energy measured in
  the metric of the just-solved matrix (``a``; the basis comes out
  A-orthonormal) or in the output metric C'C (``ctc``; the basis is then
  A-orthonormalized);
- harmonic-Ritz deflation (``deflate``), retaining approximations to the
  eigenvectors of the just-solved matrix with the smallest eigenvalues;
- ``none``, which never truncates.

POD truncation depends on the basis of the grown block, not only on its
range: permuting Z's columns together with the weight snapshots keeps the
retained span, but an A-orthogonal rotation Z <- ZQ, eta <- Q'eta, moves
it.  The unit-A-norm CG directions the staged solver appends are therefore
part of the method.

Every outcome carries the retained A-orthonormal basis, the stage-1 prefix
width, and the spectrum it was cut from.  Every strategy reads A only from
the products AZ: a caller that already holds them (the staged solver keeps
them from its solve) passes them as ``products`` and no matvec is spent;
without them :func:`compress` forms them once, one block product charged at
one matvec per column.  The products may come as one array or as the column
blocks the caller holds, side by side in Z's column order: every dense
product with AZ is then formed block by block, so no stacked copy is made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, RecyklError
from .linalg import (
    InstrumentationSink,
    SparseSpdMatrix,
    dense_cholesky,
    generalized_symmetric_evd,
    gram_cholesky,
    spmv,
)
from .pod import energy_dim, pod_evd_from_gram, pod_svd
from .weights import WeightHistory, weights_previous, weights_rbf

ALL_STRATEGIES = ("pod-a-prev", "pod-a-rbf", "pod-ctc-prev", "pod-ctc-rbf", "deflate", "none")


@dataclass
class TruncationConfig:
    """Truncation strategy plus the staged-solver shape parameters.

    ``nu_y`` and ``nu_w`` are the energy criteria deciding the retained
    dimension and the stage-1 prefix width for POD strategies; ``max_dim``
    and ``stage1_dim`` optionally pin them to fixed counts instead (the
    smaller of criterion and pin wins).  ``storage_cap`` is the accumulated
    width that triggers truncation; between truncations every new direction
    joins the stage-1 block.  ``full_orth`` selects the stage-3 variant that
    orthogonalizes against the entire augmenting basis, backsolving the
    Cholesky factor of its reduced matrix Y'AY.  ``deflate_dim``, the count
    deflation retains, and the pins ``max_dim`` and ``stage1_dim``, when
    set, are at least 1.
    """

    strategy: str = "pod-a-rbf"
    nu_y: float = 1.0
    nu_w: float = 0.5
    storage_cap: float = math.inf
    full_orth: bool = False
    deflate_dim: int | None = None
    max_dim: int | None = None
    stage1_dim: int | None = None

    def __post_init__(self):
        if self.strategy not in ALL_STRATEGIES:
            raise RecyklError(f"unknown truncation strategy {self.strategy!r}")
        if not 0.0 <= self.nu_w <= self.nu_y <= 1.0:
            raise RecyklError("energy criteria must satisfy 0 <= nu_w <= nu_y <= 1")
        if not self.storage_cap >= 1:  # NaN fails too
            raise RecyklError(f"storage cap must be at least 1, got {self.storage_cap}")
        if self.strategy == "deflate" and self.deflate_dim is None:
            raise RecyklError("deflation needs a retained count")
        for key in ("deflate_dim", "max_dim", "stage1_dim"):
            value = getattr(self, key)
            if value is not None and value < 1:
                raise RecyklError(f"{key} must be at least 1, got {value}")

    def truncates(self, width: int) -> bool:
        """Whether a block of ``width`` columns is compressed."""
        return width > self.storage_cap and self.strategy != "none"


@dataclass
class TruncationOutcome:
    Y_new: np.ndarray  # the retained basis, A-orthonormal
    stage1_width: int
    spectrum: np.ndarray  # POD singular values, or retained harmonic Ritz values
    # POD only: the energy criterion was unreachable within the numerical
    # rank, so the retained dimension stopped at the rank
    rank_truncated: bool = False


def _cap(value: int, pin: int | None, hard: int) -> int:
    out = value if pin is None else min(value, pin)
    return max(1, min(out, hard))


def _products(A: SparseSpdMatrix, Z: np.ndarray, products, sink=None) -> list[np.ndarray]:
    """AZ as a list of column blocks: the given ones, checked against Z, else formed on ``sink``.

    ``products`` is one array or a sequence of column blocks.
    """
    if products is None:
        return [spmv(A, Z, sink)]
    if isinstance(products, np.ndarray):
        products = [products]
    blocks = [np.asarray(block, dtype=np.float64) for block in products]
    shapes = [block.shape for block in blocks]
    if (not blocks or any(len(shape) != 2 or shape[0] != Z.shape[0] for shape in shapes)
            or sum(shape[1] for shape in shapes) != Z.shape[1]):
        raise DimensionMismatch(f"products are {shapes}, the block is {Z.shape}")
    return blocks


def _cross(B: np.ndarray, blocks: list[np.ndarray]) -> np.ndarray:
    """B'(AZ), one product per column block of AZ."""
    return np.concatenate([B.T @ block for block in blocks], axis=1)


def _times(blocks: list[np.ndarray], coef: np.ndarray) -> np.ndarray:
    """(AZ) coef, summed over the column blocks of AZ and their rows of ``coef``."""
    start = blocks[0].shape[1]
    out = blocks[0] @ coef[:start]
    for block in blocks[1:]:
        out += block @ coef[start:start + block.shape[1]]
        start += block.shape[1]
    return out


def deflation_compress(
    Z,
    A_prev: SparseSpdMatrix,
    m: int,
    *,
    stage1_dim: int | None = None,
    products=None,
) -> TruncationOutcome:
    """Harmonic-Ritz truncation of the block Z against the previous matrix.

    Solves the generalized eigenproblem (AZ)'(AZ) g = mu Z'AZ g whose
    eigenvalues approximate the spectrum of A restricted to range(Z), keeps
    the m pairs with smallest values, and A-orthonormalizes the result.
    A singular Z'AZ restricts the problem to the columns that
    :func:`~recykl.linalg.gram_cholesky` keeps, in their order.
    ``products``, when given, is AZ, one array or its column blocks: both
    matrices are then dense products of it, block by block, and A is not
    applied.
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=np.float64))
    blocks = _products(A_prev, Z, products)
    gram_az = _cross(Z, blocks)
    K = np.concatenate([_cross(block, blocks) for block in blocks], axis=0)
    kept = gram_cholesky(gram_az).kept
    if kept is not None:
        kept = np.sort(kept)
        Z, K, gram_az = Z[:, kept], K[np.ix_(kept, kept)], gram_az[np.ix_(kept, kept)]
    m = min(int(m), Z.shape[1])
    mu_desc, G = generalized_symmetric_evd(0.5 * (K + K.T), 0.5 * (gram_az + gram_az.T))
    # retain the m smallest harmonic Ritz values, ascending
    keep = G[:, ::-1][:, :m]
    mu = mu_desc[::-1][:m].copy()
    Y = Z @ keep
    gram_y = keep.T @ gram_az @ keep
    L = dense_cholesky(0.5 * (gram_y + gram_y.T))
    w = m if stage1_dim is None else min(stage1_dim, m)
    return TruncationOutcome(Y_new=L.solve_lower(Y.T).T, stage1_width=w, spectrum=mu)


def enforce_a_orthogonality(Y, A: SparseSpdMatrix, *, products=None):
    """Rescale Y so that Y'AY = I, returning the new basis and the factor.

    The range is unchanged: with Y'AY = L L', the result is Y L^{-T}.
    ``products``, when given, is AY, one array or its column blocks, and
    Y'AY is formed from it without applying A.
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=np.float64))
    gram = _cross(Y, _products(A, Y, products))
    L = dense_cholesky(0.5 * (gram + gram.T))
    return L.solve_lower(Y.T).T, L


def compress(
    Z,
    cfg: TruncationConfig,
    A: SparseSpdMatrix,
    history: WeightHistory,
    *,
    chalf=None,
    products=None,
    sink: InstrumentationSink | None = None,
) -> TruncationOutcome:
    """Compress the block Z by the configured strategy.

    ``A`` is the just-solved matrix and ``history`` the coefficient vectors
    of the solutions since the last truncation.  Deflation keeps harmonic
    Ritz vectors of A.  POD weights the snapshots with the last coefficient
    vector (``-prev``) or their inverse-distance blend (``-rbf``) and
    measures energy in A (``pod-a-``), whose basis comes out A-orthonormal,
    or in C'C for the output matrix ``chalf`` (``pod-ctc-``), whose basis is
    then A-orthonormalized.  The stage-1 width is read off the POD spectrum
    with the smaller energy criterion nu_w.

    Every strategy takes what it needs of A from the products AZ with dense
    products: A-metric POD the Gram matrix Z'(AZ), deflation (AZ)'(AZ) and
    Z'(AZ), and output-metric POD A Y_new = (AZ) coef for its
    A-orthonormalization.  ``products``, when given, is AZ: one array, or
    the column blocks the caller holds (the staged solver hands over A times
    the old basis and the new directions' products), each product then
    formed block by block with no stacked copy.  Without it AZ is formed
    once, one block product charged to ``sink`` at one matvec per column.
    """
    if cfg.strategy == "none":
        raise RecyklError("strategy 'none' keeps the whole block: nothing to compress")
    Z = np.atleast_2d(np.asarray(Z, dtype=np.float64))
    blocks = _products(A, Z, products, sink)
    if cfg.strategy == "deflate":
        return deflation_compress(Z, A, cfg.deflate_dim, stage1_dim=cfg.stage1_dim,
                                  products=blocks)
    if cfg.strategy.endswith("-rbf"):
        weights = weights_rbf(history, len(history))
    else:
        weights = weights_previous(history)
    output_metric = cfg.strategy.startswith("pod-ctc")
    if output_metric:
        if chalf is None:
            raise DimensionMismatch("output-metric truncation needs the output matrix")
        res = pod_svd(Z, weights, chalf, cfg.nu_y)
    else:
        res = pod_evd_from_gram(_cross(Z, blocks), Z, weights, cfg.nu_y)
    y = _cap(res.y, cfg.max_dim, res.y)
    # nu_w <= nu_y, so a rank-cut stage-1 width implies a rank-cut res.y
    w, _ = energy_dim(res.singular_values**2, cfg.nu_w)
    w = _cap(w, cfg.stage1_dim, y)
    Y = Z @ res.coef[:, :y]  # only the kept columns are formed
    if output_metric:
        Y, _ = enforce_a_orthogonality(Y, A, products=_times(blocks, res.coef[:, :y]))
    return TruncationOutcome(Y_new=Y, stage1_width=w, spectrum=res.singular_values,
                             rank_truncated=res.rank_truncated)
