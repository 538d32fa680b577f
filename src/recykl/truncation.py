"""Compression of the accumulated direction block into an augmenting basis.

When the stored block Z (previous augmenting basis plus the latest Krylov
directions) exceeds the storage cap, one of several strategies shrinks it:

- goal-oriented POD in the metric of the just-solved matrix (basis comes out
  automatically A-orthonormal, no enforcement needed) or in the output
  metric C'C (followed by explicit A-orthogonalization);
- harmonic-Ritz deflation, retaining approximations to the eigenvectors of
  the just-solved matrix with the smallest eigenvalues;
- a passthrough that keeps the whole block.

Every outcome carries the retained basis, the stage-1 prefix width, and the
map expressing new columns in old-block coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, RecyklError
from .linalg import (
    InstrumentationSink,
    SparseSpdMatrix,
    assemble_gram,
    dense_cholesky,
    generalized_symmetric_evd,
)
from .pod import PodMetric, energy_truncation_dim, pod_evd_from_gram, pod_svd

POD_STRATEGIES = ("pod-a-prev", "pod-a-rbf", "pod-ctc-prev", "pod-ctc-rbf")
ALL_STRATEGIES = POD_STRATEGIES + ("deflate", "none")


@dataclass
class TruncationConfig:
    """Truncation strategy plus the staged-solver shape parameters.

    ``nu_y`` and ``nu_w`` are the energy criteria deciding the retained
    dimension and the stage-1 prefix width for POD strategies; ``max_dim``
    and ``stage1_dim`` optionally pin them to fixed counts instead (the
    smaller of criterion and pin wins).  ``storage_cap`` is the accumulated
    width that triggers truncation, ``stage1_threshold`` the per-direction
    admission threshold for growing the stage-1 basis between truncations,
    and ``full_orth`` selects the stage-3 variant that orthogonalizes
    against the entire augmenting basis through inner iterations.
    """

    strategy: str = "pod-a-rbf"
    nu_y: float = 1.0
    nu_w: float = 0.5
    storage_cap: float = math.inf
    stage1_threshold: float = 1.0
    full_orth: bool = False
    deflate_dim: int | None = None
    max_dim: int | None = None
    stage1_dim: int | None = None

    def __post_init__(self):
        if self.strategy not in ALL_STRATEGIES:
            raise RecyklError(f"unknown truncation strategy {self.strategy!r}")
        if not 0.0 <= self.nu_w <= self.nu_y <= 1.0:
            raise RecyklError("energy criteria must satisfy 0 <= nu_w <= nu_y <= 1")
        if self.storage_cap < 1:
            raise RecyklError("storage cap must be at least 1")
        if not 0.0 <= self.stage1_threshold <= 1.0:
            raise RecyklError("stage-1 threshold must lie in [0, 1]")
        if self.strategy == "deflate" and self.deflate_dim is None:
            raise RecyklError("deflation needs a retained count")

    @property
    def uses_output_metric(self) -> bool:
        return self.strategy in ("pod-ctc-prev", "pod-ctc-rbf")

    @property
    def weight_kind(self) -> str:
        return "rbf" if self.strategy.endswith("rbf") else "prev"


def parse_strategy(text: str) -> dict:
    """Parse a CLI strategy string into TruncationConfig keyword arguments."""
    if text.startswith("deflate:"):
        return {"strategy": "deflate", "deflate_dim": int(text.split(":", 1)[1])}
    if text in ALL_STRATEGIES and text != "deflate":
        return {"strategy": text}
    raise RecyklError(f"unknown truncation strategy {text!r}")


@dataclass
class TruncationOutcome:
    Y_new: np.ndarray
    stage1_width: int
    truncation_map: np.ndarray  # Y_new = Z @ truncation_map
    spectrum: np.ndarray | None = None
    enforced: bool = False  # True once the basis is A-orthonormal


def _cap(value: int, pin: int | None, hard: int) -> int:
    out = value if pin is None else min(value, pin)
    return max(1, min(out, hard))


def pod_compress(
    Z,
    weights,
    metric: PodMetric,
    cfg: TruncationConfig,
    *,
    gram=None,
    sink: InstrumentationSink | None = None,
) -> TruncationOutcome:
    """Goal-oriented POD truncation of the block Z with snapshot weights.

    For an explicit metric the Gram block Z'Theta Z may be supplied when the
    caller already holds it; otherwise it is assembled here (and audited on
    the sink).  The stage-1 width is read off the same spectrum with the
    smaller energy criterion nu_w.
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=np.float64))
    weights = np.asarray(weights, dtype=np.float64)
    if metric.kind == "explicit":
        if gram is None:
            theta = metric.operand
            if isinstance(theta, SparseSpdMatrix):
                gram, _ = assemble_gram(theta, Z, sink)
            else:
                gram = Z.T @ np.asarray(theta) @ Z
        res = pod_evd_from_gram(gram, Z, weights, cfg.nu_y)
    else:
        res = pod_svd(Z, weights, metric.operand, cfg.nu_y)
    y = _cap(res.y, cfg.max_dim, res.y)
    sigma_sq = res.singular_values**2
    w = _cap(energy_truncation_dim(sigma_sq, cfg.nu_w), cfg.stage1_dim, y)
    return TruncationOutcome(
        Y_new=res.columns[:, :y],
        stage1_width=w,
        truncation_map=res.snapshot_coef[:, :y],
        spectrum=res.singular_values,
        enforced=metric.kind == "explicit",
    )


def deflation_compress(
    Z,
    A_prev: SparseSpdMatrix,
    m: int,
    *,
    stage1_dim: int | None = None,
    sink: InstrumentationSink | None = None,
) -> TruncationOutcome:
    """Harmonic-Ritz truncation of the block Z against the previous matrix.

    Solves the generalized eigenproblem (AZ)'(AZ) g = mu Z'AZ g whose
    eigenvalues approximate the spectrum of A restricted to range(Z), keeps
    the m pairs with smallest values, and A-orthonormalizes the result.
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=np.float64))
    z = Z.shape[1]
    m = min(int(m), z)
    gram_az, AZ = assemble_gram(A_prev, Z, sink)
    K = AZ.T @ AZ
    mu_desc, G = generalized_symmetric_evd(0.5 * (K + K.T), 0.5 * (gram_az + gram_az.T))
    # retain the m smallest harmonic Ritz values, ascending
    keep = G[:, ::-1][:, :m]
    mu = mu_desc[::-1][:m].copy()
    Y = Z @ keep
    gram_y = keep.T @ gram_az @ keep
    L = dense_cholesky(0.5 * (gram_y + gram_y.T))
    Y_orth = L.solve_lower(Y.T).T
    trunc_map = L.solve_lower(keep.T).T
    w = m if stage1_dim is None else min(stage1_dim, m)
    return TruncationOutcome(
        Y_new=Y_orth,
        stage1_width=w,
        truncation_map=trunc_map,
        spectrum=mu,
        enforced=True,
    )


def enforce_a_orthogonality(
    Y,
    A: SparseSpdMatrix,
    *,
    gram=None,
    sink: InstrumentationSink | None = None,
):
    """Rescale Y so that Y'AY = I, returning the new basis and the factor.

    The range is unchanged: with Y'AY = L L', the result is Y L^{-T}.
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=np.float64))
    if gram is None:
        gram, _ = assemble_gram(A, Y, sink)
    L = dense_cholesky(0.5 * (np.asarray(gram) + np.asarray(gram).T))
    return L.solve_lower(Y.T).T, L


def compress(
    Z,
    cfg: TruncationConfig,
    *,
    weights=None,
    a_prev: SparseSpdMatrix | None = None,
    chalf=None,
    current_stage1_width: int | None = None,
    gram=None,
    sink: InstrumentationSink | None = None,
) -> TruncationOutcome:
    """Dispatch the configured truncation strategy on the block Z."""
    Z = np.atleast_2d(np.asarray(Z, dtype=np.float64))
    if cfg.strategy == "none":
        w = Z.shape[1] if current_stage1_width is None else current_stage1_width
        return TruncationOutcome(
            Y_new=Z,
            stage1_width=min(w, Z.shape[1]),
            truncation_map=np.eye(Z.shape[1]),
            enforced=False,
        )
    if cfg.strategy == "deflate":
        if a_prev is None:
            raise DimensionMismatch("deflation needs the previous matrix")
        return deflation_compress(
            Z, a_prev, cfg.deflate_dim, stage1_dim=cfg.stage1_dim, sink=sink
        )
    if weights is None:
        raise DimensionMismatch("POD truncation needs snapshot weights")
    if cfg.uses_output_metric:
        if chalf is None:
            raise DimensionMismatch("output-metric truncation needs the output matrix")
        metric = PodMetric.factor(chalf)
    else:
        if a_prev is None:
            raise DimensionMismatch("matrix-metric truncation needs the previous matrix")
        metric = PodMetric.explicit(a_prev)
    out = pod_compress(Z, weights, metric, cfg, gram=gram, sink=sink)
    if cfg.uses_output_metric and a_prev is not None:
        Y_orth, L = enforce_a_orthogonality(out.Y_new, a_prev, sink=sink)
        out = TruncationOutcome(
            Y_new=Y_orth,
            stage1_width=out.stage1_width,
            truncation_map=L.solve_lower(out.truncation_map.T).T,
            spectrum=out.spectrum,
            enforced=True,
        )
    return out
