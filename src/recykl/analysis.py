"""Numerical verification harness for the solver's supporting theory.

Three families of inequalities are checked on concrete instances, all with
dense linear algebra (this module is an oracle layer, never on the
performance path):

- the gap between computable and ideal snapshot weights, bounded by a
  projector-perturbation term plus a solution-drift term;
- the principal-angle distance between the computable goal-oriented POD
  subspace and its ideal counterpart, bounded through eigenvector
  perturbation theory, with simplified forms in special regimes;
- the deviation of the recycled reduced matrix from the identity, bounded
  by the accumulated matrix drift since the last truncation.

Each check returns a :class:`BoundCheckReport` with the measured left side,
the assembled right side, and a context payload for triage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg

from .errors import RankDeficient, RegimeInapplicable
from .linalg import SparseSpdMatrix, principal_angle_distance, symmetric_evd

REGIMES = ("general", "fixed_weights", "fixed_metric", "rel_bounded", "commuting", "strong_sep")

_SLACK = 1e-8


@dataclass
class BoundCheckReport:
    lhs: float
    rhs: float
    context: dict = field(default_factory=dict)

    @classmethod
    def compare(cls, lhs: float, rhs: float, context: dict) -> "BoundCheckReport":
        return cls(lhs=float(lhs), rhs=float(rhs), context=context)

    @property
    def satisfied(self) -> bool:
        return self.lhs <= self.rhs * (1.0 + _SLACK) + 1e-300

    def as_dict(self) -> dict:
        return {"lhs": self.lhs, "rhs": self.rhs, "satisfied": self.satisfied,
                "context": self.context}


def _dense(mat) -> np.ndarray:
    if isinstance(mat, SparseSpdMatrix):
        return mat.to_dense()
    return np.asarray(mat, dtype=np.float64)


def spectral_norm(mat) -> float:
    """Two-norm of a symmetric operator, sparse-aware."""
    if isinstance(mat, SparseSpdMatrix):
        mat = mat.to_scipy()
    if scipy.sparse.issparse(mat):
        if mat.nnz == 0 or not np.any(mat.data):
            return 0.0
        if mat.shape[0] <= 200:
            return float(np.linalg.norm(mat.toarray(), 2))
        val = scipy.sparse.linalg.eigsh(
            mat, k=1, which="LM", return_eigenvectors=False, tol=1e-10
        )
        return float(abs(val[0]))
    return float(np.linalg.norm(np.asarray(mat), 2))


def oblique_projector(theta, Z) -> np.ndarray:
    """Theta-orthogonal projector onto range(Z), dense."""
    theta = _dense(theta)
    gram = Z.T @ theta @ Z
    return Z @ np.linalg.solve(gram, Z.T @ theta)


def pseudometric_projector(chalf, Z) -> np.ndarray:
    """Projector Z (F Z)^+ F for a factored pseudometric F'F."""
    chalf = np.atleast_2d(np.asarray(chalf, dtype=np.float64))
    return Z @ (np.linalg.pinv(chalf @ Z) @ chalf)


def pod_objective(basis, S, gamma, theta) -> float:
    """Weighted sum of squared Theta-norm projection errors onto a subspace.

    Uses the pseudoinverse projector in factored form, valid for
    semidefinite metrics.
    """
    S = np.atleast_2d(np.asarray(S, dtype=np.float64))
    basis = np.atleast_2d(np.asarray(basis, dtype=np.float64))
    gamma = np.asarray(gamma, dtype=np.float64)
    w, Q = np.linalg.eigh(_dense(theta))
    half = (Q * np.sqrt(np.maximum(w, 0.0))) @ Q.T
    HB = half @ basis
    pinv = np.linalg.pinv(HB)
    total = 0.0
    for i in range(S.shape[1]):
        v = half @ (gamma[i] * S[:, i])
        total += float(np.sum((v - HB @ (pinv @ v)) ** 2))
    return total


# ---------------------------------------------------------------------------
# weight-gap bound


@dataclass
class WeightsBoundInstance:
    Z: np.ndarray
    A_prev: np.ndarray
    A_cur: np.ndarray
    xbar_prev: np.ndarray
    xbar_cur: np.ndarray
    xstar_prev: np.ndarray
    xstar_cur: np.ndarray
    chalf: np.ndarray | None = None  # set for the output-metric variant
    label: str = ""


def make_weights_instance(seed: int, output_metric=False) -> WeightsBoundInstance:
    n, m, drift = 24, 6, 0.05
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = np.logspace(0, 1.5, n)
    A_prev = (Q * eigs) @ Q.T
    bump = rng.standard_normal((n, n))
    bump = drift * (bump @ bump.T) / n
    A_cur = A_prev + bump
    Z = rng.standard_normal((n, m))
    inst = WeightsBoundInstance(
        Z=Z,
        A_prev=A_prev,
        A_cur=A_cur,
        xbar_prev=rng.standard_normal(n),
        xbar_cur=rng.standard_normal(n),
        xstar_prev=rng.standard_normal(n),
        xstar_cur=rng.standard_normal(n),
        label=f"weights-{seed}",
    )
    if output_metric:
        inst.chalf = rng.random((n + 5, n))
    return inst


def check_weights_bound(inst: WeightsBoundInstance) -> BoundCheckReport:
    """Gap between ideal and previous weights vs its perturbation bound.

    The previous weights are the Galerkin coordinates of the previous
    centered solution under the previous matrix; the ideal weights use the
    current system (or, in the output variant, the pseudoinverse coordinates
    under the output metric).
    """
    Z = np.atleast_2d(inst.Z)
    sigma = np.linalg.svd(Z, compute_uv=False)
    if sigma[-1] <= 1e-12 * sigma[0]:
        raise RankDeficient("snapshot block is rank deficient")
    d_cur = inst.xstar_cur - inst.xbar_cur
    d_prev = inst.xstar_prev - inst.xbar_prev
    b_centered_prev = inst.A_prev @ d_prev
    eta_prev = np.linalg.solve(Z.T @ inst.A_prev @ Z, Z.T @ b_centered_prev)
    P_prev = oblique_projector(inst.A_prev, Z)
    if inst.chalf is None:
        eta_ideal = np.linalg.solve(Z.T @ inst.A_cur @ Z, Z.T @ (inst.A_cur @ d_cur))
        P_cur = oblique_projector(inst.A_cur, Z)
    else:
        eta_ideal = np.linalg.pinv(inst.chalf @ Z) @ (inst.chalf @ d_cur)
        P_cur = pseudometric_projector(inst.chalf, Z)
    sigma1 = np.linalg.norm(P_prev, 2)
    lhs = np.linalg.norm(eta_ideal - eta_prev)
    rhs = (
        np.linalg.norm(P_cur - P_prev, 2) * np.linalg.norm(d_cur)
        + sigma1 * np.linalg.norm(d_cur - d_prev)
    ) / sigma[-1]
    return BoundCheckReport.compare(lhs, rhs, {
        "instance": inst.label,
        "variant": "output" if inst.chalf is not None else "matrix",
        "sigma_min": float(sigma[-1]),
        "sigma1": float(sigma1),
    })


# ---------------------------------------------------------------------------
# subspace-distance bound


@dataclass
class DistanceBoundInstance:
    Z: np.ndarray
    theta_comp: np.ndarray
    delta_theta: np.ndarray  # theta_ideal = theta_comp + delta_theta
    eta_ideal: np.ndarray
    eta_comp: np.ndarray
    y: int
    label: str = ""

    @property
    def theta_ideal(self) -> np.ndarray:
        return self.theta_comp + self.delta_theta


def abssep(spectrum_a, spectrum_b) -> float:
    """Separation of two diagonal spectra: the smallest pairwise gap."""
    a = np.asarray(spectrum_a, dtype=np.float64)
    b = np.asarray(spectrum_b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        return float("inf")
    return float(np.min(np.abs(a[:, None] - b[None, :])))


def strong_separation(spectrum_perp, spectrum_comp) -> float:
    """The delta_a margin between two spectra, positive when disjoint."""
    a = np.abs(np.asarray(spectrum_perp, dtype=np.float64))
    b = np.abs(np.asarray(spectrum_comp, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        return float("inf")
    return float(max(b.min() - a.max(), a.min() - b.max()))


def _kappa(mat) -> float:
    s = np.linalg.svd(np.atleast_2d(mat), compute_uv=False)
    if s[-1] <= 0:
        raise RankDeficient("condition number of a rank-deficient matrix")
    return float(s[0] / s[-1])


def check_subspace_distance_bound(inst: DistanceBoundInstance, regime: str) -> BoundCheckReport:
    """Distance between computable and ideal POD subspaces vs its bound.

    ``regime`` selects the applicable form: the general two-term bound, the
    metric-only and weights-only simplifications, the relative-weight and
    commuting variants, and the strongly-separated form whose denominator is
    the spectral margin instead of the pairwise separation.
    """
    if regime not in REGIMES:
        raise RegimeInapplicable(f"unknown regime {regime!r}")
    Z = np.atleast_2d(inst.Z)
    s = Z.shape[1]
    y = inst.y
    H_ideal = np.diag(inst.eta_ideal)
    H_comp = np.diag(inst.eta_comp)
    ZH = Z @ H_ideal
    sv = np.linalg.svd(ZH, compute_uv=False)
    if sv[-1] <= 1e-12 * sv[0]:
        raise RankDeficient("weighted snapshot block is rank deficient")

    B_ideal = H_ideal @ Z.T @ inst.theta_ideal @ Z @ H_ideal
    B_comp = H_comp @ Z.T @ inst.theta_comp @ Z @ H_comp
    lam_ideal, X_ideal = symmetric_evd(0.5 * (B_ideal + B_ideal.T))
    lam_comp, X_comp = symmetric_evd(0.5 * (B_comp + B_comp.T))
    lam_perp = lam_ideal[y:]
    lam_comp_y = lam_comp[:y]
    X_comp_y = X_comp[:, :y]

    basis_ideal = Z @ H_ideal @ X_ideal[:, :y]
    basis_comp = Z @ H_comp @ X_comp_y
    lhs = principal_angle_distance(basis_ideal, basis_comp)

    kappa_z = _kappa(ZH)
    combined = np.diag(1.0 / inst.eta_ideal) @ H_comp @ X_comp_y
    kappa_c = _kappa(combined)
    M_comp = Z.T @ inst.theta_comp @ Z
    term_weights = np.linalg.norm(
        (H_comp + H_ideal) @ (H_comp - H_ideal) @ np.diag(1.0 / inst.eta_ideal) @ M_comp @ H_ideal,
        2,
    )
    term_metric = np.linalg.norm(inst.delta_theta, 2) * np.linalg.norm(ZH, 2) ** 2
    sep = abssep(lam_perp, lam_comp_y)
    context = {
        "instance": inst.label,
        "regime": regime,
        "kappa_z": kappa_z,
        "kappa_c": kappa_c,
        "abssep": sep,
    }

    if regime == "general":
        rhs = kappa_z * kappa_c * (term_weights + term_metric) / sep
    elif regime == "fixed_weights":
        if not np.allclose(inst.eta_comp, inst.eta_ideal):
            raise RegimeInapplicable("fixed-weights regime needs identical weights")
        rhs = kappa_z * term_metric / sep
    elif regime == "fixed_metric":
        if np.any(inst.delta_theta):
            raise RegimeInapplicable("fixed-metric regime needs a zero metric perturbation")
        rhs = kappa_z * kappa_c * term_weights / sep
    elif regime == "rel_bounded":
        if np.any(inst.delta_theta):
            raise RegimeInapplicable("relative-weight regime needs a zero metric perturbation")
        rel = (inst.eta_comp - inst.eta_ideal) / inst.eta_ideal
        delta_hat = float(np.max(np.abs(rel)))
        M_ideal = H_ideal @ Z.T @ inst.theta_ideal @ Z @ H_ideal
        rhs = (
            kappa_z * kappa_c * delta_hat * (2.0 + delta_hat) * np.linalg.norm(M_ideal, 2) / sep
        )
        context["delta_hat"] = delta_hat
    elif regime == "commuting":
        comm = H_ideal @ M_comp - M_comp @ H_ideal
        if np.max(np.abs(comm)) > 1e-10 * max(1.0, np.linalg.norm(M_comp, 2)):
            raise RegimeInapplicable("weights do not commute with the reduced metric")
        term = np.linalg.norm((H_comp + H_ideal) @ (H_comp - H_ideal) @ M_comp, 2)
        rhs = kappa_z * kappa_c * term / sep
    else:  # strong_sep
        delta_a = strong_separation(lam_perp, lam_comp_y)
        if delta_a <= 0:
            raise RegimeInapplicable("spectra are not strongly separated")
        rhs = kappa_z * kappa_c * (term_weights + term_metric) / delta_a
        context["delta_a"] = delta_a
    return BoundCheckReport.compare(lhs, rhs, context)


def make_distance_instance(seed: int, regime: str) -> DistanceBoundInstance:
    """Random instance satisfying the preconditions of the requested regime."""
    n, s, y = 20, 7, 3
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    theta_comp = (Q * np.logspace(0, 1, n)) @ Q.T
    Z = rng.standard_normal((n, s))
    eta_ideal = rng.random(s) + 0.5
    delta_theta = np.zeros((n, n))
    eta_comp = eta_ideal.copy()
    if regime in ("general", "fixed_weights", "strong_sep"):
        bump = rng.standard_normal((n, n))
        delta_theta = 1e-3 * (bump @ bump.T) / n
    if regime in ("general", "fixed_metric", "strong_sep"):
        eta_comp = eta_ideal * (1.0 + 1e-3 * rng.standard_normal(s))
    if regime == "rel_bounded":
        eta_comp = eta_ideal * (1.0 + 1e-2 * rng.uniform(-1.0, 1.0, s))
    if regime == "commuting":
        # orthonormalize Z in the metric so Z'Theta Z is the identity
        w, V = np.linalg.eigh(Z.T @ theta_comp @ Z)
        Z = Z @ (V / np.sqrt(w))
        eta_comp = eta_ideal * (1.0 + 5e-3 * rng.standard_normal(s))
    return DistanceBoundInstance(
        Z=Z,
        theta_comp=theta_comp,
        delta_theta=delta_theta,
        eta_ideal=eta_ideal,
        eta_comp=eta_comp,
        y=y,
        label=f"{regime}-{seed}",
    )


# ---------------------------------------------------------------------------
# reduced-matrix conditioning bound


def check_conditioning_bound(traces) -> list[BoundCheckReport]:
    """Per-system conditioning of the recycled reduced matrix vs its bound.

    ``traces`` is the list of per-system records from a sequence run.  The
    bound telescopes matrix drift from the latest truncation (or the start):
    ||Y_j' A_j Y_j - I|| <= sum over k since then of ||Y_k||^2 ||A_k - A_{k-1}||.
    It presumes every basis column in the stage-1 block (``stage1_start``
    0), and raises :class:`RegimeInapplicable` on a trace where it is not.
    """
    for t in traces:
        if t.stage1_start != 0:
            raise RegimeInapplicable(
                "conditioning bound requires the stage-1 block to span the whole basis"
            )
    reports = []
    norm_cache: dict[int, float] = {}
    drift_cache: dict[int, float] = {}

    def basis_norm_sq(k):  # basis carried into system k
        if k not in norm_cache:
            Y = traces[k - 1].Y_entry
            norm_cache[k] = float(np.linalg.norm(Y, 2)) ** 2 if Y.shape[1] else 0.0
        return norm_cache[k]

    def drift(k):  # ||A_k - A_{k-1}||, zero for the first system
        if k not in drift_cache:
            if k <= 1:
                drift_cache[k] = 0.0
            else:
                diff = traces[k - 1].A.to_scipy() - traces[k - 2].A.to_scipy()
                drift_cache[k] = spectral_norm(diff)
        return drift_cache[k]

    for idx, t in enumerate(traces):
        if t.Y_entry.shape[1] == 0:
            continue
        gram = t.Y_entry.T @ (t.A.to_scipy() @ t.Y_entry)
        lhs = np.linalg.norm(gram - np.eye(gram.shape[0]), 2)
        j_bar = 0
        for back in range(idx - 1, -1, -1):
            if traces[back].truncated:
                j_bar = traces[back].j
                break
        rhs = sum(basis_norm_sq(k) * drift(k) for k in range(j_bar + 1, t.j + 1))
        reports.append(
            BoundCheckReport.compare(
                lhs, rhs + 1e-8, {"j": t.j, "since_truncation": t.j - j_bar}
            )
        )
    return reports
