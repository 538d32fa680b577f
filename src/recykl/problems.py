"""Sources of SPD system sequences.

The synthetic generator mimics the regime the solver targets: a sequence of
slowly varying sparse SPD matrices with smoothly varying loads.  It builds
five-point finite-difference diffusion operators on a 2-D grid whose
coefficient field breathes sinusoidally in the sequence index, so
consecutive matrices differ by O(delta/p) relative Frobenius norm.  All
randomness flows through the pinned 64-bit generator in :mod:`recykl.rng`,
making every byte of the sequence reproducible from the seed.

File-based sequences are described by a JSON manifest:

    {"n": 9, "systems": [{"matrix": "A_001.mtx", "rhs": "b_001.mtx",
     "tol": 1e-08}], "output_matrix": "C.mtx"}

with Matrix Market files next to it (see :mod:`recykl.mmio`).  ``n`` must
be a JSON integer of at least 1, and a system's ``tol`` (default 1e-8)
finite and positive.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from . import mmio
from .errors import ManifestError, RecyklError
from .linalg import SparseSpdMatrix
from .rng import Xorshift64Star


@dataclass
class LinearSystemSpec:
    A: SparseSpdMatrix
    b: np.ndarray
    xbar: np.ndarray | None  # None means a zero initial guess
    tol: float


@dataclass
class SystemSequence:
    """A non-empty list of systems of one dimension, with an optional output matrix."""

    systems: list[LinearSystemSpec]
    C: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.systems[0].A.n

    @property
    def p(self) -> int:
        return len(self.systems)

    def __iter__(self):
        return iter(self.systems)

    def __getitem__(self, j):
        return self.systems[j]


def _diffusion_matrix(nx, ny, kappa):
    """Five-point diffusion stencil with Dirichlet boundary, SPD.

    Node (i, j) is row j * nx + i.  An edge couples two neighbours with the
    mean of their coefficients; a boundary edge only adds the node's own
    coefficient to the diagonal, which keeps the operator strictly SPD.
    Each diagonal entry sums, in this order, the edge from below, the edge
    from the left, its own right edge (or right boundary), its own upper
    edge (or top boundary), the left boundary and the bottom boundary;
    absent terms are zeros, whose addition is exact.
    """
    n = nx * ny
    K = np.asarray(kappa, dtype=np.float64).reshape(ny, nx)
    node = np.arange(n).reshape(ny, nx)
    horiz = 0.5 * (K[:, :-1] + K[:, 1:])  # edge (i, j)-(i+1, j)
    vert = 0.5 * (K[:-1, :] + K[1:, :])  # edge (i, j)-(i, j+1)
    below, left, left_bd, bottom_bd = (np.zeros((ny, nx)) for _ in range(4))
    right, up = K.copy(), K.copy()  # boundary terms where no edge replaces them
    below[1:, :] = vert
    left[:, 1:] = horiz
    right[:, :-1] = horiz
    up[:-1, :] = vert
    left_bd[:, 0] = K[:, 0]
    bottom_bd[0, :] = K[0, :]
    diag = below + left + right + up + left_bd + bottom_bd
    lo = np.concatenate([node[:, :-1].ravel(), node[:-1, :].ravel()])
    hi = np.concatenate([node[:, 1:].ravel(), node[1:, :].ravel()])
    edge = np.concatenate([horiz.ravel(), vert.ravel()])
    rows = np.concatenate([lo, hi, np.arange(n)])
    cols = np.concatenate([hi, lo, np.arange(n)])
    vals = np.concatenate([-edge, -edge, diag.ravel()])
    coo = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(n, n))
    return SparseSpdMatrix.from_scipy(coo.tocsr())


def gen_diffusion_sequence(
    grid: tuple[int, int],
    p: int,
    delta: float,
    seed: int = 0,
    tol: float = 1e-8,
    load_drift: float = 0.4,
    load_scale: float = 1.0,
) -> SystemSequence:
    """Sequence of p diffusion systems with a breathing coefficient field.

    The coefficient at grid node q for system j is

        kappa_j(q) = kappa0(q) * (1 + delta * sin(2 pi j / p + phase(q)))

    with kappa0 in [1, 1.5) and phase in [0, 2 pi) drawn once from the
    seeded generator.  ``delta`` must stay below 1 so coefficients remain
    positive.  Loads combine a fixed smooth profile with a component that
    rotates slowly in j (amplitude ``load_drift``), both scaled by
    ``load_scale``; under absolute forcing tolerances the scale sets how
    deep each solve must go.
    """
    nx, ny = grid
    if nx < 1 or ny < 1:
        raise RecyklError(f"invalid grid {grid}")
    if not 0.0 <= delta < 1.0:
        raise RecyklError("coefficient drift must lie in [0, 1)")
    if p < 1:
        raise RecyklError(f"a sequence needs at least one system, got {p}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise RecyklError(f"tolerance {tol} is not finite and positive")
    n = nx * ny
    stream = Xorshift64Star(seed)
    kappa0 = 1.0 + 0.5 * np.array(stream.uniforms(n))
    phase = 2.0 * math.pi * np.array(stream.uniforms(n))

    xs = (np.arange(nx) + 1.0) / (nx + 1.0)
    ys = (np.arange(ny) + 1.0) / (ny + 1.0)
    X = np.tile(xs, ny)
    Y = np.repeat(ys, nx)
    base_load = np.sin(math.pi * X) * np.sin(math.pi * Y)
    drift_load = np.sin(2.0 * math.pi * X + math.pi * Y)

    systems = []
    for j in range(1, p + 1):
        angle = 2.0 * math.pi * j / p
        kappa = kappa0 * (1.0 + delta * np.sin(angle + phase))
        A = _diffusion_matrix(nx, ny, kappa)
        b = load_scale * (base_load + load_drift * math.sin(angle) * drift_load)
        systems.append(LinearSystemSpec(A=A, b=b, xbar=None, tol=tol))
    meta = {
        "name": f"diffusion-{nx}x{ny}",
        "grid": [nx, ny],
        "p": p,
        "delta": delta,
        "seed": seed,
        "tol": tol,
        "load_drift": load_drift,
        "load_scale": load_scale,
    }
    return SystemSequence(systems=systems, metadata=meta)


def gen_output_matrix(q: int, n: int, seed: int = 0) -> np.ndarray:
    """Dense q x n output map with uniform [0, 1) entries, row by row."""
    if q < 1:
        raise RecyklError("output row count must be positive")
    stream = Xorshift64Star(seed)
    return np.array(stream.uniforms(q * n)).reshape((q, n))


def write_sequence(seq: SystemSequence, out_dir) -> str:
    """Write Matrix Market files plus a JSON manifest; returns manifest path."""
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    for j, sys_spec in enumerate(seq.systems, start=1):
        mat_name = f"A_{j:03d}.mtx"
        rhs_name = f"b_{j:03d}.mtx"
        mmio.write_symmetric_matrix(os.path.join(out_dir, mat_name), sys_spec.A)
        mmio.write_array(os.path.join(out_dir, rhs_name), sys_spec.b)
        entry = {"matrix": mat_name, "rhs": rhs_name, "tol": sys_spec.tol}
        if sys_spec.xbar is not None:
            guess_name = f"x_{j:03d}.mtx"
            mmio.write_array(os.path.join(out_dir, guess_name), sys_spec.xbar)
            entry["guess"] = guess_name
        entries.append(entry)
    manifest = {"n": seq.n, "name": "sequence", "systems": entries, "metadata": seq.metadata}
    if seq.C is not None:
        mmio.write_array(os.path.join(out_dir, "C.mtx"), seq.C)
        manifest["output_matrix"] = "C.mtx"
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return path


def load_sequence_manifest(path) -> SystemSequence:
    """Load a sequence described by a JSON manifest (see module docstring)."""
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise ManifestError(f"{path}: cannot read manifest ({exc.strerror})") from exc
    except json.JSONDecodeError as exc:
        raise ManifestError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from exc
    base = os.path.dirname(os.path.abspath(path))
    try:
        n = manifest["n"]
        raw_systems = manifest["systems"]
    except (KeyError, TypeError) as exc:
        raise ManifestError(f"{path}: manifest must carry 'n' and 'systems'") from exc
    # int() would read 9.9 and "9" as 9; JSON true is a Python int
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ManifestError(f"{path}: 'n' must be a positive integer, got {json.dumps(n)}")
    if not raw_systems:
        raise ManifestError(f"{path}: manifest lists no systems")
    systems = []
    for idx, entry in enumerate(raw_systems, start=1):
        try:
            mat_file = entry["matrix"]
            rhs_file = entry["rhs"]
            tol = float(entry.get("tol", 1e-8))
        except (KeyError, TypeError, ValueError) as exc:
            raise ManifestError(f"{path}: system {idx} entry malformed") from exc
        bad = [key for key in ("matrix", "rhs", "guess") if not isinstance(entry.get(key, ""), str)]
        if bad or isinstance(entry.get("tol"), bool):  # float() reads true as 1.0
            key, kind = (bad[0], "a file name") if bad else ("tol", "a number")
            raise ManifestError(f"{path}: system {idx} {key!r} must be {kind}, "
                                f"got {json.dumps(entry[key])}")
        if not (math.isfinite(tol) and tol > 0.0):
            raise ManifestError(f"{path}: system {idx} tolerance {tol} is not finite and positive")
        A = mmio.read_matrix(os.path.join(base, mat_file))
        b = mmio.read_array(os.path.join(base, rhs_file))
        if A.n != n or b.shape[0] != n:
            raise ManifestError(
                f"{path}: system {idx} dimension mismatch (matrix {A.n}, rhs {b.shape[0]}, manifest {n})"
            )
        xbar = None
        if "guess" in entry:
            xbar = mmio.read_array(os.path.join(base, entry["guess"]))
            if xbar.shape[0] != n:
                raise ManifestError(f"{path}: system {idx} guess has wrong length")
        systems.append(LinearSystemSpec(A=A, b=np.asarray(b), xbar=xbar, tol=tol))
    C, out_file = None, manifest.get("output_matrix")
    if out_file is not None and not isinstance(out_file, str):
        raise ManifestError(f"{path}: 'output_matrix' must be a file name, got {json.dumps(out_file)}")
    if out_file:
        C = np.atleast_2d(mmio.read_array(os.path.join(base, out_file)))
        if C.shape[1] != n:
            raise ManifestError(f"{path}: output matrix has {C.shape[1]} columns, expected {n}")
    return SystemSequence(
        systems=systems, C=C, metadata=manifest.get("metadata", {"name": manifest.get("name")})
    )
