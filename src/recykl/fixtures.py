"""Frozen regression fixtures: small runs with pinned counters.

Each fixture pairs a deterministic problem with a solver configuration and
freezes the integer counters of the run (iteration counts, matvecs) plus
float quantities with tolerances.  Wall times are never frozen.  The
fixture files are JSON produced from the same seeded generators the tests
replay, and the committed files are a regeneration by the current code, byte
for byte, at the BLAS threading they were made with (OpenBLAS's default, two
threads on a 2-vCPU machine).  Under ``OPENBLAS_NUM_THREADS=1`` every
counter still reproduces, but the final residuals of ``split_pod_it_unprec``
move by up to 4.7e-8 relative, because BLAS sums products in another
order.  A change that only moves rounding moves the trailing digits of
the final residuals, within the tolerance of :func:`verify_fixture`, and
leaves the files to be regenerated with it; ``tools/fixture_diff.py`` prints
what a change moved before they are.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .problems import gen_diffusion_sequence, gen_output_matrix
from .threestage import SolverConfig, run_sequence
from .truncation import TruncationConfig

# the acceptance sequence: systems small enough to carry information a
# 50-vector budget can hold at the studied tolerances
ACCEPTANCE_SEQUENCE = dict(grid=(50, 50), p=20, delta=0.05, seed=1, load_scale=1e-4)
ACCEPTANCE_OMEGA = 1.7
# calibrated thresholds for the comparative criteria (frozen after the
# first verified run; see the fixture files for the measured values)
POD_VS_NOTRUNC_MAX_RATIO = 1.25
WEIGHT_STUDY_DIMS = (4, 8, 18, 24, 30, 36, 42, 46)
WEIGHT_STUDY_FACTOR = 2.0


def _fixture_cases():
    return {
        "identity_like": dict(
            generator=dict(grid=(1, 1), p=1, delta=0.0, seed=3, tol=1e-12),
            config=dict(strategy="none"),
            precond="identity",
        ),
        "invariant_matrix": dict(
            generator=dict(grid=(8, 8), p=4, delta=0.0, seed=22, tol=1e-9,
                           load_drift=0.0),
            config=dict(strategy="none", nu_w=1.0),
            precond="identity",
        ),
        "drifting_pod": dict(
            generator=dict(grid=(10, 10), p=6, delta=0.05, seed=5, tol=1e-8),
            config=dict(strategy="pod-a-rbf", nu_y=1.0, nu_w=1.0,
                        storage_cap=30, max_dim=20),
            precond="jacobi",
        ),
        # a stage-1 block narrower than Y, so stage 2 runs on later systems
        "split_pod": dict(
            generator=dict(grid=(10, 10), p=6, delta=0.05, seed=5, tol=1e-8),
            config=dict(strategy="pod-a-rbf", nu_y=1.0, nu_w=1.0,
                        storage_cap=30, max_dim=20, stage1_dim=5),
            precond="jacobi",
        ),
        "split_pod_it": dict(
            generator=dict(grid=(10, 10), p=6, delta=0.05, seed=5, tol=1e-8),
            config=dict(strategy="pod-a-rbf", nu_y=1.0, nu_w=1.0,
                        storage_cap=30, max_dim=20, stage1_dim=5, full_orth=True),
            precond="jacobi",
        ),
        "deflation": dict(
            generator=dict(grid=(10, 10), p=6, delta=0.05, seed=5, tol=1e-8),
            config=dict(strategy="deflate", deflate_dim=20, storage_cap=30),
            precond="jacobi",
        ),
        # the same stage-2 run under the two-term recurrence
        "split_pod_cg": dict(
            generator=dict(grid=(10, 10), p=6, delta=0.05, seed=5, tol=1e-8),
            config=dict(strategy="pod-a-rbf", nu_y=1.0, nu_w=1.0,
                        storage_cap=30, max_dim=20, stage1_dim=5),
            precond="jacobi",
            mode="cg",
        ),
        # nested projections on an unpreconditioned, larger system
        "split_pod_it_unprec": dict(
            generator=dict(grid=(20, 20), p=8, delta=0.05, seed=5, tol=1e-8),
            config=dict(strategy="pod-a-rbf", nu_y=1.0, nu_w=1.0,
                        storage_cap=30, max_dim=20, stage1_dim=5, full_orth=True),
            precond="identity",
        ),
        # output-metric POD: C'C-weighted snapshots, then A-orthogonalized
        "output_pod": dict(
            generator=dict(grid=(10, 10), p=6, delta=0.05, seed=5, tol=1e-8),
            config=dict(strategy="pod-ctc-rbf", nu_y=1.0, nu_w=1.0,
                        storage_cap=30, max_dim=20),
            precond="jacobi",
            outputs=dict(rows=20, seed=6),
        ),
        # previous-solution weights with a stage-1 block narrower than Y
        "prev_pod_split": dict(
            generator=dict(grid=(10, 10), p=6, delta=0.05, seed=5, tol=1e-8),
            config=dict(strategy="pod-a-prev", nu_y=1.0, nu_w=1.0,
                        storage_cap=30, max_dim=20, stage1_dim=5),
            precond="jacobi",
        ),
        # the roster's baseline: nothing recycled, so stage 3 is plain PCG
        # with the two-term recurrence although the config says fom
        "plain_pcg": dict(
            generator=dict(grid=(10, 10), p=6, delta=0.05, seed=5, tol=1e-8),
            config=dict(),
            precond="jacobi",
            recycle=False,
        ),
    }


def run_fixture_case(case: dict):
    seq = gen_diffusion_sequence(**case["generator"])
    if "outputs" in case:
        seq.C = gen_output_matrix(case["outputs"]["rows"], seq.n, seed=case["outputs"]["seed"])
    cfg = SolverConfig(truncation=TruncationConfig(**case["config"]), precond=case["precond"],
                       mode=case.get("mode", "fom"), recycle=case.get("recycle", True))
    _, reports, _ = run_sequence(seq, cfg)
    return {
        "stage3_iters": [r.stage3_iters for r in reports],
        "stage2_iters": [r.stage2_iters for r in reports],
        "stage1_dims": [r.stage1_dim for r in reports],
        "matvecs": [r.matvecs for r in reports],
        "final_residuals": [r.final_residual for r in reports],
        "converged": all(r.converged for r in reports),
    }


def write_calibration_record(out_dir) -> str:
    """Measure and freeze the comparative-criteria calibration numbers.

    Runs the no-truncation and POD configurations over the acceptance
    sequence and records their totals next to the frozen thresholds.
    """
    seq = gen_diffusion_sequence(
        ACCEPTANCE_SEQUENCE["grid"], ACCEPTANCE_SEQUENCE["p"],
        ACCEPTANCE_SEQUENCE["delta"], seed=ACCEPTANCE_SEQUENCE["seed"],
        tol=1e-6, load_scale=ACCEPTANCE_SEQUENCE["load_scale"],
    )

    def total(truncation, recycle=True):
        cfg = SolverConfig(truncation=truncation, precond=f"ssor:{ACCEPTANCE_OMEGA}",
                           recycle=recycle)
        _, reports, _ = run_sequence(seq, cfg)
        return [r.stage3_iters for r in reports]

    pcg = total(TruncationConfig(strategy="none"), recycle=False)
    notrunc = total(TruncationConfig(strategy="none", nu_w=1.0))
    pod = total(TruncationConfig(
        strategy="pod-a-rbf", nu_y=1.0, nu_w=1.0, storage_cap=50, max_dim=40))
    payload = {
        "sequence": {**ACCEPTANCE_SEQUENCE, "tol": 1e-6},
        "ssor_omega": ACCEPTANCE_OMEGA,
        "thresholds": {
            "pod_vs_notrunc_max_ratio": POD_VS_NOTRUNC_MAX_RATIO,
            "weight_study_dims": list(WEIGHT_STUDY_DIMS),
            "weight_study_factor": WEIGHT_STUDY_FACTOR,
        },
        "measured": {
            "pcg_stage3": pcg,
            "notrunc_stage3": notrunc,
            "pod_stage3": pod,
            "pod_vs_notrunc_ratio": sum(pod) / sum(notrunc),
        },
    }
    path = os.path.join(out_dir, "acceptance_calibration.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return path


def regenerate_fixtures(out_dir) -> dict:
    """Write every fixture file; returns {name: path}."""
    os.makedirs(out_dir, exist_ok=True)
    written = {}
    for name, case in _fixture_cases().items():
        result = run_fixture_case(case)
        payload = {"case": case, "frozen": result}
        path = os.path.join(out_dir, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        written[name] = path
    written["acceptance_calibration"] = write_calibration_record(out_dir)
    return written


def replay_fixture(path) -> tuple[dict, dict]:
    """The frozen values of a fixture file and a fresh run of its case."""
    with open(path) as fh:
        payload = json.load(fh)
    case = payload["case"]
    case["generator"]["grid"] = tuple(case["generator"]["grid"])
    return payload["frozen"], run_fixture_case(case)


def fixture_mismatches(frozen: dict, fresh: dict) -> dict:
    """The counters and residuals in which ``fresh`` differs from ``frozen``.

    Counters must be identical; each final residual may differ from its
    frozen value ``want`` by at most ``1e-12 + 1e-6 * |want|``.
    """
    mismatches = {}
    for key in ("stage3_iters", "stage2_iters", "stage1_dims", "matvecs", "converged"):
        if fresh[key] != frozen[key]:
            mismatches[key] = {"frozen": frozen[key], "fresh": fresh[key]}
    got = np.asarray(fresh["final_residuals"])
    want = np.asarray(frozen["final_residuals"])
    if got.shape != want.shape or np.any(np.abs(got - want) > 1e-12 + 1e-6 * np.abs(want)):
        mismatches["final_residuals"] = {"frozen": frozen["final_residuals"],
                                         "fresh": fresh["final_residuals"]}
    return mismatches


def verify_fixture(path) -> dict:
    """Re-run a fixture case and diff the counters against the frozen values.

    Returns a dict of mismatches (empty when the fixture reproduces), by
    the rule of :func:`fixture_mismatches`.
    """
    return fixture_mismatches(*replay_fixture(path))
