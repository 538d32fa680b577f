"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (written through the raw stdout so the
lines survive pytest capture).  The comparative criteria run on the frozen
desk-scale sequence recorded in recykl.fixtures; calibrated thresholds live
there as well.
"""

import sys
import time

import numpy as np
import pytest
import scipy.sparse.linalg as sla

from recykl import preconditioners as pc
from recykl.analysis import (
    REGIMES,
    check_conditioning_bound,
    check_subspace_distance_bound,
    check_weights_bound,
    make_distance_instance,
    make_weights_instance,
)
from recykl.fixtures import (
    ACCEPTANCE_OMEGA,
    ACCEPTANCE_SEQUENCE,
    POD_VS_NOTRUNC_MAX_RATIO,
    WEIGHT_STUDY_DIMS,
    WEIGHT_STUDY_FACTOR,
)
from recykl.bench import weight_study
from recykl.krylov import DirectReducedProjection, augmented_pcg
from recykl.linalg import dense_cholesky, principal_angle_distance
from recykl.pod import energy_truncation_dim, pod_evd, pod_svd
from recykl.problems import (
    gen_diffusion_sequence,
    gen_output_matrix,
    load_sequence_manifest,
    write_sequence,
)
from recykl.threestage import SolverConfig, run_sequence
from recykl.truncation import TruncationConfig, deflation_compress


def report(label: str, passed: bool, detail: str = ""):
    line = f"[acceptance] {label}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line, file=sys.__stdout__, flush=True)
    assert passed, line


def acceptance_sequence(tol: float):
    return gen_diffusion_sequence(
        ACCEPTANCE_SEQUENCE["grid"],
        ACCEPTANCE_SEQUENCE["p"],
        ACCEPTANCE_SEQUENCE["delta"],
        seed=ACCEPTANCE_SEQUENCE["seed"],
        tol=tol,
        load_scale=ACCEPTANCE_SEQUENCE["load_scale"],
    )


SSOR = f"ssor:{ACCEPTANCE_OMEGA}"


def pod_config(**kw):
    base = dict(strategy="pod-a-rbf", nu_y=1.0, nu_w=1.0, storage_cap=50, max_dim=40)
    base.update(kw)
    return SolverConfig(truncation=TruncationConfig(**base), precond=SSOR)


def test_ac1_projection_optimality():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(10_000 + seed)
        n = 60
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        cond = 50.0 * (1.0 + 5.0 * rng.random())
        Ad = (Q * np.logspace(0, np.log10(cond), n)) @ Q.T
        b = rng.standard_normal(n)
        b /= np.linalg.norm(b)
        Y = rng.standard_normal((n, 5))
        yhat0 = np.linalg.solve(Y.T @ Ad @ Y, Y.T @ b)
        from recykl.linalg import SparseSpdMatrix

        res = augmented_pcg(
            SparseSpdMatrix.from_dense(Ad), b, yhat0, Y, tol=1e-9, max_iter=240, mode="fom"
        )
        xstar = np.linalg.solve(Ad, b)
        xnorm = np.sqrt(xstar @ Ad @ xstar)
        w, Qe = np.linalg.eigh(Ad)
        Asqrt = (Qe * np.sqrt(w)) @ Qe.T
        x_k = Y @ yhat0
        for k in range(res.k + 1):
            if k > 0:
                x_k = x_k + res.vhat[k - 1] * res.V[:, k - 1]
            B = np.hstack([Y, res.V[:, :k]])
            SB = Asqrt @ B
            scale = np.linalg.norm(SB, axis=0)
            coef, *_ = np.linalg.lstsq(SB / scale, Asqrt @ xstar, rcond=None)
            err = x_k - (B / scale) @ coef
            worst = max(worst, float(np.sqrt(err @ Ad @ err)) / xnorm)
    elapsed = time.perf_counter() - t0
    report(
        "AC1 projection optimality",
        worst <= 1e-8 and elapsed < 10.0,
        f"worst rel A-norm gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_ac2_pod_correctness():
    t0 = time.perf_counter()
    worst_dist, worst_orth, objective_fail = 0.0, 0.0, 0
    for seed in range(100):
        rng = np.random.default_rng(20_000 + seed)
        n, s = 18, 6
        S = rng.standard_normal((n, s))
        gamma = rng.random(s) + 0.2
        F = rng.standard_normal((n + 2, n))
        theta = F.T @ F
        eps = 0.6 + 0.39 * rng.random()
        res_e = pod_evd(S, gamma, theta, eps=eps)
        res_s = pod_svd(S, gamma, F, eps=eps)
        assert res_e.y == res_s.y
        worst_dist = max(worst_dist, principal_angle_distance(res_e.columns, res_s.columns))
        G = res_e.columns.T @ theta @ res_e.columns
        worst_orth = max(worst_orth, float(np.max(np.abs(G - np.eye(res_e.y)))))
        # energy dimension against a brute-force scan
        sig_sq = res_e.singular_values**2
        total = sig_sq.sum()
        rank = int(np.sum(sig_sq > 1e-12 * sig_sq[0]))
        brute = next((i for i in range(1, rank + 1) if sig_sq[:i].sum() / total >= eps), rank)
        assert energy_truncation_dim(sig_sq, eps) == brute
        # optimality of the weighted projection-error objective
        w_eig, Qe = np.linalg.eigh(theta)
        half = (Qe * np.sqrt(np.maximum(w_eig, 0.0))) @ Qe.T
        HS = half @ (S * gamma)

        def objective(basis):
            HB = half @ basis
            coef, *_ = np.linalg.lstsq(HB, HS, rcond=None)
            return float(np.sum((HS - HB @ coef) ** 2))

        pod_val = objective(res_e.columns)
        weighted = S * gamma
        for _ in range(100):
            cand = weighted @ rng.standard_normal((s, res_e.y))
            if pod_val > objective(cand) + 1e-9 * max(1.0, pod_val):
                objective_fail += 1
    elapsed = time.perf_counter() - t0
    report(
        "AC2 POD correctness",
        worst_dist <= 1e-8 and worst_orth <= 1e-9 and objective_fail == 0 and elapsed < 30.0,
        f"dist {worst_dist:.1e}, orth {worst_orth:.1e}, objective losses {objective_fail}, {elapsed:.1f}s",
    )


def test_ac3_deflation_correctness():
    from recykl.linalg import SparseSpdMatrix

    worst_val, worst_span = 0.0, 0.0
    for seed in range(50):
        rng = np.random.default_rng(30_000 + seed)
        n, z, m = 30, 9, 4
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        Ad = (Q * np.logspace(0, 2, n)) @ Q.T
        A = SparseSpdMatrix.from_dense(Ad)
        Z = rng.standard_normal((n, z))
        out = deflation_compress(Z, A, m)
        # dense oracle through the Cholesky reduction of the pencil
        AZ = Ad @ Z
        K = AZ.T @ AZ
        Mm = Z.T @ AZ
        L = np.linalg.cholesky(0.5 * (Mm + Mm.T))
        inner = np.linalg.solve(L, np.linalg.solve(L, 0.5 * (K + K.T)).T).T
        vals, vecs = np.linalg.eigh(0.5 * (inner + inner.T))
        worst_val = max(worst_val, float(np.max(np.abs(out.spectrum - vals[:m]))) / vals[-1])
        G_oracle = np.linalg.solve(L.T, vecs[:, :m])
        worst_span = max(
            worst_span, principal_angle_distance(out.Y_new, Z @ G_oracle)
        )
    report(
        "AC3 deflation correctness",
        worst_val <= 1e-8 and worst_span <= 1e-8,
        f"value gap {worst_val:.1e}, span distance {worst_span:.1e}",
    )


def test_ac4_threestage_consistency():
    seq = acceptance_sequence(tol=1e-8)
    cfg = pod_config(stage1_dim=5)
    xs, reports, traces = run_sequence(seq, cfg, keep_trace=True)
    assert all(r.converged for r in reports)
    worst_rel, worst_gap = 0.0, 0
    for t, x, rep in zip(traces[1:], xs[1:], reports[1:]):
        B = t.stage3_basis
        Ad = t.A.to_scipy()
        gram = B.T @ (Ad @ B)
        yhat0 = np.linalg.solve(gram, B.T @ t.b)
        mono = augmented_pcg(
            t.A, t.b, yhat0, B,
            DirectReducedProjection(Ad @ B, dense_cholesky(0.5 * (gram + gram.T))),
            pc.build(SSOR, t.A), t.eps, mode="fom",
        )
        xstar = sla.spsolve(Ad.tocsc(), t.b)
        gap = x - mono.x
        anorm = lambda v: float(np.sqrt(v @ (Ad @ v)))
        worst_rel = max(worst_rel, anorm(gap) / anorm(xstar))
        worst_gap = max(worst_gap, abs(mono.k - rep.stage3_iters))
    report(
        "AC4 three-stage consistency",
        worst_rel <= 1e-6 and worst_gap <= 2,
        f"worst rel A-norm {worst_rel:.1e}, worst iteration gap {worst_gap}",
    )


def test_ac5_conditioning_bound():
    # drifting sequence under the hypothesis (stage 1 spans the whole basis)
    seq = acceptance_sequence(tol=1e-8)
    cfg = pod_config()
    cfg.diagnostics = True
    _, reports, traces = run_sequence(seq, cfg, keep_trace=True)
    checks = check_conditioning_bound(traces)
    bound_ok = bool(checks) and all(c.satisfied for c in checks)
    kappa_ok = all(
        r.reduced_condition is None or r.reduced_condition <= 2.0 for r in reports
    )
    # invariant-matrix limit
    seq0 = gen_diffusion_sequence(
        ACCEPTANCE_SEQUENCE["grid"], 6, 0.0, seed=ACCEPTANCE_SEQUENCE["seed"],
        tol=1e-8, load_scale=ACCEPTANCE_SEQUENCE["load_scale"],
    )
    _, _, traces0 = run_sequence(seq0, pod_config(), keep_trace=True)
    checks0 = check_conditioning_bound(traces0)
    invariant_lhs = max((c.lhs for c in checks0), default=0.0)
    report(
        "AC5 reduced-matrix conditioning",
        bound_ok and kappa_ok and invariant_lhs <= 1e-8,
        f"bound on {len(checks)} systems, invariant lhs {invariant_lhs:.1e}, "
        f"max kappa {max(r.reduced_condition or 1.0 for r in reports):.3f}",
    )


def test_ac6_weight_and_distance_bounds():
    failures = []
    for seed in range(100):
        if not check_weights_bound(make_weights_instance(40_000 + seed)).satisfied:
            failures.append(("weights-matrix", seed))
        if not check_weights_bound(
            make_weights_instance(41_000 + seed, output_metric=True)
        ).satisfied:
            failures.append(("weights-output", seed))
    for regime in REGIMES:
        for seed in range(100):
            inst = make_distance_instance(50_000 + 977 * REGIMES.index(regime) + seed, regime)
            if not check_subspace_distance_bound(inst, regime).satisfied:
                failures.append((regime, seed))
    # equality case of the computable-vs-ideal weights
    from recykl.analysis import WeightsBoundInstance
    from helpers import make_spd_dense, random_basis

    rng = np.random.default_rng(60_000)
    A = make_spd_dense(20, seed=60_001)
    Z = random_basis(20, 5, seed=60_002)
    d = rng.standard_normal(20)
    xbar_prev, xbar_cur = rng.standard_normal(20), rng.standard_normal(20)
    inst = WeightsBoundInstance(
        Z=Z, A_prev=A, A_cur=A, xbar_prev=xbar_prev, xbar_cur=xbar_cur,
        xstar_prev=xbar_prev + d, xstar_cur=xbar_cur + d, label="equality",
    )
    rep = check_weights_bound(inst)
    equality_ok = rep.lhs <= 1e-8
    report(
        "AC6 weight and subspace-distance bounds",
        not failures and equality_ok,
        f"failures {failures[:3]}, equality lhs {rep.lhs:.1e}",
    )


def test_ac7_recycling_benefit():
    seq = acceptance_sequence(tol=1e-6)

    def run_with(cfg):
        _, reports, traces = run_sequence(seq, cfg, keep_trace=True)
        assert all(r.converged for r in reports)
        iters = [r.stage3_iters for r in reports]
        max_dim = max(t.Y_exit.shape[1] for t in traces)
        return iters, max_dim

    pcg_iters, _ = run_with(SolverConfig(truncation=TruncationConfig(strategy="none"),
                                         precond=SSOR, recycle=False))
    notrunc_iters, _ = run_with(
        SolverConfig(truncation=TruncationConfig(strategy="none", nu_w=1.0), precond=SSOR)
    )
    pod_iters, pod_dim = run_with(pod_config())
    podit_iters, podit_dim = run_with(pod_config(stage1_dim=5, full_orth=True))
    deflate_iters, deflate_dim = run_with(
        SolverConfig(truncation=TruncationConfig(strategy="deflate", deflate_dim=40,
                                                 storage_cap=50), precond=SSOR)
    )

    recycling = {
        "no-trunc": notrunc_iters,
        "pod": pod_iters,
        "pod-it": podit_iters,
        "deflate": deflate_iters,
    }
    a_ok = all(sum(v) < sum(pcg_iters) for v in recycling.values())
    b_ok = all(
        nt <= other
        for name, iters in recycling.items()
        if name != "no-trunc"
        for nt, other in zip(notrunc_iters, iters)
    )
    ratio = sum(pod_iters) / sum(notrunc_iters)
    c_ok = ratio <= POD_VS_NOTRUNC_MAX_RATIO and pod_dim <= 50
    d_gap = max(abs(a - b) for a, b in zip(pod_iters, podit_iters))
    d_ok = d_gap <= 1 and podit_dim <= 50
    report(
        "AC7 recycling benefit",
        a_ok and b_ok and c_ok and d_ok,
        f"totals pcg {sum(pcg_iters)}, no-trunc {sum(notrunc_iters)}, "
        f"pod {sum(pod_iters)} (ratio {ratio:.2f}), deflate {sum(deflate_iters)}, "
        f"full-orth gap {d_gap}",
    )


def test_ac8_weight_scheme_study():
    seq = gen_diffusion_sequence(
        ACCEPTANCE_SEQUENCE["grid"], 11, ACCEPTANCE_SEQUENCE["delta"],
        seed=ACCEPTANCE_SEQUENCE["seed"], tol=1e-8,
        load_scale=ACCEPTANCE_SEQUENCE["load_scale"],
    )
    rows = weight_study(
        seq, dims=list(WEIGHT_STUDY_DIMS), warmup=10,
        precond=f"ssor:{ACCEPTANCE_OMEGA}",
    )
    by = {}
    for r in rows:
        by.setdefault(r["dim"], {})[r["scheme"]] = r
    order_ok, factor_ok = True, True
    for k, entry in by.items():
        ideal = entry["ideal"]["stage2_residual"]
        prev = entry["prev"]["stage2_residual"]
        rbf = entry["rbf"]["stage2_residual"]
        if ideal > prev * (1 + 1e-12) or ideal > rbf * (1 + 1e-12):
            order_ok = False
        if rbf > WEIGHT_STUDY_FACTOR * ideal or prev > WEIGHT_STUDY_FACTOR * ideal:
            factor_ok = False
    # rbf with a window of one is exactly the previous-weights scheme
    from recykl.weights import WeightHistory, weights_previous, weights_rbf

    h = WeightHistory()
    h.push(np.arange(1.0, 5.0))
    h.push(np.arange(2.0, 8.0))
    exact_ok = np.array_equal(weights_rbf(h, 1), weights_previous(h))
    report(
        "AC8 weight-scheme study",
        order_ok and factor_ok and exact_ok,
        f"{len(by)} dims, ideal minimal: {order_ok}, tracking factor ok: {factor_ok}",
    )


def test_ac9_io_reproducibility(tmp_path):
    seq = gen_diffusion_sequence((7, 6), p=3, delta=0.2, seed=77, tol=1e-7)
    seq.C = gen_output_matrix(9, seq.n, seed=78)
    manifest = write_sequence(seq, tmp_path / "one")
    back = load_sequence_manifest(manifest)
    bit_exact = (
        all(
            np.array_equal(a.A.to_dense(), b.A.to_dense()) and np.array_equal(a.b, b.b)
            for a, b in zip(seq, back)
        )
        and np.array_equal(seq.C, back.C)
    )
    regen = gen_diffusion_sequence((7, 6), p=3, delta=0.2, seed=77, tol=1e-7)
    regen_exact = all(
        np.array_equal(a.A.values, b.A.values)
        and np.array_equal(a.A.col_indices, b.A.col_indices)
        and np.array_equal(a.b, b.b)
        for a, b in zip(seq, regen)
    ) and np.array_equal(gen_output_matrix(9, seq.n, seed=78), seq.C)
    # a second write of the same sequence produces identical bytes
    manifest2 = write_sequence(seq, tmp_path / "two")
    same_bytes = open(manifest).read() == open(manifest2).read() and (
        (tmp_path / "one" / "A_001.mtx").read_text()
        == (tmp_path / "two" / "A_001.mtx").read_text()
    )
    report(
        "AC9 I/O reproducibility",
        bit_exact and regen_exact and same_bytes,
        "round trip, regeneration, and rewrite all bit exact",
    )
