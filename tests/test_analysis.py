import numpy as np
import pytest

from helpers import make_spd_dense, random_basis
from recykl.analysis import (
    BoundCheckReport,
    REGIMES,
    abssep,
    check_conditioning_bound,
    check_subspace_distance_bound,
    check_weights_bound,
    make_distance_instance,
    make_weights_instance,
    pod_objective,
    spectral_norm,
    strong_separation,
    DistanceBoundInstance,
    WeightsBoundInstance,
)
from recykl.errors import RegimeInapplicable


class TestAbssep:
    def test_min_pairwise_gap(self):
        assert abssep([1.0, 5.0], [2.5, 7.0]) == pytest.approx(1.5)

    def test_matches_variational_definition_on_samples(self):
        # for diagonal spectra the variational form min ||L Z - Z M|| over
        # unit-norm Z reduces to the smallest pairwise gap; cross-check by
        # sampling candidate matrices
        rng = np.random.default_rng(130)
        lam1 = np.array([0.5, 2.0, 4.0])
        lam2 = np.array([1.2, 3.1])
        direct = abssep(lam1, lam2)
        best = np.inf
        for _ in range(4000):
            Z = rng.standard_normal((3, 2))
            Z /= np.linalg.norm(Z, 2)
            best = min(best, np.linalg.norm(np.diag(lam1) @ Z - Z @ np.diag(lam2), 2))
        assert direct <= best + 1e-12
        assert best <= direct + 0.05

    def test_strong_separation_sign(self):
        assert strong_separation([0.1, 0.2], [1.0, 2.0]) == pytest.approx(0.8)
        assert strong_separation([0.5, 1.5], [1.0, 2.0]) < 0


class TestSpectralNorm:
    def test_matches_dense(self):
        A = make_spd_dense(30, seed=131)
        assert spectral_norm(A) == pytest.approx(np.linalg.norm(A, 2))

    def test_sparse_path(self):
        import scipy.sparse

        A = make_spd_dense(300, seed=132)
        A[np.abs(A) < np.percentile(np.abs(A), 80)] = 0.0
        A = 0.5 * (A + A.T)
        S = scipy.sparse.csr_matrix(A)
        assert spectral_norm(S) == pytest.approx(np.linalg.norm(A, 2), rel=1e-8)


class TestPodObjective:
    def test_full_range_zero(self):
        S = random_basis(12, 4, seed=133)
        theta = make_spd_dense(12, seed=134)
        assert pod_objective(S, S, np.ones(4), theta) <= 1e-18 * np.linalg.norm(S) ** 2

    def test_orthogonal_subspace_full_energy(self):
        theta = np.eye(6)
        S = np.eye(6)[:, :2]
        basis = np.eye(6)[:, 3:5]
        gamma = np.array([2.0, 3.0])
        expected = sum(gamma[i] ** 2 * 1.0 for i in range(2))
        assert pod_objective(basis, S, gamma, theta) == pytest.approx(expected)

    def test_pod_attains_minimum(self):
        from recykl.pod import pod_evd

        rng = np.random.default_rng(135)
        S = rng.standard_normal((14, 6))
        gamma = rng.random(6) + 0.3
        theta = make_spd_dense(14, seed=136)
        res = pod_evd(S, gamma, theta, eps=0.75)
        val_pod = pod_objective(res.columns, S, gamma, theta)
        weighted = S * gamma
        for _ in range(100):
            cand = weighted @ rng.standard_normal((6, res.y))
            assert val_pod <= pod_objective(cand, S, gamma, theta) + 1e-9


class TestWeightsBound:
    @pytest.mark.parametrize("seed", range(20))
    def test_matrix_variant_satisfied(self, seed):
        rep = check_weights_bound(make_weights_instance(seed))
        assert rep.satisfied, rep

    @pytest.mark.parametrize("seed", range(10))
    def test_output_variant_satisfied(self, seed):
        rep = check_weights_bound(make_weights_instance(seed, output_metric=True))
        assert rep.satisfied, rep

    def test_equality_case_zero(self):
        # invariant matrix, identical centered solutions: both sides zero
        rng = np.random.default_rng(140)
        n, m = 18, 5
        A = make_spd_dense(n, seed=141)
        Z = random_basis(n, m, seed=142)
        d = rng.standard_normal(n)
        xbar_prev, xbar_cur = rng.standard_normal(n), rng.standard_normal(n)
        inst = WeightsBoundInstance(
            Z=Z, A_prev=A, A_cur=A,
            xbar_prev=xbar_prev, xbar_cur=xbar_cur,
            xstar_prev=xbar_prev + d, xstar_cur=xbar_cur + d,
            label="equality",
        )
        rep = check_weights_bound(inst)
        assert rep.lhs <= 1e-8
        assert rep.rhs <= 1e-7
        assert rep.satisfied


class TestSubspaceDistanceBound:
    @pytest.mark.parametrize("regime", REGIMES)
    @pytest.mark.parametrize("seed", range(10))
    def test_regimes_satisfied(self, regime, seed):
        inst = make_distance_instance(1000 * REGIMES.index(regime) + seed, regime)
        rep = check_subspace_distance_bound(inst, regime)
        assert rep.satisfied, (regime, seed, rep)

    def test_identical_inputs_zero_distance(self):
        inst = make_distance_instance(7, "fixed_weights")
        inst = DistanceBoundInstance(
            Z=inst.Z, theta_comp=inst.theta_comp, delta_theta=np.zeros_like(inst.theta_comp),
            eta_ideal=inst.eta_ideal, eta_comp=inst.eta_ideal.copy(), y=inst.y, label="zero",
        )
        rep = check_subspace_distance_bound(inst, "general")
        assert rep.lhs <= 1e-10
        assert rep.rhs <= 1e-10 or rep.satisfied

    def test_metric_sweep_shrinks_both_sides(self):
        rng = np.random.default_rng(143)
        base = make_distance_instance(42, "fixed_weights")
        bump = rng.standard_normal(base.theta_comp.shape)
        bump = bump @ bump.T / base.theta_comp.shape[0]
        lhs_prev, rhs_prev = np.inf, np.inf
        for t in (1e-2, 1e-3, 1e-4):
            inst = DistanceBoundInstance(
                Z=base.Z, theta_comp=base.theta_comp, delta_theta=t * bump,
                eta_ideal=base.eta_ideal, eta_comp=base.eta_ideal.copy(), y=base.y,
                label=f"sweep-{t}",
            )
            rep = check_subspace_distance_bound(inst, "fixed_weights")
            assert rep.satisfied
            assert rep.lhs <= lhs_prev * 1.5 and rep.rhs <= rhs_prev * 1.5
            lhs_prev, rhs_prev = rep.lhs, rep.rhs

    def test_commuting_precondition_enforced(self):
        inst = make_distance_instance(3, "general")
        with pytest.raises(RegimeInapplicable):
            check_subspace_distance_bound(inst, "commuting")

    def test_fixed_regime_preconditions(self):
        inst = make_distance_instance(4, "general")
        with pytest.raises(RegimeInapplicable):
            check_subspace_distance_bound(inst, "fixed_metric")
        with pytest.raises(RegimeInapplicable):
            check_subspace_distance_bound(inst, "fixed_weights")


class TestConditioningBound:
    def _run(self, delta, seed, **cfg_kw):
        from recykl.problems import gen_diffusion_sequence
        from recykl.threestage import SolverConfig, run_sequence
        from recykl.truncation import TruncationConfig

        seq = gen_diffusion_sequence((8, 8), p=8, delta=delta, seed=seed, tol=1e-8)
        cfg = SolverConfig(
            truncation=TruncationConfig(
                strategy="pod-a-rbf", nu_y=0.9999, nu_w=0.9999, storage_cap=14, max_dim=10,
                **cfg_kw,
            )
        )
        _, reports, traces = run_sequence(seq, cfg, keep_trace=True)
        assert all(r.converged for r in reports)
        return traces

    def test_invariant_matrix_identity_gram(self):
        traces = self._run(0.0, seed=144)
        reports = check_conditioning_bound(traces)
        for rep in reports:
            assert rep.lhs <= 1e-8
            assert rep.satisfied

    def test_drifting_sequence_bounded(self):
        traces = self._run(0.05, seed=145)
        reports = check_conditioning_bound(traces)
        assert reports
        for rep in reports:
            assert rep.satisfied, rep

    def test_hypothesis_checked(self):
        from recykl.problems import gen_diffusion_sequence
        from recykl.threestage import SolverConfig, run_sequence
        from recykl.truncation import TruncationConfig

        seq = gen_diffusion_sequence((7, 7), p=4, delta=0.02, seed=146, tol=1e-8)
        cfg = SolverConfig(
            truncation=TruncationConfig(strategy="pod-a-rbf", nu_y=1.0, nu_w=0.3, stage1_dim=2,
                                        storage_cap=10)
        )
        _, _, traces = run_sequence(seq, cfg, keep_trace=True)
        with pytest.raises(RegimeInapplicable):
            check_conditioning_bound(traces)


class TestReportShape:
    def test_compare_and_serialize(self):
        rep = BoundCheckReport.compare(1.0, 2.0, {"x": 1})
        assert rep.satisfied
        d = rep.as_dict()
        assert d["lhs"] == 1.0 and d["context"] == {"x": 1}
