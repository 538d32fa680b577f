import numpy as np
import pytest

from helpers import make_spd_dense
from recykl.errors import DimensionMismatch, EmptyBasis
from recykl.linalg import principal_angle_distance
from recykl.pod import energy_dim, energy_truncation_dim, pod_evd, pod_svd


def pod_objective_oracle(basis, S, gamma, theta):
    """Dense oracle for the weighted sum of squared projection errors."""
    w, Q = np.linalg.eigh(theta)
    w = np.maximum(w, 0.0)
    half = (Q * np.sqrt(w)) @ Q.T
    HB = half @ basis
    total = 0.0
    for i in range(S.shape[1]):
        v = half @ (gamma[i] * S[:, i])
        coef, *_ = np.linalg.lstsq(HB, v, rcond=None)
        total += float(np.sum((v - HB @ coef) ** 2))
    return total


class TestEnergyTruncationDim:
    def test_exact_ratio(self):
        assert energy_truncation_dim([4.0, 1.0], 0.8) == 1

    def test_just_above_ratio(self):
        assert energy_truncation_dim([4.0, 1.0], 0.81) == 2

    def test_rank_limited_full_energy(self):
        assert energy_truncation_dim([1.0, 1.0, 1.0, 0.0], 1.0) == 3

    def test_eps_zero_keeps_one(self):
        assert energy_truncation_dim([5.0, 4.0, 3.0], 0.0) == 1

    def test_empty_spectrum(self):
        with pytest.raises(EmptyBasis):
            energy_truncation_dim([], 0.5)

    def test_all_zero_spectrum(self):
        with pytest.raises(EmptyBasis):
            energy_truncation_dim([0.0, 0.0], 0.5)

    def test_increasing_rejected(self):
        with pytest.raises(DimensionMismatch):
            energy_truncation_dim([1.0, 2.0], 0.5)

    def test_unreachable_energy_warns_and_truncates(self):
        # reported by energy_dim's flag, not by a warning
        spectrum = [1.0, 1e-14]
        assert energy_truncation_dim(spectrum, 1.0) == 1
        assert energy_dim(spectrum, 1.0) == (1, True)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force_scan(self, seed):
        rng = np.random.default_rng(seed)
        sig = np.sort(rng.random(8))[::-1]
        sig[-1] = 0.0 if seed % 2 else sig[-1]
        eps = rng.random()
        total = sig.sum()
        rank = int(np.sum(sig > 1e-12 * sig[0]))
        brute = next(
            (i for i in range(1, rank + 1) if sig[:i].sum() / total >= eps), rank
        )
        assert energy_truncation_dim(sig, eps) == brute


class TestPodEvd:
    def test_diagonal_snapshots_forced_ratio(self):
        S = np.array([[2.0, 0.0], [0.0, 1.0]])
        res = pod_evd(S, np.ones(2), np.eye(2), eps=0.8)
        assert np.allclose(res.singular_values**2, [4.0, 1.0])
        assert res.y == 1
        assert min(
            np.linalg.norm(res.columns[:, 0] - [1, 0]),
            np.linalg.norm(res.columns[:, 0] + [1, 0]),
        ) < 1e-12

    def test_zero_weight_annihilates_snapshot(self):
        S = np.array([[2.0, 0.0], [0.0, 1.0]])
        for eps in (0.0, 0.5, 1.0):
            res = pod_evd(S, np.array([1.0, 0.0]), np.eye(2), eps=eps)
            assert res.y == 1
            assert abs(abs(res.columns[1, 0])) < 1e-12

    def test_all_zero_weights(self):
        with pytest.raises(EmptyBasis):
            pod_evd(np.eye(3), np.zeros(3), np.eye(3), eps=0.5)

    def test_orthonormality_and_range(self):
        rng = np.random.default_rng(60)
        S = rng.standard_normal((30, 6))
        gamma = rng.random(6) + 0.1
        theta = make_spd_dense(30, seed=61)
        res = pod_evd(S, gamma, theta, eps=1.0)
        Phi = res.columns
        assert np.max(np.abs(Phi.T @ theta @ Phi - np.eye(res.y))) <= 1e-9
        assert principal_angle_distance(Phi, S * gamma) <= 1e-9

    def test_nestedness(self):
        rng = np.random.default_rng(62)
        S = rng.standard_normal((20, 7))
        gamma = rng.random(7) + 0.5
        theta = make_spd_dense(20, seed=63)
        full = pod_evd(S, gamma, theta, eps=1.0)
        for eps in (0.2, 0.5, 0.9, 0.99):
            part = pod_evd(S, gamma, theta, eps=eps)
            assert part.y <= full.y
            assert np.allclose(part.columns, full.columns[:, : part.y], atol=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_optimality_against_random_subspaces(self, seed):
        rng = np.random.default_rng(100 + seed)
        S = rng.standard_normal((15, 6))
        gamma = rng.random(6) + 0.2
        theta = make_spd_dense(15, seed=200 + seed, cond=30.0)
        res = pod_evd(S, gamma, theta, eps=0.7)
        pod_val = pod_objective_oracle(res.columns, S, gamma, theta)
        weighted = S * gamma
        for _ in range(100):
            mix = rng.standard_normal((6, res.y))
            candidate = weighted @ mix
            val = pod_objective_oracle(candidate, S, gamma, theta)
            assert pod_val <= val + 1e-9 * max(1.0, val)


class TestPodSvd:
    def test_identity_factor_reduces_to_plain_svd(self):
        rng = np.random.default_rng(64)
        S = rng.standard_normal((10, 4))
        gamma = rng.random(4) + 0.3
        res = pod_svd(S, gamma, np.eye(10), eps=1.0)
        ref = np.linalg.svd(S * gamma, compute_uv=False)
        assert np.allclose(res.singular_values[: len(ref)], ref, atol=1e-12)

    def test_rank_one_pseudometric(self):
        S = np.eye(2)
        res = pod_svd(S, np.ones(2), np.array([[1.0, 0.0]]), eps=1.0)
        assert np.allclose(res.singular_values, [1.0, 0.0])
        assert res.y == 1
        assert min(
            np.linalg.norm(res.columns[:, 0] - [1, 0]),
            np.linalg.norm(res.columns[:, 0] + [1, 0]),
        ) < 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_cross_algorithm_equivalence(self, seed):
        # evd on Theta and svd on a factor of the same Theta agree
        rng = np.random.default_rng(300 + seed)
        n, s = 25, 7
        S = rng.standard_normal((n, s))
        gamma = rng.random(s) + 0.2
        F = rng.standard_normal((n + 3, n))
        theta = F.T @ F
        eps = 0.85
        res_evd = pod_evd(S, gamma, theta, eps=eps)
        res_svd = pod_svd(S, gamma, F, eps=eps)
        assert res_evd.y == res_svd.y
        assert np.max(np.abs(res_evd.singular_values - res_svd.singular_values)) <= 1e-10 * max(
            1.0, res_evd.singular_values[0]
        )
        assert principal_angle_distance(res_evd.columns, res_svd.columns) <= 1e-8

    def test_semidefinite_metric_accepted(self):
        rng = np.random.default_rng(65)
        S = rng.standard_normal((12, 5))
        F = rng.standard_normal((3, 12))  # rank-3 pseudometric
        res = pod_svd(S, np.ones(5), F, eps=1.0)
        assert res.y <= 3
