import numpy as np
import pytest

from helpers import make_spd, make_spd_dense, random_basis
from recykl.errors import NoHistory
from recykl.weights import (
    WeightHistory,
    idw_weight,
    weights_ideal,
    weights_previous,
    weights_rbf,
)


def oblique_projector(Adense, Z):
    """Dense A-orthogonal projector onto range(Z)."""
    return Z @ np.linalg.solve(Z.T @ Adense @ Z, Z.T @ Adense)


class TestIdwWeight:
    def test_pinned_values(self):
        assert idw_weight(1) == 1.0
        assert idw_weight(2) == 0.5
        assert idw_weight(3) == 0.25


class TestWeightsIdeal:
    def test_full_basis_recovers_error(self):
        A = make_spd(12, seed=70)
        rng = np.random.default_rng(71)
        b = rng.standard_normal(12)
        xbar = rng.standard_normal(12)
        eta = weights_ideal(np.eye(12), A, b, xbar)
        xstar = np.linalg.solve(A.to_dense(), b)
        assert np.allclose(eta, xstar - xbar, atol=1e-9)

    def test_zero_residual_gives_zero(self):
        A = make_spd(10, seed=72)
        xbar = np.random.default_rng(73).standard_normal(10)
        b = A.to_dense() @ xbar
        Z = random_basis(10, 3, seed=74)
        assert np.max(np.abs(weights_ideal(Z, A, b, xbar))) <= 1e-10

    def test_matches_normal_equations_oracle(self):
        A = make_spd(20, seed=75)
        rng = np.random.default_rng(76)
        b = rng.standard_normal(20)
        xbar = rng.standard_normal(20)
        Z = random_basis(20, 5, seed=77)
        Ad = A.to_dense()
        expected = np.linalg.solve(Z.T @ Ad @ Z, Z.T @ (b - Ad @ xbar))
        assert np.allclose(weights_ideal(Z, A, b, xbar), expected, atol=1e-10)

    def test_residual_orthogonality(self):
        A = make_spd(18, seed=78)
        rng = np.random.default_rng(79)
        b = rng.standard_normal(18)
        xbar = rng.standard_normal(18)
        Z = random_basis(18, 4, seed=80)
        eta = weights_ideal(Z, A, b, xbar)
        Ad = A.to_dense()
        resid = Z.T @ Ad @ (xbar + Z @ eta - np.linalg.solve(Ad, b))
        assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(b)

    def test_rank_deficient(self):
        # a repeated column gets a zero coefficient; the Galerkin condition
        # Z'(A(xbar + Z eta) - b) = 0 still holds
        A = make_spd(8, seed=81)
        Z = np.ones((8, 2))
        b = np.ones(8)
        xbar = np.random.default_rng(82).standard_normal(8)
        eta = weights_ideal(Z, A, b, xbar)
        assert np.count_nonzero(eta) == 1
        resid = Z.T @ (A.to_dense() @ (xbar + Z @ eta) - b)
        assert np.linalg.norm(resid) <= 1e-12 * np.linalg.norm(Z.T @ b)


class TestHistorySchemes:
    def test_previous_is_latest_padded(self):
        h = WeightHistory()
        h.push([1.0, 2.0])
        h.push([3.0, 4.0, 5.0])
        assert np.allclose(weights_previous(h), [3.0, 4.0, 5.0])
        assert np.allclose(h.padded(0), [1.0, 2.0, 0.0])

    def test_no_history(self):
        with pytest.raises(NoHistory):
            weights_previous(WeightHistory())
        with pytest.raises(NoHistory):
            weights_rbf(WeightHistory(), 1)

    def test_rbf_window_one_equals_previous(self):
        h = WeightHistory()
        h.push([1.0, 0.0])
        h.push([0.5, 2.0, 1.0])
        assert np.array_equal(weights_rbf(h, 1), weights_previous(h))

    def test_rbf_two_entry_arithmetic(self):
        h = WeightHistory()
        h.push([1.0, 0.0, 0.0])
        h.push([0.0, 2.0, 0.0])
        assert np.allclose(weights_rbf(h, 2), [0.5, 2.0, 0.0])


class TestWeightGapBound:
    @pytest.mark.parametrize("seed", range(10))
    def test_previous_vs_ideal_gap_bounded(self, seed):
        # ||ideal - previous|| is controlled by the projector perturbation
        # and the drift of the centered solution, scaled by 1/sigma_min(Z)
        rng = np.random.default_rng(500 + seed)
        n, m = 20, 5
        A_prev = make_spd_dense(n, seed=600 + seed)
        A_cur = A_prev + 0.05 * make_spd_dense(n, seed=700 + seed)
        Z = random_basis(n, m, seed=800 + seed)
        xbar_prev = rng.standard_normal(n)
        xbar_cur = rng.standard_normal(n)
        xstar_prev = rng.standard_normal(n) + xbar_prev
        xstar_cur = rng.standard_normal(n) + xbar_cur
        b_prev = A_prev @ xstar_prev
        b_cur = A_cur @ xstar_cur

        eta_ideal = np.linalg.solve(Z.T @ A_cur @ Z, Z.T @ (b_cur - A_cur @ xbar_cur))
        eta_prev = np.linalg.solve(Z.T @ A_prev @ Z, Z.T @ (b_prev - A_prev @ xbar_prev))

        P_cur = oblique_projector(A_cur, Z)
        P_prev = oblique_projector(A_prev, Z)
        sigma_min = np.linalg.svd(Z, compute_uv=False)[-1]
        sigma1 = np.linalg.norm(P_prev, 2)
        d_cur = xstar_cur - xbar_cur
        d_prev = xstar_prev - xbar_prev
        rhs = (
            np.linalg.norm(P_cur - P_prev, 2) * np.linalg.norm(d_cur)
            + sigma1 * np.linalg.norm(d_cur - d_prev)
        ) / sigma_min
        assert np.linalg.norm(eta_ideal - eta_prev) <= rhs * (1 + 1e-8)

    def test_equality_for_invariant_matrix_and_repeated_error(self):
        A = make_spd(16, seed=85)
        rng = np.random.default_rng(86)
        Z = random_basis(16, 4, seed=87)
        d = rng.standard_normal(16)
        xbar_prev, xbar_cur = rng.standard_normal(16), rng.standard_normal(16)
        Ad = A.to_dense()
        eta_prev = np.linalg.solve(Z.T @ Ad @ Z, Z.T @ (Ad @ (xbar_prev + d) - Ad @ xbar_prev))
        eta_ideal = np.linalg.solve(Z.T @ Ad @ Z, Z.T @ (Ad @ (xbar_cur + d) - Ad @ xbar_cur))
        assert np.linalg.norm(eta_ideal - eta_prev) <= 1e-8 * max(1.0, np.linalg.norm(eta_ideal))
