import numpy as np
import pytest
import scipy.linalg

from helpers import make_spd_dense, make_sparse_spd, random_basis
from recykl.errors import (
    DimensionMismatch,
    NotPositiveDefinite,
    NotSymmetric,
    RankDeficient,
)
from recykl.linalg import (
    InstrumentationSink,
    SparseSpdMatrix,
    assemble_gram,
    dense_cholesky,
    generalized_symmetric_evd,
    principal_angle_distance,
    spmv,
    symmetric_evd,
    thin_svd,
)


class TestSparseSpdMatrix:
    def test_rejects_asymmetric(self):
        M = np.array([[2.0, 1.0], [0.5, 2.0]])
        with pytest.raises(NotSymmetric):
            SparseSpdMatrix.from_dense(M)

    def test_rejects_nonpositive_diagonal(self):
        M = np.array([[2.0, 0.0], [0.0, 0.0]])
        with pytest.raises(NotPositiveDefinite) as exc:
            SparseSpdMatrix.from_dense(M)
        assert exc.value.pivot == 1

    @pytest.mark.parametrize("M", [
        [[np.nan, 0.0], [0.0, 1.0]],
        [[2.0, np.nan], [np.nan, 2.0]],
        [[np.inf, 0.0], [0.0, 1.0]],
        [[2.0, -np.inf], [-np.inf, 2.0]],
    ], ids=["nan-diagonal", "nan-off-diagonal", "inf-diagonal", "inf-off-diagonal"])
    def test_rejects_non_finite_entries(self, M):
        # NaN passes every comparison of the symmetry and diagonal checks
        with pytest.raises(NotPositiveDefinite, match="not finite"):
            SparseSpdMatrix.from_dense(np.array(M))

    def test_round_trip_dense(self):
        A = make_sparse_spd(30, seed=1)
        assert np.array_equal(A.to_dense(), A.to_dense().T)


class TestSpmv:
    def test_identity(self):
        A = SparseSpdMatrix.identity(3)
        assert np.allclose(spmv(A, [1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])

    def test_diagonal(self):
        A = SparseSpdMatrix.from_diagonal([2.0, 3.0])
        assert np.allclose(spmv(A, [1.0, 1.0]), [2.0, 3.0])

    def test_matches_dense_oracle(self):
        A = make_sparse_spd(50, seed=7)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(50)
        expected = A.to_dense() @ x
        assert np.max(np.abs(spmv(A, x) - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("n", [5, 60, 200])
    def test_matches_dense_up_to_200(self, n):
        A = make_sparse_spd(n, seed=n)
        x = np.random.default_rng(n).standard_normal(n)
        scale = max(1.0, np.max(np.abs(A.to_dense() @ x)))
        assert np.max(np.abs(spmv(A, x) - A.to_dense() @ x)) <= 1e-12 * scale

    def test_counts_on_sink(self):
        A = SparseSpdMatrix.identity(4)
        sink = InstrumentationSink()
        spmv(A, np.ones(4), sink)
        spmv(A, np.ones(4), sink)
        assert sink.matvecs == 2

    def test_dimension_mismatch(self):
        A = SparseSpdMatrix.identity(4)
        with pytest.raises(DimensionMismatch):
            spmv(A, np.ones(5))


class TestDenseCholesky:
    def test_diagonal(self):
        R = dense_cholesky(np.diag([4.0, 9.0]))
        assert np.allclose(R.full(), np.diag([2.0, 3.0]))

    def test_identity(self):
        R = dense_cholesky(np.eye(3))
        assert np.allclose(R.full(), np.eye(3))

    def test_reconstruction_oracle(self):
        V = np.random.default_rng(5).standard_normal((8, 5))
        G = V.T @ V
        L = dense_cholesky(G).full()
        assert np.linalg.norm(L @ L.T - G) <= 1e-12 * np.linalg.norm(G)

    @pytest.mark.parametrize("seed", range(5))
    def test_reconstruct_random_spd(self, seed):
        G = make_spd_dense(12, seed=seed, cond=1e4)
        L = dense_cholesky(G).full()
        assert np.linalg.norm(L @ L.T - G) <= 1e-12 * np.linalg.norm(G)

    def test_not_positive_definite_reports_pivot(self):
        G = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(NotPositiveDefinite) as exc:
            dense_cholesky(G)
        assert exc.value.pivot == 2

    def test_solve_inverts(self):
        G = make_spd_dense(6, seed=2)
        L = dense_cholesky(G)
        rhs = np.arange(1.0, 7.0)
        assert np.allclose(G @ L.solve_spd(rhs), rhs, atol=1e-10)


class TestTriangularSolve:
    # scipy.linalg.solve_triangular is the reference the LAPACK calls replace
    @pytest.mark.parametrize("m", [1, 5, 50, 200])
    @pytest.mark.parametrize("layout", ["vector", "C", "F"])
    def test_equals_solve_triangular(self, m, layout):
        L = dense_cholesky(make_spd_dense(m, seed=m, cond=1e3))
        rng = np.random.default_rng(m + 1)
        rhs = {"vector": rng.standard_normal(m),
               "C": rng.standard_normal((m, 7)),
               "F": rng.standard_normal((7, m)).T}[layout]
        full = L.full()
        lower = scipy.linalg.solve_triangular(full, rhs, lower=True)
        upper = scipy.linalg.solve_triangular(full, rhs, lower=True, trans="T")
        assert np.array_equal(L.solve_lower(rhs), lower)
        assert np.array_equal(L.solve_upper(rhs), upper)
        assert np.array_equal(L.solve_spd(rhs),
                              scipy.linalg.solve_triangular(full, lower, lower=True, trans="T"))

    def test_nan_rhs_raises_value_error(self):
        L = dense_cholesky(make_spd_dense(4, seed=3))
        with pytest.raises(ValueError, match="infs or NaNs"):
            L.solve_lower(np.array([1.0, np.nan, 0.0, 0.0]))
        with pytest.raises(ValueError, match="infs or NaNs"):
            L.solve_spd(np.array([1.0, np.inf, 0.0, 0.0]))

    def test_empty_factor(self):
        L = dense_cholesky(np.zeros((0, 0)))
        assert L.solve_spd(np.zeros(0)).shape == (0,)
        assert L.solve_lower(np.zeros((0, 3))).shape == (0, 3)

    def test_rhs_length_mismatch(self):
        L = dense_cholesky(np.eye(3))
        with pytest.raises(DimensionMismatch):
            L.solve_lower(np.ones(4))


class TestSymmetricEvd:
    def test_diagonal_sorted_descending(self):
        w, V = symmetric_evd(np.diag([1.0, 5.0, 3.0]))
        assert np.allclose(w, [5.0, 3.0, 1.0])
        expected_positions = [1, 2, 0]
        for col, pos in enumerate(expected_positions):
            e = np.zeros(3)
            e[pos] = 1.0
            assert min(np.linalg.norm(V[:, col] - e), np.linalg.norm(V[:, col] + e)) < 1e-12

    def test_zero_matrix(self):
        w, V = symmetric_evd(np.zeros((4, 4)))
        assert np.allclose(w, 0.0)
        assert np.allclose(V.T @ V, np.eye(4), atol=1e-12)

    def test_residual_oracle(self):
        G = 0.5 * (lambda M: M + M.T)(np.random.default_rng(9).standard_normal((12, 12)))
        w, V = symmetric_evd(G)
        scale = np.linalg.norm(G)
        assert np.max(np.abs(G @ V - V * w)) <= 1e-9 * scale
        assert np.allclose(V.T @ V, np.eye(12), atol=1e-10)

    def test_eigenvalue_sum_equals_trace(self):
        G = make_spd_dense(15, seed=21)
        w, _ = symmetric_evd(G)
        assert abs(w.sum() - np.trace(G)) <= 1e-10 * abs(np.trace(G))


class TestThinSvd:
    def test_diagonal(self):
        _, s, _ = thin_svd(np.diag([2.0, 1.0]))
        assert np.allclose(s, [2.0, 1.0])

    def test_rank_one(self):
        u = np.array([1.0, 2.0, 2.0])
        v = np.array([3.0, 4.0])
        _, s, _ = thin_svd(np.outer(u, v))
        assert s[0] == pytest.approx(np.linalg.norm(u) * np.linalg.norm(v))
        assert np.all(s[1:] <= 1e-12 * s[0])

    def test_orthogonality_and_reconstruction(self):
        B = np.random.default_rng(13).standard_normal((20, 6))
        U, s, V = thin_svd(B)
        assert np.allclose(U.T @ U, np.eye(6), atol=1e-12)
        assert np.allclose(V.T @ V, np.eye(6), atol=1e-12)
        assert np.linalg.norm(U @ np.diag(s) @ V.T - B) <= 1e-10 * np.linalg.norm(B)
        assert np.all(np.diff(s) <= 0) and np.all(s >= 0)


class TestGeneralizedEvd:
    def test_identity_mass(self):
        w, _ = generalized_symmetric_evd(np.diag([1.0, 4.0]), np.eye(2))
        assert np.allclose(w, [4.0, 1.0])

    def test_equal_operands(self):
        G = make_spd_dense(5, seed=3)
        w, _ = generalized_symmetric_evd(G, G)
        assert np.allclose(w, 1.0)

    def test_residual_oracle(self):
        K = make_spd_dense(10, seed=30)
        M = make_spd_dense(10, seed=31)
        w, G = generalized_symmetric_evd(K, M)
        assert np.linalg.norm(K @ G - M @ G @ np.diag(w)) <= 1e-8 * np.linalg.norm(K)
        assert np.allclose(G.T @ M @ G, np.eye(10), atol=1e-8)

    def test_mass_not_spd(self):
        with pytest.raises(NotPositiveDefinite):
            generalized_symmetric_evd(np.eye(2), np.diag([1.0, -1.0]))


class TestPrincipalAngleDistance:
    def test_planar_rotation(self):
        t = 0.3
        U = np.array([[1.0], [0.0]])
        V = np.array([[np.cos(t)], [np.sin(t)]])
        assert principal_angle_distance(U, V) == pytest.approx(abs(np.sin(t)), abs=1e-12)

    def test_equal_subspaces(self):
        U = random_basis(8, 3, seed=17)
        # same range expressed in a different column basis
        V = U @ np.random.default_rng(18).standard_normal((3, 3))
        assert principal_angle_distance(U, U) <= 1e-12
        assert principal_angle_distance(U, V) <= 1e-12

    def test_distinct_subspaces_positive(self):
        U = random_basis(8, 3, seed=19)
        V = random_basis(8, 3, seed=20)
        assert principal_angle_distance(U, V) > 1e-3

    def test_sampling_oracle(self):
        # directed distance = max over unit u in range(U) of the distance
        # from u to range(V); the inner minimum is the exact projection
        # residual, the outer maximum is brute-forced over the 3-sphere.
        U = random_basis(8, 3, seed=23)
        V = random_basis(8, 3, seed=24)
        Qu, _ = np.linalg.qr(U)
        Qv, _ = np.linalg.qr(V)
        C = np.random.default_rng(25).standard_normal((3, 40000))
        C /= np.linalg.norm(C, axis=0)
        samples = Qu @ C
        resid = samples - Qv @ (Qv.T @ samples)
        brute = np.max(np.linalg.norm(resid, axis=0))
        assert abs(principal_angle_distance(U, V) - brute) <= 1e-3

    def test_rank_deficient_rejected(self):
        U = np.ones((5, 2))
        with pytest.raises(RankDeficient):
            principal_angle_distance(U, np.eye(5)[:, :2])


class TestAssembleGram:
    def test_counts_and_value(self):
        A = make_sparse_spd(12, seed=40)
        B = random_basis(12, 4, seed=41)
        sink = InstrumentationSink()
        G, AB = assemble_gram(A, B, sink)
        assert sink.matvecs == 4
        assert np.allclose(G, B.T @ A.to_dense() @ B)
        assert np.allclose(AB, A.to_dense() @ B)
