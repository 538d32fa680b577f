import numpy as np
import pytest

from helpers import make_sparse_spd
from recykl import preconditioners as pc
from recykl.errors import NotPositiveDefinite, RecyklError
from recykl.linalg import InstrumentationSink, SparseSpdMatrix


def tridiag(n):
    M = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    return SparseSpdMatrix.from_dense(M)


class TestBuild:
    def test_jacobi_diagonal(self):
        M = pc.build("jacobi", SparseSpdMatrix.from_diagonal([2.0, 4.0]))
        assert np.allclose(M.apply(np.array([2.0, 4.0])), [1.0, 1.0])

    def test_identity_is_not_built(self):
        # no preconditioner is precond=None to the solvers, not an object
        with pytest.raises(RecyklError):
            pc.build("identity", make_sparse_spd(6, seed=0))

    def test_ssor_matches_dense_factored_oracle(self):
        A = tridiag(5)
        omega = 1.0  # the relaxation of a bare "ssor"
        M = pc.build("ssor", A)
        D = np.diag(A.diagonal())
        L = np.tril(A.to_dense(), k=-1)
        dense_M = (D / omega + L) @ np.linalg.inv(D) @ (D / omega + L).T
        r = np.array([1.0, -2.0, 3.0, 0.5, -1.0])
        assert np.max(np.abs(M.apply(r) - np.linalg.solve(dense_M, r))) <= 1e-12

    @pytest.mark.parametrize("omega", [0.5, 1.0, 1.6])
    def test_ssor_omega_variants(self, omega):
        A = make_sparse_spd(20, seed=5)
        M = pc.build(f"ssor:{omega}", A)
        D = np.diag(A.diagonal())
        L = np.tril(A.to_dense(), k=-1)
        dense_M = (D / omega + L) @ np.linalg.inv(D) @ (D / omega + L).T
        r = np.random.default_rng(1).standard_normal(20)
        assert np.allclose(M.apply(r), np.linalg.solve(dense_M, r), atol=1e-11)

    def test_bad_omega(self):
        with pytest.raises(RecyklError):
            pc.build("ssor:2.0", tridiag(3))

    @pytest.mark.parametrize("spec", ["ssor:abc", "ssor:"])
    def test_malformed_spec(self, spec):
        with pytest.raises(RecyklError):
            pc.build(spec, tridiag(3))

    def test_unknown_kind(self):
        with pytest.raises(RecyklError):
            pc.build("amg", tridiag(3))

    def test_zero_diagonal_rejected(self):
        # bypass the SparseSpdMatrix check to exercise the builder's own guard
        A = SparseSpdMatrix.identity(3)
        A._csr = A.to_scipy().copy()
        A._csr[0, 0] = 0.0
        with pytest.raises(NotPositiveDefinite):
            pc.build("jacobi", A)


class TestApply:
    def test_counts_on_sink(self):
        A = tridiag(4)
        M = pc.build("ssor", A)
        sink = InstrumentationSink()
        M.apply(np.ones(4), sink)
        M.apply(np.ones(4), sink)
        assert sink.precond_applies == 2

    @pytest.mark.parametrize("kind", ["jacobi", "ssor"])
    def test_symmetric_operator(self, kind):
        A = make_sparse_spd(15, seed=8)
        M = pc.build(kind, A)
        rng = np.random.default_rng(2)
        r, s = rng.standard_normal(15), rng.standard_normal(15)
        lhs = r @ M.apply(s)
        rhs = s @ M.apply(r)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    @pytest.mark.parametrize("kind", ["jacobi", "ssor"])
    def test_linear(self, kind):
        A = make_sparse_spd(12, seed=9)
        M = pc.build(kind, A)
        rng = np.random.default_rng(3)
        r, s = rng.standard_normal(12), rng.standard_normal(12)
        a, b = 0.7, -1.3
        combo = M.apply(a * r + b * s)
        split = a * M.apply(r) + b * M.apply(s)
        assert np.max(np.abs(combo - split)) <= 1e-12 * max(1.0, np.max(np.abs(combo)))

    @pytest.mark.parametrize("kind", ["jacobi", "ssor"])
    def test_positive_definite(self, kind):
        A = make_sparse_spd(12, seed=10)
        M = pc.build(kind, A)
        rng = np.random.default_rng(4)
        for _ in range(5):
            r = rng.standard_normal(12)
            assert r @ M.apply(r) > 0.0
