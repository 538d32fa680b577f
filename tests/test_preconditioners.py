import numpy as np
import pytest

from helpers import make_sparse_spd
from recykl import preconditioners as pc
from recykl.errors import NotPositiveDefinite, RecyklError
from recykl.linalg import InstrumentationSink, SparseSpdMatrix


def tridiag(n):
    M = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    return SparseSpdMatrix.from_dense(M)


def dense_ssor_solve(A, omega, r):
    """Oracle: solve (D/w + L) D^-1 (D/w + L)' z = r densely."""
    dense = A.to_dense()
    D = np.diag(np.diag(dense))
    lower = D / omega + np.tril(dense, k=-1)
    return np.linalg.solve(lower @ np.linalg.inv(D) @ lower.T, r)


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
        M = pc.build("ssor", A)  # a bare "ssor" relaxes with 1
        r = np.array([1.0, -2.0, 3.0, 0.5, -1.0])
        assert np.max(np.abs(M.apply(r) - dense_ssor_solve(A, 1.0, r))) <= 1e-12

    @pytest.mark.parametrize("omega", [0.5, 1.0, 1.6])
    def test_ssor_omega_variants(self, omega):
        A = make_sparse_spd(20, seed=5)
        M = pc.build(f"ssor:{omega}", A)
        r = np.random.default_rng(1).standard_normal(20)
        assert np.allclose(M.apply(r), dense_ssor_solve(A, omega, r), atol=1e-11)

    @pytest.mark.parametrize("omega", [1.5, 1.9])
    def test_ssor_off_diagonal_above_scaled_pivot(self, omega):
        # a_21 = 0.9 exceeds a_11/w, the pivot a row-swapping factorization
        # of D/w + L would have passed over
        dense = np.array([[1.0, 0.9, 0.0, 0.2],
                          [0.9, 4.0, 1.5, 0.0],
                          [0.0, 1.5, 2.0, 0.6],
                          [0.2, 0.0, 0.6, 1.0]])
        A = SparseSpdMatrix.from_dense(dense)
        assert np.all(np.linalg.eigvalsh(dense) > 0.0)
        assert 0.9 > dense[0, 0] / omega and 1.5 > dense[2, 2] / omega
        r = np.array([1.0, -2.0, 0.5, 3.0])
        expected = dense_ssor_solve(A, omega, r)
        got = pc.build(f"ssor:{omega}", A).apply(r)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_ssor_from_unsorted_duplicate_entries(self):
        # every entry of a random sparse SPD matrix split in two pieces and
        # the pieces shuffled within their row: the CSR arrays reach the
        # builder unsorted and with duplicates
        dense = make_sparse_spd(30, seed=11, density=0.15).to_dense()
        rng = np.random.default_rng(12)
        rows, cols = np.nonzero(dense)
        part = rng.random(rows.size)
        rows, cols = np.tile(rows, 2), np.tile(cols, 2)
        vals = np.concatenate((part, 1.0 - part)) * dense[rows, cols]
        order = np.lexsort((rng.random(rows.size), rows))
        offsets = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=30))))
        A = SparseSpdMatrix(30, offsets, cols[order], vals[order])
        assert not A.to_scipy().has_canonical_format
        r = rng.standard_normal(30)
        expected = dense_ssor_solve(A, 1.7, r)
        got = pc.build("ssor:1.7", A).apply(r)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

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

    @pytest.mark.parametrize("kind", ["jacobi", "ssor", "ssor:1.7"])
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
