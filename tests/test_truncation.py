import tracemalloc
import warnings

import numpy as np
import pytest

from helpers import make_spd, random_basis
from recykl.errors import DimensionMismatch, RecyklError
from recykl.linalg import (
    InstrumentationSink,
    SparseSpdMatrix,
    principal_angle_distance,
    spmv,
)
from recykl.pod import pod_evd
from recykl.problems import gen_diffusion_sequence, gen_output_matrix
from recykl.truncation import (
    TruncationConfig,
    compress,
    deflation_compress,
    enforce_a_orthogonality,
)
from recykl.weights import WeightHistory, weights_previous, weights_rbf


def cfg(**kw):
    base = dict(strategy="pod-a-prev", nu_y=1.0, nu_w=0.5)
    base.update(kw)
    return TruncationConfig(**base)


def history_of(*etas):
    history = WeightHistory()
    for eta in etas:
        history.push(eta)
    return history


def pod_a_prev(Z, weights, A, config):
    """A-metric POD of Z with ``weights`` as the previous solution's coefficients."""
    return compress(Z, config, A, history_of(weights))


def in_range(Y, Z, atol):
    coef = np.linalg.lstsq(Z, Y, rcond=None)[0]
    return np.allclose(Z @ coef, Y, atol=atol)


class TestConfig:
    def test_energy_order_enforced(self):
        with pytest.raises(RecyklError):
            TruncationConfig(strategy="pod-a-prev", nu_y=0.5, nu_w=0.9)

    def test_deflate_needs_count(self):
        with pytest.raises(RecyklError):
            TruncationConfig(strategy="deflate")


class TestPodCompress:
    def test_single_column_normalized(self):
        A = make_spd(10, seed=90)
        Z = random_basis(10, 1, seed=91)
        out = pod_a_prev(Z, np.ones(1), A, cfg())
        assert out.Y_new.shape == (10, 1)
        assert out.stage1_width == 1
        y = out.Y_new[:, 0]
        assert y @ A.to_dense() @ y == pytest.approx(1.0, abs=1e-10)
        assert principal_angle_distance(out.Y_new, Z) <= 1e-10

    def test_full_energy_preserves_range(self):
        A = make_spd(20, seed=92)
        Z = random_basis(20, 6, seed=93)
        out = pod_a_prev(Z, np.random.default_rng(94).random(6) + 0.2, A, cfg(nu_y=1.0))
        assert principal_angle_distance(out.Y_new, Z) <= 1e-8

    def test_a_metric_orthonormal_without_enforcement(self):
        A = make_spd(25, seed=95)
        Z = random_basis(25, 8, seed=96)
        out = pod_a_prev(Z, np.ones(8), A, cfg(nu_y=0.9))
        G = out.Y_new.T @ A.to_dense() @ out.Y_new
        assert np.max(np.abs(G - np.eye(out.Y_new.shape[1]))) <= 1e-9

    def test_max_dim_caps_retained(self):
        A = make_spd(15, seed=99)
        Z = random_basis(15, 6, seed=100)
        out = pod_a_prev(Z, np.ones(6), A, cfg(nu_y=1.0, max_dim=3))
        assert out.Y_new.shape[1] == 3
        assert out.stage1_width <= 3

    def test_stage1_prefix_is_exact_prefix(self):
        A = make_spd(18, seed=101)
        Z = random_basis(18, 7, seed=102)
        out = pod_a_prev(Z, np.ones(7), A, cfg(nu_y=1.0, nu_w=0.6))
        W = out.Y_new[:, : out.stage1_width]
        assert np.array_equal(W, out.Y_new[:, : out.stage1_width])
        assert 1 <= out.stage1_width <= out.Y_new.shape[1]


    @pytest.mark.parametrize("strategy, blocks", [("pod-a-rbf", 1), ("pod-ctc-rbf", 3)])
    def test_forms_only_the_kept_columns(self, strategy, blocks):
        # a 32-column block cut to max_dim 10 allocates n-row arrays of the
        # kept width only: the basis (and, for the output metric, its
        # products and A-orthonormalized copy), never all 32 POD columns nor
        # a weighted copy of the snapshots
        n, z, kept = 2500, 32, 10
        A = gen_diffusion_sequence((50, 50), p=1, delta=0.0, seed=42, tol=1e-8)[0].A
        Z = np.ascontiguousarray(enforce_a_orthogonality(random_basis(n, z, seed=43), A)[0])
        AZ, chalf = spmv(A, Z), gen_output_matrix(10, n, seed=44)
        rng = np.random.default_rng(45)
        history = history_of(*rng.standard_normal((3, z)))
        config = cfg(strategy=strategy, nu_w=1.0, max_dim=kept, stage1_dim=4)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = compress(Z, config, A, history, chalf=chalf, products=[AZ])
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert out.Y_new.shape == (n, kept)
        assert peak < 8 * n * (blocks * kept + 1)

    def test_unreachable_energy_is_flagged_not_warned(self):
        # a block of numerical rank 2 whose third mode holds about 1e-14 of
        # the energy cannot reach nu_y = 1 within its rank: the outcome says
        # so, and no warning is raised
        A = make_spd(10, seed=90)
        B = random_basis(10, 3, seed=91)
        Z = np.column_stack([B[:, :2], B[:, 0] + B[:, 1] + 1e-7 * B[:, 2]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = pod_a_prev(Z, np.ones(3), A, cfg(nu_y=1.0, nu_w=1.0))
        assert out.rank_truncated and out.Y_new.shape[1] == 2
        reachable = pod_a_prev(random_basis(10, 3, seed=92), np.ones(3), A, cfg(nu_y=0.5))
        assert not reachable.rank_truncated


class TestDeflationCompress:
    def test_diagonal_smallest_eigenvectors(self):
        A = SparseSpdMatrix.from_diagonal([1.0, 2.0, 3.0])
        out = deflation_compress(np.eye(3), A, 2)
        assert np.allclose(out.spectrum, [1.0, 2.0], atol=1e-10)
        assert principal_angle_distance(out.Y_new, np.eye(3)[:, :2]) <= 1e-10

    def test_full_retention_preserves_range(self):
        A = make_spd(12, seed=103)
        Z = random_basis(12, 4, seed=104)
        out = deflation_compress(Z, A, 4)
        assert principal_angle_distance(out.Y_new, Z) <= 1e-9

    def test_matches_dense_gevp_oracle(self):
        # independent oracle: reduce to a standard eigenproblem through the
        # Cholesky factor of Z'AZ instead of calling the generalized solver
        A = make_spd(40, seed=105)
        Z = random_basis(40, 12, seed=106)
        Ad = A.to_dense()
        AZ = Ad @ Z
        K = AZ.T @ AZ
        M = Z.T @ AZ
        L = np.linalg.cholesky(0.5 * (M + M.T))
        inner = np.linalg.solve(L, np.linalg.solve(L, 0.5 * (K + K.T)).T).T
        mu_oracle = np.sort(np.linalg.eigvalsh(0.5 * (inner + inner.T)))
        out = deflation_compress(Z, A, 5)
        assert np.max(np.abs(out.spectrum - mu_oracle[:5])) <= 1e-8 * mu_oracle[-1]

    def test_result_a_orthonormal(self):
        A = make_spd(20, seed=107)
        Z = random_basis(20, 6, seed=108)
        out = deflation_compress(Z, A, 3)
        G = out.Y_new.T @ A.to_dense() @ out.Y_new
        assert np.max(np.abs(G - np.eye(3))) <= 1e-8
        assert in_range(out.Y_new, Z, atol=1e-9)

    def test_harmonic_ritz_residual_orthogonality(self):
        # defining property: residual A y - mu y orthogonal to range(AZ)
        A = make_spd(15, seed=109)
        Z = random_basis(15, 5, seed=110)
        Ad = A.to_dense()
        out = deflation_compress(Z, A, 2)
        for i in range(2):
            y = out.Y_new[:, i]
            resid = Ad @ y - out.spectrum[i] * y
            assert np.linalg.norm((Ad @ Z).T @ resid) <= 1e-8 * np.linalg.norm(Ad @ y)


    @pytest.mark.parametrize("width", [7, 20])
    def test_dependent_columns_solve_over_the_independent_ones(self, width):
        # a repeated column, or more columns than A has rows, makes Z'AZ
        # singular: the harmonic Ritz pairs are those of Z's independent
        # columns, which span the same space
        A = make_spd(15, seed=111)
        Z = random_basis(15, width, seed=112)
        Z[:, 5] = Z[:, 2]
        out = deflation_compress(Z, A, 3)
        independent = np.delete(Z, 5, axis=1)[:, :15]
        oracle = deflation_compress(independent, A, 3)
        np.testing.assert_allclose(out.spectrum, oracle.spectrum, rtol=1e-8)
        G = out.Y_new.T @ A.to_dense() @ out.Y_new
        assert np.max(np.abs(G - np.eye(3))) <= 1e-8
        assert principal_angle_distance(out.Y_new, oracle.Y_new) <= 1e-6


class TestEnforceOrthogonality:
    def test_already_orthonormal_identity_factor(self):
        A = make_spd(12, seed=111)
        Z = random_basis(12, 4, seed=112)
        Y, _ = enforce_a_orthogonality(Z, A)
        Y2, L2 = enforce_a_orthogonality(Y, A)
        assert np.max(np.abs(L2.full() - np.eye(4))) <= 1e-8
        assert np.max(np.abs(Y2 - Y)) <= 1e-8

    def test_scaled_block_halved(self):
        A = make_spd(10, seed=113)
        Y0, _ = enforce_a_orthogonality(random_basis(10, 3, seed=114), A)
        Y2, L = enforce_a_orthogonality(2.0 * Y0, A)
        assert np.max(np.abs(L.full() - 2.0 * np.eye(3))) <= 1e-8
        assert np.allclose(Y2, Y0, atol=1e-8)

    def test_postcondition_and_range(self):
        A = make_spd(16, seed=115)
        Yraw = random_basis(16, 5, seed=116)
        Y, _ = enforce_a_orthogonality(Yraw, A)
        G = Y.T @ A.to_dense() @ Y
        assert np.max(np.abs(G - np.eye(5))) <= 1e-8
        assert principal_angle_distance(Y, Yraw) <= 1e-10


class TestCompressDispatch:
    @pytest.mark.parametrize(
        "strategy", ["pod-a-prev", "pod-a-rbf", "pod-ctc-prev", "pod-ctc-rbf", "deflate"]
    )
    def test_range_containment_every_strategy(self, strategy):
        A = make_spd(20, seed=117)
        C = np.random.default_rng(118).random((7, 20))
        Z = random_basis(20, 6, seed=119)
        kw = dict(strategy=strategy, nu_y=0.9, nu_w=0.5)
        if strategy == "deflate":
            kw["deflate_dim"] = 3
        out = compress(Z, TruncationConfig(**kw), A, history_of(np.ones(6)), chalf=C)
        # every retained column stays inside the old range
        Q, _ = np.linalg.qr(Z)
        resid = out.Y_new - Q @ (Q.T @ out.Y_new)
        assert np.max(np.abs(resid)) <= 1e-9 * max(1.0, np.max(np.abs(out.Y_new)))

    def test_output_metric_gets_a_orthogonalized(self):
        A = make_spd(15, seed=120)
        C = np.random.default_rng(121).random((5, 15))
        Z = random_basis(15, 6, seed=122)
        out = compress(
            Z,
            TruncationConfig(strategy="pod-ctc-rbf", nu_y=0.8, nu_w=0.4),
            A,
            history_of(np.ones(6)),
            chalf=C,
        )
        G = out.Y_new.T @ A.to_dense() @ out.Y_new
        assert np.max(np.abs(G - np.eye(G.shape[0]))) <= 1e-8
        assert in_range(out.Y_new, Z, atol=1e-9)

    def test_none_never_truncates(self):
        none = TruncationConfig(strategy="none", storage_cap=4)
        assert not none.truncates(100)
        with pytest.raises(RecyklError):
            compress(random_basis(10, 6, seed=123), none, make_spd(10, seed=124), history_of())
        pod = TruncationConfig(strategy="pod-a-rbf", storage_cap=4)
        assert pod.truncates(5) and not pod.truncates(4)

    @pytest.mark.parametrize("weights", ["prev", "rbf"])
    def test_weights_come_from_history(self, weights):
        A = make_spd(20, seed=124)
        Z = random_basis(20, 6, seed=125)
        rng = np.random.default_rng(126)
        history = history_of(rng.random(4), rng.random(6), rng.random(6))
        gamma = weights_previous(history) if weights == "prev" else weights_rbf(history, 3)
        out = compress(Z, cfg(strategy=f"pod-a-{weights}"), A, history)
        want = pod_evd(Z, gamma, A, eps=1.0)
        assert out.Y_new.shape[1] == want.y
        assert np.allclose(out.spectrum, want.singular_values, rtol=1e-10, atol=1e-12)
        assert principal_angle_distance(out.Y_new, want.columns) <= 1e-8

    @pytest.mark.parametrize("strategy", ["pod-a-prev", "pod-ctc-prev", "deflate"])
    def test_given_products_replace_every_matvec(self, strategy):
        # with AZ given, every strategy reads A from it and applies A nowhere
        A = make_spd(15, seed=130)
        C = np.random.default_rng(131).random((5, 15))
        Z = random_basis(15, 6, seed=132)
        config = cfg(strategy=strategy, nu_y=0.9, deflate_dim=3)
        formed, given = InstrumentationSink(), InstrumentationSink()
        want = compress(Z, config, A, history_of(np.ones(6)), chalf=C, sink=formed)
        got = compress(Z, config, A, history_of(np.ones(6)), chalf=C,
                       products=A.to_scipy() @ Z, sink=given)
        assert formed.matvecs > 0 and given.matvecs == 0
        assert np.allclose(got.Y_new, want.Y_new, rtol=1e-10, atol=1e-12)
        with pytest.raises(DimensionMismatch):
            compress(Z, config, A, history_of(np.ones(6)), chalf=C,
                     products=A.to_scipy() @ Z[:, :5])

    @pytest.mark.parametrize("strategy", ["deflate", "pod-a-prev", "pod-a-rbf", "pod-ctc-rbf"])
    def test_block_products_match_stacked(self, strategy):
        # AZ handed over as the column blocks [A Y_old, A V] gives the
        # outcome of the stacked AZ
        A = make_spd(40, seed=133)
        C = np.random.default_rng(134).random((6, 40))
        Z = enforce_a_orthogonality(random_basis(40, 12, seed=135), A)[0]
        rng = np.random.default_rng(136)
        history = history_of(rng.random(7), rng.random(12), rng.random(12))
        AZ = A.to_scipy() @ Z
        blocks = [np.ascontiguousarray(AZ[:, :7]), np.asfortranarray(AZ[:, 7:])]
        config = cfg(strategy=strategy, nu_w=1.0, max_dim=6, stage1_dim=4, deflate_dim=6)
        want = compress(Z, config, A, history, chalf=C, products=AZ)
        got = compress(Z, config, A, history, chalf=C, products=blocks)
        assert got.stage1_width == want.stage1_width
        assert got.Y_new.shape == want.Y_new.shape == (40, 6)
        assert np.linalg.norm(got.Y_new - want.Y_new) <= 1e-12 * np.linalg.norm(want.Y_new)
        assert np.allclose(got.spectrum, want.spectrum, rtol=1e-12, atol=0)

    def test_block_products_checked_against_the_block(self):
        A = make_spd(15, seed=137)
        Z = random_basis(15, 6, seed=138)
        AZ = A.to_scipy() @ Z
        with pytest.raises(DimensionMismatch):
            compress(Z, cfg(), A, history_of(np.ones(6)), products=[AZ[:, :2], AZ[:, 3:]])
        with pytest.raises(DimensionMismatch):
            compress(Z, cfg(), A, history_of(np.ones(6)), products=[AZ[:, :2], AZ[:-1, 2:]])
        out = enforce_a_orthogonality(Z, A, products=[AZ[:, :2], AZ[:, 2:]])[0]
        assert np.allclose(out.T @ A.to_scipy() @ out, np.eye(6), atol=1e-12)


class TestBasisDependence:
    """POD truncation depends on the basis of the grown block, not only on its range.

    A column permutation of an A-orthonormal block Z, applied to every
    weight snapshot too, leaves the retained span unchanged; an A-orthogonal
    rotation Z <- ZQ, eta <- Q'eta, of the same range moves it.  The
    unit-A-norm CG directions stage 3 hands out are therefore part of the
    method.
    """

    A = make_spd(30, seed=1)
    Z = enforce_a_orthogonality(random_basis(30, 8, seed=2), A)[0]
    etas = np.random.default_rng(3).standard_normal((3, 8))

    def outcome(self, strategy, Z, etas):
        config = cfg(strategy=strategy, max_dim=4, stage1_dim=2)
        return compress(Z, config, self.A, history_of(*etas))

    @pytest.mark.parametrize("strategy", ["pod-a-rbf", "pod-a-prev"])
    def test_column_permutation_keeps_span(self, strategy):
        perm = np.random.default_rng(4).permutation(8)
        base = self.outcome(strategy, self.Z, self.etas)
        moved = self.outcome(strategy, self.Z[:, perm], self.etas[:, perm])
        assert moved.stage1_width == base.stage1_width
        assert principal_angle_distance(moved.Y_new, base.Y_new) <= 1e-12

    @pytest.mark.parametrize("strategy", ["pod-a-rbf", "pod-a-prev"])
    def test_a_orthogonal_rotation_moves_span(self, strategy):
        Q = np.linalg.qr(np.random.default_rng(5).standard_normal((8, 8)))[0]
        base = self.outcome(strategy, self.Z, self.etas)
        # same range, same solutions Z eta, another A-orthonormal basis
        rotated = self.outcome(strategy, self.Z @ Q, self.etas @ Q)
        assert np.allclose((self.Z @ Q) @ (Q.T @ self.etas[0]), self.Z @ self.etas[0])
        assert principal_angle_distance(rotated.Y_new, base.Y_new) > 0.5
