import numpy as np
import pytest
import scipy.sparse

from helpers import (
    make_spd,
    make_spd_dense,
    make_sparse_spd,
    mgs2_a_orthogonalize,
    random_basis,
)
from recykl import preconditioners as pc
from recykl.errors import DimensionMismatch, RecyklError
from recykl.krylov import (
    _STORE_INITIAL_COLS,
    DirectReducedProjection,
    ReducedSpdOperator,
    _DirectionStore,
    augmented_pcg,
    direct_reduced_solve,
    stack_blocks,
)
from recykl.linalg import InstrumentationSink, SparseSpdMatrix, dense_cholesky
from recykl.problems import gen_diffusion_sequence


def a_orth_projection(Adense, B, rhs):
    """Dense oracle: A-orthogonal projection of A^{-1} rhs onto range(B)."""
    gram = B.T @ Adense @ B
    return B @ np.linalg.solve(gram, B.T @ rhs)


class TestAugmentedPcgBasics:
    def test_identity_system_one_iteration(self):
        A = SparseSpdMatrix.identity(3)
        b = np.array([1.0, 2.0, 3.0])
        res = augmented_pcg(A, b, tol=0.0)
        assert res.k == 1
        assert np.allclose(res.x, b)

    def test_exact_solution_in_augmenting_subspace(self):
        # the Galerkin start over Y already solves the system: zero iterations
        A = SparseSpdMatrix.from_diagonal([1.0, 2.0])
        b = np.array([1.0, 2.0])
        Y = np.array([[1.0], [1.0]])
        yhat0 = np.linalg.solve(Y.T @ A.to_dense() @ Y, Y.T @ b)
        assert yhat0[0] == pytest.approx(1.0)
        res = augmented_pcg(A, b, yhat0, Y, tol=1e-14)
        assert res.k == 0
        assert np.allclose(res.x, [1.0, 1.0])
        assert res.final_residual <= 1e-14

    def test_iterates_are_projections_onto_accumulated_subspace(self):
        A = make_spd(60, seed=42, cond=50.0)
        rng = np.random.default_rng(43)
        b = rng.standard_normal(60)
        b /= np.linalg.norm(b)
        Y = rng.standard_normal((60, 5))
        Ad = A.to_dense()
        yhat0 = np.linalg.solve(Y.T @ Ad @ Y, Y.T @ b)
        res = augmented_pcg(A, b, yhat0, Y, tol=1e-9, max_iter=240, mode="fom")
        xstar = np.linalg.solve(Ad, b)
        xnorm = np.sqrt(xstar @ Ad @ xstar)
        # pseudoinverse projector oracle: stable even when the accumulated
        # block becomes numerically rank deficient near convergence
        w, Q = np.linalg.eigh(Ad)
        Asqrt = (Q * np.sqrt(w)) @ Q.T
        x_k = Y @ yhat0
        for k in range(res.k + 1):
            if k > 0:
                x_k = x_k + res.vhat[k - 1] * res.V[:, k - 1]
            B = np.hstack([Y, res.V[:, :k]])
            SB = Asqrt @ B
            scale = np.linalg.norm(SB, axis=0)
            coef, *_ = np.linalg.lstsq(SB / scale, Asqrt @ xstar, rcond=None)
            err = x_k - (B / scale) @ coef
            assert np.sqrt(err @ Ad @ err) <= 1e-8 * xnorm

    def test_invariant_x_equals_start_plus_steps(self):
        A = make_spd(30, seed=7)
        rng = np.random.default_rng(8)
        b = rng.standard_normal(30)
        Y = rng.standard_normal((30, 3))
        yhat0 = np.linalg.solve(Y.T @ A.to_dense() @ Y, Y.T @ b)
        res = augmented_pcg(A, b, yhat0, Y, tol=1e-9, max_iter=120)
        rebuilt = Y @ yhat0 + res.V @ res.vhat
        assert np.allclose(rebuilt, res.x, atol=1e-12)
        # every direction is handed out at unit A-norm
        for i in range(res.k):
            p = res.V[:, i]
            assert p @ A.to_dense() @ p == pytest.approx(1.0, rel=1e-8)

    def test_directions_a_orthogonal_to_basis(self):
        A = make_spd(40, seed=11, cond=1e4)
        rng = np.random.default_rng(12)
        b = rng.standard_normal(40)
        Y = rng.standard_normal((40, 4))
        Ad = A.to_dense()
        yhat0 = np.linalg.solve(Y.T @ Ad @ Y, Y.T @ b)
        res = augmented_pcg(A, b, yhat0, Y, tol=1e-8 * np.linalg.norm(b), max_iter=200)
        scale = np.linalg.norm(Ad, 2) * np.linalg.norm(Y, 2) * np.linalg.norm(res.V, 2)
        assert np.max(np.abs(Y.T @ Ad @ res.V)) <= 1e-8 * scale
        assert np.linalg.norm(Y.T @ (b - Ad @ res.x)) <= 1e-8 * np.linalg.norm(b)

    def test_a_norm_error_monotone(self):
        A = make_spd(50, seed=13, cond=1e3)
        rng = np.random.default_rng(14)
        b = rng.standard_normal(50)
        Ad = A.to_dense()
        xstar = np.linalg.solve(Ad, b)
        errs = []

        def monitor(k, xk):
            e = xstar - xk
            errs.append(np.sqrt(e @ Ad @ e))

        augmented_pcg(A, b, tol=1e-9 * np.linalg.norm(b), max_iter=250, monitor=monitor)
        diffs = np.diff(errs)
        assert np.all(diffs <= 1e-10 * errs[0])

    def test_galerkin_matches_projector_oracle(self):
        A = make_spd_dense(25, seed=15)
        rng = np.random.default_rng(16)
        b = rng.standard_normal(25)
        B = rng.standard_normal((25, 6))
        galerkin = B @ np.linalg.solve(B.T @ A @ B, B.T @ b)
        assert np.allclose(galerkin, a_orth_projection(A, B, b), atol=1e-10)

    def test_breakdown_on_indefinite_operator(self):
        # p'Ap = -2 on the first step: the run returns its start and no
        # directions, counting the broken iteration
        A = SparseSpdMatrix.from_dense(np.array([[1.0, 2.0], [2.0, 1.0]]))
        b = np.array([1.0, -1.0])
        res = augmented_pcg(A, b, tol=1e-12)
        assert res.failure == "breakdown" and not res.converged
        assert res.k == 1
        assert np.array_equal(res.x, np.zeros(2))
        assert res.V.shape == res.AV.shape == (2, 0) and res.vhat.shape == (0,)
        assert np.array_equal(res.residual_history, [np.linalg.norm(b)])

    def test_breakdown_returns_the_augmented_start(self):
        # over a basis, the start is Y yhat0, formed again at the breakdown
        A = SparseSpdMatrix.from_dense(np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0],
                                                 [0.0, 0.0, 2.0]]))
        Y, yhat0 = np.eye(3)[:, 2:], np.array([0.25])
        res = augmented_pcg(A, np.array([1.0, -1.0, 0.5]), yhat0, Y, tol=1e-12)
        assert res.failure == "breakdown" and res.k == 1
        assert np.array_equal(res.x, Y @ yhat0)
        assert np.array_equal(res.residual_history, [np.sqrt(2.0)])

    def test_not_converged_carries_partial(self):
        A = make_spd(30, seed=17, cond=1e5)
        b = np.random.default_rng(18).standard_normal(30)
        partial = augmented_pcg(A, b, tol=1e-14, max_iter=2)
        assert partial.k == 2 and not partial.converged
        assert partial.failure == "budget"
        assert partial.V.shape == (30, 2)

    def test_relative_tolerance(self):
        A = make_spd(20, seed=19)
        b = 1e6 * np.random.default_rng(20).standard_normal(20)
        res = augmented_pcg(A, b, tol=1e-8 * np.linalg.norm(b), max_iter=120)
        assert res.final_residual <= 1e-8 * np.linalg.norm(b)

    def test_yhat0_required_with_basis(self):
        A = SparseSpdMatrix.identity(4)
        with pytest.raises(DimensionMismatch):
            augmented_pcg(A, np.ones(4), None, np.ones((4, 1)))

    def test_unknown_mode_rejected(self):
        # checked up front, even when the start already meets the tolerance
        with pytest.raises(RecyklError, match="unknown mode"):
            augmented_pcg(SparseSpdMatrix.identity(3), np.zeros(3), mode="gmres")

    def test_dense_operator_rejected(self):
        # operators are SparseSpdMatrix or ReducedSpdOperator; dense arrays go
        # through SparseSpdMatrix.from_dense, which checks symmetry
        with pytest.raises(DimensionMismatch):
            augmented_pcg(np.eye(4), np.ones(4), tol=1e-12)


class TestFomMode:
    def test_direction_gram_diagonal_ill_conditioned(self):
        # tolerance stays above the attainable-residual floor for this kappa
        A = make_spd(40, seed=21, cond=1e10)
        b = np.random.default_rng(22).standard_normal(40)
        res = augmented_pcg(A, b, tol=1e-4 * np.linalg.norm(b), mode="fom", max_iter=160)
        G = res.V.T @ A.to_dense() @ res.V
        # the columns have unit A-norm, so forming V'AV itself rounds at
        # about u * cond(A) = 2e-6 here
        assert np.max(np.abs(G - np.eye(res.k))) <= 1e-6

    def test_fom_and_cg_agree_on_well_conditioned(self):
        A = make_spd(30, seed=23, cond=50.0)
        b = np.random.default_rng(24).standard_normal(30)
        x_cg = augmented_pcg(A, b, tol=1e-11 * np.linalg.norm(b), max_iter=150).x
        x_fom = augmented_pcg(A, b, tol=1e-11 * np.linalg.norm(b), mode="fom", max_iter=150).x
        assert np.allclose(x_cg, x_fom, atol=1e-9)


def laplacian_2d(m):
    """Five-point Laplacian on an m x m grid with Dirichlet boundary."""
    T = scipy.sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m))
    eye = scipy.sparse.identity(m)
    return SparseSpdMatrix.from_scipy(scipy.sparse.kron(T, eye) + scipy.sparse.kron(eye, T))


def product(op, v):
    """A fresh operator product, outside any run."""
    return op.to_scipy() @ v if isinstance(op, SparseSpdMatrix) else op.apply(v)


class TestDirectionStore:
    @pytest.mark.parametrize("mode", ["fom", "cg"])
    def test_growth_past_initial_capacity(self, mode):
        A = laplacian_2d(30)
        b = np.random.default_rng(35).standard_normal(A.n)
        res = augmented_pcg(A, b, tol=1e-10 * np.linalg.norm(b), mode=mode)
        assert res.k > _STORE_INITIAL_COLS
        assert res.V.shape == res.AV.shape == (A.n, res.k)
        assert res.vhat.shape == (res.k,)
        assert np.allclose(res.x, res.V @ res.vhat, rtol=0.0,
                           atol=1e-12 * np.linalg.norm(res.x))
        assert np.allclose(res.AV, A.to_scipy() @ res.V, rtol=0.0, atol=1e-12)
        G = res.V.T @ A.to_dense() @ res.V
        assert np.allclose(np.diag(G), 1.0, rtol=0.0, atol=1e-12)
        if mode == "fom":
            assert np.max(np.abs(G - np.eye(res.k))) <= 1e-8

    @pytest.mark.parametrize("mode", ["fom", "cg"])
    def test_budget_caps_the_store(self, mode):
        A = laplacian_2d(30)
        b = np.random.default_rng(36).standard_normal(A.n)
        res = augmented_pcg(A, b, tol=0.0, mode=mode, max_iter=_STORE_INITIAL_COLS + 5)
        assert res.failure == "budget"
        assert res.k == _STORE_INITIAL_COLS + 5
        assert res.V.shape == (A.n, res.k)
        assert np.allclose(res.x, res.V @ res.vhat, rtol=0.0,
                           atol=1e-12 * np.linalg.norm(res.x))

    def test_run_without_directions_keeps_none(self):
        # a caller that reads no direction block gets the same run without one
        A = laplacian_2d(30)
        b = np.random.default_rng(38).standard_normal(A.n)
        tol = 1e-10 * np.linalg.norm(b)
        kept = augmented_pcg(A, b, tol=tol, mode="cg")
        bare = augmented_pcg(A, b, tol=tol, mode="cg", keep_directions=False)
        assert bare.k == kept.k > _STORE_INITIAL_COLS
        assert np.array_equal(bare.x, kept.x)
        assert np.array_equal(bare.residual_history, kept.residual_history)
        assert bare.V.shape == bare.AV.shape == (A.n, 0)
        assert bare.vhat.shape == (0,)

    def test_fom_needs_its_directions(self):
        # without stored directions there is nothing to re-orthogonalize
        # against: the run takes the two-term recurrence
        A = laplacian_2d(5)
        fom = augmented_pcg(A, np.ones(A.n), tol=1e-8, mode="fom", keep_directions=False)
        cg = augmented_pcg(A, np.ones(A.n), tol=1e-8, mode="cg", keep_directions=False)
        assert fom.k == cg.k and np.array_equal(fom.x, cg.x)

    @staticmethod
    def filled_store(op, k, seed, sink=None):
        """A store holding the k directions of a fom run over ``op``, and the run's rng."""
        rng = np.random.default_rng(seed)
        n = op.n if isinstance(op, SparseSpdMatrix) else op.dim
        res = augmented_pcg(op, rng.standard_normal(n), tol=0.0, mode="fom", max_iter=k)
        assert res.failure == "budget"
        # the run's directions are already at unit A-norm: each is stored
        # with its own curvature, which leaves it at unit A-norm
        store = _DirectionStore(n, k, sink=sink)
        for i in range(k):
            Av = product(op, res.V[:, i])
            store.append(res.V[:, i], Av, float(res.V[:, i] @ Av), res.vhat[i])
        return store, rng

    @pytest.mark.parametrize("k", [1, 50, 300])
    def test_cgs2_matches_mgs_reference(self, k):
        A = laplacian_2d(30)
        store, rng = self.filled_store(A, k, seed=37)
        p = rng.standard_normal(A.n)
        # one fom step: the first sweep, the iteration's product, and the
        # second sweep if the first one cancelled
        swept = store.a_orthogonalize(p)
        got = store.curvature(swept, product(A, swept))[0]
        want = mgs2_a_orthogonalize(p, store.V[:, :k], store.AV[:, :k])
        # classical and modified sweeps sum in different orders
        assert np.linalg.norm(got - want) <= 10 * k * np.finfo(float).eps * np.linalg.norm(p)

    @pytest.mark.parametrize("space", ["full", "reduced"])
    def test_second_sweep_fires_when_first_cancels(self, space):
        k = 50
        if space == "full":
            op = laplacian_2d(30)
        else:
            op = ReducedSpdOperator(make_spd_dense(200, seed=39, cond=1e4))
        sink = InstrumentationSink()
        store, rng = self.filled_store(op, k, seed=40, sink=sink)
        V = store.V[:, :k]
        # all but about 1e-6 of p's A-norm lies in span(V), so a product
        # that missed the second sweep would be off by far more than 1e-12
        p = V @ rng.standard_normal(k) + 1e-6 * rng.standard_normal(V.shape[0])
        swept = store.a_orthogonalize(p)
        got, Ap, gamma = store.curvature(swept, product(op, swept))
        assert sink.reorth_sweeps == 2
        bound = 10 * k * np.finfo(float).eps * np.linalg.norm(p)
        assert np.linalg.norm(store.AV[:, :k].T @ got) <= bound
        # the second sweep carries the product along instead of applying A
        fresh = product(op, got)
        assert np.linalg.norm(Ap - fresh) <= 1e-12 * np.linalg.norm(fresh)
        assert gamma == float(got @ Ap)


class TestFrozenCounts:
    # iteration and matvec counts of the first 60x60 diffusion system as
    # measured with two modified Gram-Schmidt sweeps per fom step
    # (helpers.mgs2_a_orthogonalize); block Gram-Schmidt, with its second
    # sweep only when the first one cancels, must reproduce them
    @pytest.mark.parametrize("mode, iterations, matvecs", [("fom", 93, 93), ("cg", 93, 93)])
    def test_unpreconditioned_60x60(self, mode, iterations, matvecs):
        seq = gen_diffusion_sequence((60, 60), 20, 0.05, seed=1, tol=1e-6, load_scale=1e-4)
        system = seq.systems[0]
        sink = InstrumentationSink()
        res = augmented_pcg(system.A, system.b, tol=system.tol, mode=mode, sink=sink)
        assert (res.k, sink.matvecs) == (iterations, matvecs)
        assert np.linalg.norm(system.b - system.A.to_scipy() @ res.x) <= system.tol


class TestPcg:
    def test_identity_one_iteration(self):
        res = augmented_pcg(SparseSpdMatrix.identity(5), np.ones(5), tol=1e-12)
        assert res.k == 1

    def test_distinct_eigenvalue_count_bounds_iterations(self):
        # exact-arithmetic CG terminates in d steps for d distinct eigenvalues
        diag = np.repeat([1.0, 3.0, 7.0, 20.0], 10)
        A = SparseSpdMatrix.from_diagonal(diag)
        b = np.random.default_rng(27).standard_normal(40)
        res = augmented_pcg(A, b, tol=1e-12 * np.linalg.norm(b))
        assert res.k <= 4 + 2

    def test_jacobi_preconditioning_counts(self):
        A = make_sparse_spd(50, seed=33)
        b = np.random.default_rng(34).standard_normal(50)
        sink = InstrumentationSink()
        M = pc.build("jacobi", A)
        res = augmented_pcg(A, b, precond=M, tol=1e-9 * np.linalg.norm(b), sink=sink,
                            max_iter=200)
        assert sink.precond_applies == res.k
        assert sink.matvecs == res.k


class TestDirectReducedSolve:
    def test_diagonal_full_basis(self):
        A = SparseSpdMatrix.from_diagonal([4.0, 9.0])
        what, proj = direct_reduced_solve(A, np.array([4.0, 9.0]), np.eye(2))
        assert np.allclose(what, [1.0, 1.0])
        assert np.allclose(proj.factor.full(), np.diag([2.0, 3.0]))

    def test_single_column_projection(self):
        A = SparseSpdMatrix.identity(2)
        W = np.array([[3.0], [4.0]]) / 5.0
        what, _ = direct_reduced_solve(A, np.array([3.0, 4.0]), W)
        assert what[0] == pytest.approx(5.0)

    def test_residual_orthogonality(self):
        A = make_spd(40, seed=35)
        rng = np.random.default_rng(36)
        b = rng.standard_normal(40)
        W = rng.standard_normal((40, 6))
        what, _ = direct_reduced_solve(A, b, W)
        resid = b - A.to_dense() @ (W @ what)
        assert np.linalg.norm(W.T @ resid) <= 1e-10 * np.linalg.norm(b)

    def test_factor_reconstructs_gram(self):
        A = make_spd(30, seed=37)
        W = np.random.default_rng(38).standard_normal((30, 5))
        _, proj = direct_reduced_solve(A, np.zeros(30), W)
        L = proj.factor.full()
        gram = W.T @ A.to_dense() @ W
        assert np.linalg.norm(L @ L.T - gram) <= 1e-12 * np.linalg.norm(gram)
        assert np.allclose(proj.cross, A.to_dense() @ W)
        # the projection over W needs no further product with A
        z = np.random.default_rng(39).standard_normal(30)
        assert np.allclose(proj(z), np.linalg.solve(gram, W.T @ A.to_dense() @ z))


class TestReducedOperator:
    def test_matches_dense_reduced_matrix(self):
        A = make_spd(30, seed=39)
        Y = random_basis(30, 6, seed=40)
        G = Y.T @ A.to_dense() @ Y
        op = ReducedSpdOperator(G)
        p = np.random.default_rng(41).standard_normal(6)
        assert op.dim == 6
        assert np.array_equal(op.apply(p), G @ p)
        with pytest.raises(DimensionMismatch):
            ReducedSpdOperator(G[:, :5])

    def test_nested_run_charges_no_matvec(self):
        # the products behind G were charged when it was formed
        A = make_spd(20, seed=42)
        Y = random_basis(20, 4, seed=43)
        sink = InstrumentationSink()
        op = ReducedSpdOperator(Y.T @ A.to_dense() @ Y)
        res = augmented_pcg(op, np.ones(4), tol=1e-12, sink=sink)
        assert res.k > 0
        assert sink.matvecs == 0

    def test_augmented_pcg_on_reduced_operator(self):
        # solving the reduced system iteratively reproduces the dense solve
        A = make_spd(50, seed=47)
        Y = random_basis(50, 8, seed=48)
        G = Y.T @ A.to_dense() @ Y
        rhs = np.random.default_rng(49).standard_normal(8)
        op = ReducedSpdOperator(G)
        res = augmented_pcg(op, rhs, tol=1e-12 * np.linalg.norm(rhs))
        assert np.allclose(res.x, np.linalg.solve(G, rhs), atol=1e-8)


class TestProjectionHandles:
    def test_block_factor_matches_dense_oracle(self):
        # the factor covers the whole Gram matrix B'AB, so a block that is
        # not A-orthonormal projects exactly
        Ad = make_spd_dense(9, seed=50)
        B = random_basis(9, 7, seed=51)
        cross = Ad @ B
        gram = B.T @ cross
        assert np.linalg.norm(gram - np.eye(7)) > 0.1
        proj = DirectReducedProjection(cross, dense_cholesky(0.5 * (gram + gram.T)))
        assert np.array_equal(proj.cross, cross) and proj.cross.flags.c_contiguous
        z = np.random.default_rng(53).standard_normal(9)
        expected = np.linalg.solve(gram, cross.T @ z)
        assert np.linalg.norm(proj(z) - expected) <= 1e-10 * np.linalg.norm(expected)

    def test_stack_returns_single_c_block(self):
        B = np.arange(12.0).reshape(4, 3)
        F = np.asfortranarray(B)
        for blocks in ([B, F], [F, F]):
            out = stack_blocks(blocks)
            assert out.flags.c_contiguous and not np.shares_memory(out, F)
            assert np.array_equal(out, np.hstack(blocks))

    def test_default_projection_is_one_block_product(self):
        # without a handle, augmented_pcg factors B'AB from one block
        # product A*B, charged one matvec per column: the run equals one
        # handed the projection direct_reduced_solve builds over B
        A = make_spd(25, seed=52)
        B = random_basis(25, 5, seed=53)
        b = np.random.default_rng(54).standard_normal(25)
        yhat0, proj = direct_reduced_solve(A, b, B)
        runs = []
        for handle in (None, proj):
            sink = InstrumentationSink()
            runs.append((augmented_pcg(A, b, yhat0, B, handle, None, 1e-10, mode="fom",
                                       sink=sink), sink.matvecs))
        (default, default_mv), (given, given_mv) = runs
        assert default_mv == given_mv + B.shape[1]
        assert np.array_equal(default.x, given.x) and np.array_equal(default.V, given.V)
        Ad = A.to_dense()
        assert np.max(np.abs(B.T @ Ad @ default.V)) <= 1e-10 * np.linalg.norm(Ad, 2)
