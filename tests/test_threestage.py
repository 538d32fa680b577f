import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from helpers import make_spd, random_basis
from recykl import krylov, threestage
from recykl import preconditioners as pc
from recykl.analysis import check_conditioning_bound
from recykl.bench import default_methods, run_methods
from recykl.errors import NotPositiveDefinite, RecyklError
from recykl.krylov import AugmentedPcgResult, ReducedSpdOperator, augmented_pcg
from recykl.linalg import (
    InstrumentationSink,
    SparseSpdMatrix,
    assemble_gram,
    dense_cholesky,
    spmv,
)
from recykl.problems import LinearSystemSpec, gen_diffusion_sequence, gen_output_matrix
from recykl.threestage import (
    InnerIterativeProjection,
    RecycleState,
    SolverConfig,
    run_sequence,
    solve_system,
    summarize_reports,
    update_basis,
)
from recykl.truncation import (
    ALL_STRATEGIES,
    TruncationConfig,
    compress,
    enforce_a_orthogonality,
)


def solver_cfg(**kw):
    tr = dict(strategy=kw.pop("strategy", "pod-a-rbf"),
              nu_y=kw.pop("nu_y", 1.0),
              nu_w=kw.pop("nu_w", 1.0),
              storage_cap=kw.pop("storage_cap", float("inf")),
              full_orth=kw.pop("full_orth", False),
              deflate_dim=kw.pop("deflate_dim", None),
              max_dim=kw.pop("max_dim", None),
              stage1_dim=kw.pop("stage1_dim", None))
    return SolverConfig(truncation=TruncationConfig(**tr), **kw)


def built(cfg, A):
    """The preconditioner ``solve_system`` takes for ``cfg`` on A: None under identity."""
    return None if cfg.precond == "identity" else pc.build(cfg.precond, A)


def broken_run(op, b, yhat0, basis, *args, k, **kwargs):
    """What ``augmented_pcg`` returns for a run that broke down at iteration k.

    Its start iterate ``basis @ yhat0``, no directions, and the entry
    residual norm alone as its history.
    """
    n, r0 = len(b), kwargs.get("r0", b)
    return AugmentedPcgResult(k=k, vhat=np.zeros(0), V=np.zeros((n, 0)), AV=np.zeros((n, 0)),
                              residual_history=np.array([np.linalg.norm(r0)]),
                              x=basis @ yhat0, failure="breakdown")


class TestSolverConfig:
    def test_default_method(self):
        cfg = SolverConfig()
        assert cfg.precond == "identity"
        assert cfg.eps_hat_factor == 1e-4

    def test_unknown_mode_rejected(self):
        with pytest.raises(RecyklError, match="gmres"):
            SolverConfig(mode="gmres")

    def test_stage2_factor_sets_stage2_tolerance(self):
        # stage 2 stops at eps_hat_factor * tol: a looser factor ends it sooner
        seq = gen_diffusion_sequence((10, 10), p=6, delta=0.05, seed=5, tol=1e-8)
        iters = {}
        for factor in (1e-4, 1.0):
            cfg = solver_cfg(storage_cap=30, max_dim=20, stage1_dim=5, eps_hat_factor=factor)
            _, reports, _ = run_sequence(seq, cfg)
            for r in reports[1:]:
                assert r.stage2_converged and r.stage2_iters > 0
                assert r.stage2_residual_history[-1] <= factor * 1e-8
            iters[factor] = sum(r.stage2_iters for r in reports)
        assert iters[1.0] < iters[1e-4]


class TestPreconditionerHandOff:
    @pytest.mark.parametrize("precond, given", [("jacobi", False), ("ssor:1.7", False),
                                                ("identity", True)])
    def test_solve_rejects_a_disagreeing_m(self, precond, given):
        seq = gen_diffusion_sequence((6, 6), p=1, delta=0.0, seed=21, tol=1e-8)
        spec, state = seq[0], RecycleState.empty(seq.n)
        M = pc.build("jacobi", spec.A) if given else None
        expected = "JacobiPreconditioner" if given else "NoneType"
        with pytest.raises(RecyklError, match=f"kind '{precond}' cannot take M={expected}"):
            solve_system(spec.A, spec.b, spec.xbar, state, spec.tol, solver_cfg(precond=precond),
                         M)
        assert state.systems_seen == 0 and state.basis_dim == 0

    def test_list_length_must_match(self):
        seq = gen_diffusion_sequence((6, 6), p=3, delta=0.05, seed=22, tol=1e-8)
        cfg = solver_cfg(precond="jacobi")
        preconds = threestage.build_preconditioners(seq.systems[:2], cfg.precond)
        with pytest.raises(RecyklError, match="2 preconditioners for 3 systems"):
            run_sequence(seq, cfg, preconds=preconds)


class TestFirstSystem:
    # an empty recycled basis (first system, or no recycling) is plain PCG
    @pytest.mark.parametrize("precond", ["identity", "jacobi"], ids=["none", "jacobi"])
    @pytest.mark.parametrize("recycle", [True, False], ids=["recycle", "no-recycle"])
    def test_equals_plain_pcg(self, recycle, precond):
        seq = gen_diffusion_sequence((8, 8), p=1, delta=0.0, seed=20, tol=1e-9)
        cfg = solver_cfg(recycle=recycle, precond=precond)
        xs, reports, _ = run_sequence(seq, cfg)
        sink = InstrumentationSink()
        M = pc.build(precond, seq[0].A) if precond != "identity" else None
        # without recycling nothing keeps the directions: plain PCG runs the
        # two-term recurrence whatever the config's mode
        mode = cfg.mode if recycle else "cg"
        ref = augmented_pcg(seq[0].A, seq[0].b, precond=M, tol=1e-9, mode=mode, sink=sink)
        assert reports[0].stage1_dim == 0
        assert reports[0].stage2_iters == 0
        assert reports[0].stage3_iters == ref.k
        assert np.array_equal(xs[0], ref.x)
        assert reports[0].matvecs == sink.matvecs
        assert reports[0].precond_applies == sink.precond_applies

    def test_no_recycle_ignores_mode(self):
        seq = gen_diffusion_sequence((9, 9), p=3, delta=0.05, seed=27, tol=1e-9)
        runs = [run_sequence(seq, solver_cfg(recycle=False, precond="jacobi", mode=mode))
                for mode in ("fom", "cg")]
        (xs_fom, reps_fom, _), (xs_cg, reps_cg, _) = runs
        for x_fom, x_cg in zip(xs_fom, xs_cg, strict=True):
            assert np.array_equal(x_fom, x_cg)
        for r_fom, r_cg in zip(reps_fom, reps_cg, strict=True):
            for name, value in vars(r_fom).items():
                if name == "wall_time":
                    continue
                other = getattr(r_cg, name)
                if isinstance(value, np.ndarray):
                    assert np.array_equal(value, other), name
                else:
                    assert value == other, name

    @pytest.mark.parametrize("mode", ["fom", "cg"])
    def test_recycling_runs_keep_mode_and_directions(self, monkeypatch, mode):
        # the first system and a stage-1 fallback both run over an empty
        # block, but a recycling method keeps their directions, so stage 3
        # runs the config's mode
        modes = []

        def spy(op, *args, **kw):
            modes.append(kw["mode"])
            return augmented_pcg(op, *args, **kw)

        monkeypatch.setattr(threestage, "augmented_pcg", spy)
        seq = gen_diffusion_sequence((4, 4), p=2, delta=0.05, seed=28, tol=1e-9)
        cfg = solver_cfg(strategy="none", mode=mode)
        state = RecycleState.empty(seq.n)
        first, second = seq[0], seq[1]
        _, report = solve_system(first.A, first.b, first.xbar, state, first.tol, cfg)
        assert state.basis_dim == report.stage3_iters > 0
        # a stage-1 block wider than A forces the fallback
        wide = random_basis(seq.n, seq.n + 1, seed=29)
        state = RecycleState(Y=wide)
        _, report = solve_system(second.A, second.b, second.xbar, state, second.tol, cfg)
        assert report.stage1_fallback and report.converged
        assert state.basis_dim == seq.n + 1 + report.stage3_iters
        assert modes == [mode, mode]

    def test_single_system_summary(self):
        seq = gen_diffusion_sequence((6, 6), p=1, delta=0.0, seed=21, tol=1e-8)
        _, reports, _ = run_sequence(seq, solver_cfg())
        s = summarize_reports(reports)
        assert s["systems"] == 1 and s["all_converged"]


class TestExactRecycling:
    def test_repeated_system_zero_stage3(self):
        # identical matrix and load: the recycled subspace contains the
        # previous solution, so stages 1-2 already satisfy the tolerance
        seq = gen_diffusion_sequence((8, 8), p=4, delta=0.0, seed=22, tol=1e-9, load_drift=0.0)
        _, reports, _ = run_sequence(seq, solver_cfg())
        assert reports[0].stage3_iters > 0
        for r in reports[1:]:
            assert r.stage3_iters == 0
            assert r.final_residual <= 1e-9

    def test_invariant_matrix_varying_load_converges(self):
        seq = gen_diffusion_sequence((8, 8), p=5, delta=0.0, seed=23, tol=1e-9)
        _, reports, _ = run_sequence(seq, solver_cfg())
        assert all(r.converged for r in reports)
        # recycling must shrink the work after the first system
        assert all(r.stage3_iters < reports[0].stage3_iters for r in reports[1:])


class TestResidualsAndCounters:
    def test_final_residuals_meet_tolerance(self):
        seq = gen_diffusion_sequence((9, 7), p=5, delta=0.05, seed=24, tol=1e-8)
        for full_orth in (False, True):
            _, reports, _ = run_sequence(seq, solver_cfg(full_orth=full_orth))
            for r in reports:
                assert r.converged and r.final_residual <= 1e-8

    def test_stage3_equals_precond_applies(self):
        seq = gen_diffusion_sequence((9, 9), p=4, delta=0.05, seed=25, tol=1e-8)
        _, reports, _ = run_sequence(seq, solver_cfg(precond="jacobi"))
        for r in reports:
            assert r.precond_applies == r.stage3_iters

    def test_stage2_never_assembles_reduced_matrix(self, monkeypatch):
        assemblies = []

        def counting(A, B, sink=None):
            assemblies.append(B.shape[1])
            return assemble_gram(A, B, sink)

        monkeypatch.setattr(krylov, "assemble_gram", counting)
        seq = gen_diffusion_sequence((8, 8), p=3, delta=0.05, seed=26, tol=1e-8)
        cfg = solver_cfg(nu_w=0.5, stage1_dim=2)
        state = RecycleState.empty(seq.n)
        for j, spec in enumerate(seq, start=1):
            assemblies.clear()
            _, report = solve_system(spec.A, spec.b, spec.xbar, state, spec.tol, cfg)
            if j == 1:
                assert len(assemblies) == 0  # plain PCG, nothing reduced
            else:
                assert report.stage2_iters >= 0
                # only the stage-1 assembly; stages 2 and 3 use cached parts
                assert len(assemblies) == 1

    def test_matvec_accounting_no_recycle(self):
        seq = gen_diffusion_sequence((7, 7), p=2, delta=0.0, seed=27, tol=1e-8)
        cfg = solver_cfg(recycle=False)
        _, reports, _ = run_sequence(seq, cfg)
        for r in reports:
            assert r.matvecs == r.stage3_iters
            assert r.stage1_dim == 0


class _CountingCsr:
    """A CSR matrix that counts the columns of every product taken with it."""

    def __init__(self, csr, counter):
        self._csr, self._counter = csr, counter

    def __matmul__(self, other):
        self._counter[0] += 1 if np.ndim(other) == 1 else np.shape(other)[1]
        return self._csr @ other

    def __getattr__(self, name):
        return getattr(self._csr, name)


class TestMatvecAccounting:
    @pytest.mark.parametrize("precond", ["identity", "jacobi", "ssor:1.7"])
    @pytest.mark.parametrize("mode", ["fom", "cg"])
    def test_every_sparse_product_is_counted(self, monkeypatch, mode, precond):
        # every product with A anywhere in a solve, truncation included, is
        # charged to the report: none is taken outside the counter
        seq = gen_diffusion_sequence((10, 10), p=4, delta=0.05, seed=5, tol=1e-8)
        seq.C = gen_output_matrix(20, seq.n, seed=6)
        methods = default_methods(storage_cap=12, precond=precond, mode=mode,
                                  include_output_metric=True)
        cfgs = [m.config for m in methods] + [
            solver_cfg(strategy=strategy, storage_cap=12, max_dim=6, stage1_dim=2,
                       mode=mode, precond=precond)
            for strategy in ("pod-a-prev", "pod-ctc-prev")
        ]
        counter = [0]
        monkeypatch.setattr(SparseSpdMatrix, "to_scipy",
                            lambda self: _CountingCsr(self._csr, counter))
        charged = truncations = 0
        for cfg in cfgs:
            _, reports, _ = run_sequence(seq, cfg, stop_on_failure=False)
            charged += sum(r.matvecs for r in reports)
            truncations += sum(r.truncated for r in reports)
        assert {cfg.truncation.strategy for cfg in cfgs} == set(ALL_STRATEGIES)
        assert truncations >= len(cfgs) - 2  # every method but pcg and no-trunc
        assert counter[0] == charged > 0

    @pytest.mark.parametrize("method", ["df(25,0)", "pod(25,0)", "pod(5,20)", "pod(5,20)it"])
    def test_solve_charges_width_and_stage3(self, monkeypatch, method):
        # stage 1 and the products AY take one matvec per column of the
        # entry basis; stage 2, every full_orth projection and truncation
        # read A from AY and take none; a nonzero xbar costs one more
        truncation_cost = []

        def spy(state, yhat_comb, stage3_res, cfg, A, **kw):
            before = kw["sink"].matvecs
            outcome = update_basis(state, yhat_comb, stage3_res, cfg, A, **kw)
            if outcome is not None:
                truncation_cost.append(kw["sink"].matvecs - before)
            return outcome

        monkeypatch.setattr(threestage, "update_basis", spy)
        seq = gen_diffusion_sequence((10, 10), p=6, delta=0.05, seed=5, tol=1e-8)
        third = seq.systems[2]
        xbar = 1e-3 * np.random.default_rng(7).standard_normal(seq.n)
        seq.systems[2] = LinearSystemSpec(third.A, third.b, xbar, third.tol)
        spec = {m.name: m for m in default_methods(storage_cap=50, precond="jacobi")}[method]
        state = RecycleState.empty(seq.n)
        stage2_runs = 0
        for system in seq:
            width = state.basis_dim
            _, report = solve_system(system.A, system.b, system.xbar, state, system.tol,
                                     spec.config, built(spec.config, system.A))
            assert report.converged and not report.stage1_fallback
            centered = int(system.xbar is not None)
            assert report.matvecs == width + report.stage3_iters + centered
            stage2_runs += report.stage2_iters > 0
        assert len(truncation_cost) >= 3 and set(truncation_cost) == {0}
        assert (stage2_runs > 0) == method.startswith("pod(5,")

    def test_truncation_after_fallback_multiplies_all(self, monkeypatch):
        # a stage-1 fallback leaves no product of the old basis, so the
        # truncation after it multiplies all of its columns
        def failing_stage1(*args, **kwargs):
            raise NotPositiveDefinite("injected")

        truncation_cost = []

        def spy(state, yhat_comb, stage3_res, cfg, A, **kw):
            width, before = state.basis_dim, kw["sink"].matvecs
            outcome = update_basis(state, yhat_comb, stage3_res, cfg, A, **kw)
            if outcome is not None:
                truncation_cost.append((kw["sink"].matvecs - before, width))
            return outcome

        monkeypatch.setattr(threestage, "direct_reduced_solve", failing_stage1)
        monkeypatch.setattr(threestage, "update_basis", spy)
        seq = gen_diffusion_sequence((10, 10), p=4, delta=0.05, seed=5, tol=1e-8)
        cfg = solver_cfg(storage_cap=12, max_dim=6, precond="jacobi")
        _, reports, _ = run_sequence(seq, cfg)
        assert all(r.converged for r in reports)
        assert all(r.stage1_fallback for r in reports[1:])
        fallbacks = [cost for cost in truncation_cost if cost[1] > 0]
        assert len(fallbacks) == 3
        assert all(grew == width for grew, width in fallbacks)


class TestStage1Growth:
    def test_threshold_one_admits_all(self):
        # between truncations every new direction joins the stage-1 block
        seq = gen_diffusion_sequence((7, 7), p=2, delta=0.02, seed=28, tol=1e-8)
        cfg = solver_cfg()
        _, reports, traces = run_sequence(seq, cfg, keep_trace=True)
        assert traces[1].Y_entry.shape[1] == traces[0].Y_exit.shape[1] > 0
        assert traces[1].stage1_start == 0
        assert reports[1].stage1_dim == traces[0].Y_exit.shape[1]


class TestStage1Layout:
    def test_truncation_moves_stage1_prefix_to_tail(self, monkeypatch):
        # the stage-1 block is Y's trailing columns: truncation stores the
        # retained basis with compress's stage-1 prefix at the tail, and
        # the next solve reads that block as a view of the stored basis
        outcomes, blocks = [], []
        real_compress = threestage.compress
        real_direct = threestage.direct_reduced_solve

        def spy_compress(*args, **kwargs):
            outcomes.append(real_compress(*args, **kwargs))
            return outcomes[-1]

        def spy_direct(A, b, W, sink=None):
            blocks.append(W)
            return real_direct(A, b, W, sink)

        monkeypatch.setattr(threestage, "compress", spy_compress)
        monkeypatch.setattr(threestage, "direct_reduced_solve", spy_direct)
        seq = gen_diffusion_sequence((8, 8), p=2, delta=0.05, seed=39, tol=1e-8)
        cfg = solver_cfg(stage1_dim=5, storage_cap=10, max_dim=8, precond="jacobi")
        state = RecycleState.empty(seq.n)
        first, second = seq[0], seq[1]
        _, report = solve_system(first.A, first.b, first.xbar, state, first.tol, cfg,
                                 built(cfg, first.A))
        assert report.truncated and len(outcomes) == 1
        out = outcomes[0]
        y = out.Y_new.shape[1]
        assert out.stage1_width == 5 < y == state.basis_dim
        assert state.stage1_start == y - 5
        assert np.array_equal(state.Y[:, y - 5:], out.Y_new[:, :5])
        assert np.array_equal(state.Y[:, :y - 5], out.Y_new[:, 5:])
        Y_entry = state.Y
        _, report = solve_system(second.A, second.b, second.xbar, state, second.tol, cfg,
                                 built(cfg, second.A))
        assert report.converged and report.stage1_dim == 5
        (W,) = blocks
        assert W.shape == (seq.n, 5) and np.shares_memory(W, Y_entry)
        assert np.array_equal(W, Y_entry[:, y - 5:])


class TestTruncationFiring:
    def test_cap_enforced_and_orthonormal(self):
        seq = gen_diffusion_sequence((8, 8), p=6, delta=0.05, seed=31, tol=1e-8)
        cfg = solver_cfg(storage_cap=10, nu_y=1.0, max_dim=10)
        _, reports, traces = run_sequence(seq, cfg, keep_trace=True)
        fired = [t for t in traces if t.truncated]
        assert fired
        for t in fired:
            Y = t.Y_exit
            assert Y.shape[1] <= 10
            G = Y.T @ t.A.to_dense() @ Y
            assert np.max(np.abs(G - np.eye(Y.shape[1]))) <= 1e-8

    def test_deflation_strategy_runs(self):
        seq = gen_diffusion_sequence((8, 8), p=6, delta=0.05, seed=32, tol=1e-8)
        cfg = solver_cfg(strategy="deflate", deflate_dim=6, storage_cap=12)
        _, reports, _ = run_sequence(seq, cfg)
        assert all(r.converged for r in reports)

    def test_output_metric_strategy_runs(self):
        seq = gen_diffusion_sequence((8, 8), p=6, delta=0.05, seed=33, tol=1e-8)
        seq.C = gen_output_matrix(12, seq.n, seed=34)
        cfg = solver_cfg(strategy="pod-ctc-rbf", nu_y=0.999, storage_cap=12, max_dim=8, nu_w=0.9)
        _, reports, traces = run_sequence(seq, cfg, keep_trace=True)
        assert all(r.converged for r in reports)
        fired = [t for t in traces if t.truncated]
        assert fired
        for t in fired:
            G = t.Y_exit.T @ t.A.to_dense() @ t.Y_exit
            assert np.max(np.abs(G - np.eye(G.shape[0]))) <= 1e-8

    def test_rank_truncation_is_reported_not_warned(self):
        # the default roster's POD truncation keeps nu_y = 1, which the
        # numerical rank of the block cuts short: each report says so
        seq = gen_diffusion_sequence((10, 10), p=6, delta=0.05, seed=5, tol=1e-8)
        spec = {m.name: m for m in default_methods(storage_cap=50, precond="jacobi")}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, reports, _ = run_sequence(seq, spec["pod(25,0)"].config)
        assert any(r.rank_truncated for r in reports)
        assert all(r.truncated for r in reports if r.rank_truncated)

    @pytest.mark.parametrize("strategy, stage1_dim", [
        ("deflate", None), ("pod-a-rbf", 3), ("pod-ctc-rbf", None), ("pod-a-rbf", None)])
    def test_products_handed_to_compress_match(self, monkeypatch, strategy, stage1_dim):
        # the products handed over are the solve's own A-products, as column
        # blocks of A @ Z side by side, in fom mode too, and for A-metric POD
        # whose stage-1 block spans Y
        errors = []

        def spy(Z, cfg, A, history, **kw):
            if kw["products"] is not None:
                start, block_errors = 0, []
                for block in kw["products"]:
                    exact = A.to_scipy() @ Z[:, start:start + block.shape[1]]
                    block_errors.append(np.linalg.norm(block - exact) / np.linalg.norm(exact))
                    start += block.shape[1]
                assert start == Z.shape[1]
                errors.append(max(block_errors))
            return compress(Z, cfg, A, history, **kw)

        monkeypatch.setattr(threestage, "compress", spy)
        seq = gen_diffusion_sequence((10, 10), p=6, delta=0.05, seed=5, tol=1e-8)
        seq.C = gen_output_matrix(20, seq.n, seed=6)
        cfg = solver_cfg(strategy=strategy, deflate_dim=8, storage_cap=12, max_dim=8,
                         stage1_dim=stage1_dim, precond="jacobi", mode="fom")
        _, reports, _ = run_sequence(seq, cfg)
        assert all(r.converged for r in reports)
        assert len(errors) == len(reports)
        assert max(errors) <= 1e-12


class TestNoCopies:
    @pytest.mark.parametrize("strategy", ["pod-a-rbf", "pod-ctc-rbf", "deflate"])
    def test_truncation_allocates_no_stacked_products(self, strategy):
        # a truncating update_basis allocates the grown and retained bases
        # and less than one more n x z block: the products go to compress as
        # the blocks the solve holds, and the old Y is freed once the grown
        # one is written
        n, y_old, k = 2500, 20, 12
        A = gen_diffusion_sequence((50, 50), p=1, delta=0.0, seed=42, tol=1e-8)[0].A
        chalf = gen_output_matrix(10, n, seed=44)
        cfg = solver_cfg(strategy=strategy, storage_cap=25, max_dim=10, stage1_dim=4,
                         deflate_dim=10)
        # traced from before the old Y is allocated, so that its release counts
        tracemalloc.start()
        try:
            Q = enforce_a_orthogonality(random_basis(n, y_old + k, seed=43), A)[0]
            V = np.asfortranarray(Q[:, y_old:])
            run = AugmentedPcgResult(k=k, vhat=np.ones(k), V=V,
                                     AV=np.asfortranarray(spmv(A, V)),
                                     residual_history=np.ones(2), x=np.zeros(n))
            state = RecycleState(Y=np.ascontiguousarray(Q[:, :y_old]))
            products = spmv(A, state.Y)
            del Q
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = update_basis(state, np.ones(y_old), run, cfg, A, chalf=chalf, sink=None,
                               products=products)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        z, y_new = y_old + k, out.Y_new.shape[1]
        assert state.basis_dim == y_new == 10 and state.stage1_start == 6
        assert peak < 8 * n * (z + y_new + z)

    def test_stage2_forms_the_split_block_once(self):
        # stage 2 allocates AY and the stage-3 block Y C = [W, Y V2] with its
        # products AY C, each once, plus the nested run's y-row arrays, less
        # than one n-row column: neither Y V2 nor AY V2 is formed apart
        n, y, s = 2500, 12, 6
        spec = gen_diffusion_sequence((50, 50), p=1, delta=0.0, seed=42, tol=1e-8)[0]
        A = spec.A
        Y = np.ascontiguousarray(random_basis(n, y, seed=45))
        cfg = solver_cfg(stage1_dim=y - s)
        stage1 = threestage._stage1(A, spec.b, Y[:, s:], None)
        report = threestage.SolveReport(j=2)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = threestage._stage2(A, spec.b, Y, s, stage1, cfg, spec.tol, report, None)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        _, basis, proj, AY, _ = out
        w, k = y - s, report.stage2_iters
        assert report.stage2_converged and k >= 2 and basis.shape == (n, w + k)
        assert np.array_equal(basis[:, :w], Y[:, s:])
        assert np.array_equal(proj.cross[:, :w], stage1[1].cross)
        assert peak < 8 * n * (y + 2 * (w + k) + 1)

    @pytest.mark.parametrize("mode, width", [("fom", 3), ("cg", 0)])
    def test_update_basis_appends_scaled_directions(self, mode, width):
        seq = gen_diffusion_sequence((8, 8), p=1, delta=0.0, seed=35, tol=1e-8)
        A, b = seq[0].A, seq[0].b
        Y = random_basis(seq.n, width, seed=36)
        # appended directions join the trailing stage-1 block, so its start
        # does not move
        state = RecycleState(Y=Y.copy(), stage1_start=width // 2)
        res = augmented_pcg(A, b, tol=1e-8, mode=mode)
        update_basis(state, np.zeros(width), res, solver_cfg(strategy="none", mode=mode), A,
                     chalf=None, sink=None, products=None)
        # the run hands its directions out at unit A-norm; they are copied as
        # they come
        assert np.array_equal(state.Y, np.hstack([Y, res.V]))
        assert state.Y.flags.c_contiguous
        assert state.stage1_start == width // 2

    def test_no_recycle_keeps_no_directions(self, monkeypatch):
        results = []

        def spy(*args, **kw):
            results.append(augmented_pcg(*args, **kw))
            return results[-1]

        monkeypatch.setattr(threestage, "augmented_pcg", spy)
        seq = gen_diffusion_sequence((8, 8), p=3, delta=0.05, seed=37, tol=1e-8)
        _, reports, _ = run_sequence(seq, solver_cfg(recycle=False, precond="jacobi"))
        assert [r.stage3_iters for r in reports] == [res.k for res in results]
        for res in results:
            assert res.k > 0 and res.V.shape == (seq.n, 0)

    @pytest.mark.parametrize("precond", ["identity", "ssor:1.7"])
    @pytest.mark.parametrize("mode", ["cg", "fom"])
    def test_read_only_inputs_and_shared_traces(self, mode, precond):
        # the solver writes neither b, xbar nor a basis, so it copies none:
        # read-only inputs pass through every method, and each trace holds
        # the state's own basis, the one the next system enters with
        seq = gen_diffusion_sequence((10, 10), p=5, delta=0.05, seed=38, tol=1e-8)
        seq.C = gen_output_matrix(5, seq.n, seed=39)
        rng = np.random.default_rng(40)
        for j, spec in enumerate(seq.systems):
            xbar = 1e-3 * rng.standard_normal(seq.n) if j % 2 else None
            for v in (spec.b, xbar):
                if v is not None:
                    v.setflags(write=False)
            seq.systems[j] = LinearSystemSpec(spec.A, spec.b, xbar, spec.tol)
        methods = default_methods(storage_cap=12, precond=precond, mode=mode,
                                  include_output_metric=True)
        assert len(methods) == 9
        truncations = 0
        for method in methods:
            _, reports, traces = run_sequence(seq, method.config, track_iterates=True,
                                              keep_trace=True)
            assert len(reports) == seq.p and all(r.converged for r in reports), method.name
            truncations += sum(r.truncated for r in reports)
            if method.config.recycle:
                for before, after in zip(traces, traces[1:]):
                    assert before.Y_exit is after.Y_entry, method.name
        assert truncations >= 6 * 2


class TestDirectSumOptimality:
    def test_phi0_solution_is_projection(self):
        seq = gen_diffusion_sequence((8, 8), p=4, delta=0.05, seed=35, tol=1e-10)
        cfg = solver_cfg(nu_w=1.0, stage1_dim=3)
        xs, reports, traces = run_sequence(seq, cfg, keep_trace=True)
        for t, x, r in zip(traces[1:], xs[1:], reports[1:]):
            Ad = t.A.to_dense()
            xstar = np.linalg.solve(Ad, t.b)
            # accumulated subspace: stage-3 basis plus generated directions
            res = t.b - Ad @ x
            # solution optimality over the stage-3 affine space implies the
            # residual is orthogonal to it
            B = t.stage3_basis
            assert np.linalg.norm(B.T @ res) <= 1e-6 * np.linalg.norm(t.b)

    def test_phi0_orthogonality_ledger(self):
        # new stage-3 directions stay A-orthogonal to the blocks they were
        # projected against, under the same system's matrix
        seq = gen_diffusion_sequence((8, 8), p=3, delta=0.05, seed=36, tol=1e-10)
        cfg = solver_cfg(nu_w=1.0, stage1_dim=4)
        _, _, traces = run_sequence(seq, cfg, keep_trace=True)
        for t in traces[1:]:
            k_new = t.Y_exit.shape[1] - t.Y_entry.shape[1]
            if k_new == 0 or t.truncated:
                continue
            V = t.Y_exit[:, -k_new:]
            Ad = t.A.to_dense()
            B = t.stage3_basis
            scale = np.linalg.norm(Ad, 2) * np.linalg.norm(B, 2) * np.linalg.norm(V, 2)
            assert np.max(np.abs(B.T @ Ad @ V)) <= 1e-8 * scale


class TestMonolithicAgreement:
    @pytest.mark.parametrize("full_orth", [False, True])
    def test_threestage_matches_monolithic(self, full_orth):
        # the staged solve over [W, stage-2 directions] (or all of Y) must
        # agree with one augmented-PCG run over the same subspace started
        # from the dense Galerkin solution
        seq = gen_diffusion_sequence((10, 10), p=5, delta=0.05, seed=37, tol=1e-9)
        cfg = solver_cfg(full_orth=full_orth, stage1_dim=4, nu_w=1.0, precond="jacobi")
        xs, reports, traces = run_sequence(seq, cfg, keep_trace=True)
        for t, x, rep in zip(traces[1:], xs[1:], reports[1:]):
            Ad = t.A.to_dense()
            B = t.stage3_basis
            rhs = t.b if t.xbar is None else t.b - Ad @ t.xbar
            yhat0 = np.linalg.solve(B.T @ Ad @ B, B.T @ rhs)
            # the default projection: one block product A*B, factored
            mono = augmented_pcg(
                t.A, rhs, yhat0, B, None, pc.build("jacobi", t.A), t.eps, mode=cfg.mode,
            )
            x_mono = (t.xbar if t.xbar is not None else 0.0) + mono.x
            xstar = np.linalg.solve(Ad, t.b)
            gap = x - x_mono
            rel = np.sqrt(gap @ Ad @ gap) / np.sqrt(xstar @ Ad @ xstar)
            assert rel <= 1e-6
            assert abs(mono.k - rep.stage3_iters) <= 2


class TestFullOrthVariant:
    def test_phi1_directions_orthogonal_to_whole_basis(self, monkeypatch):
        # under full_orth every stage-3 direction of a system whose basis is
        # wider than its stage-1 block is A-orthogonal to all of Y to
        # round-off: each projection backsolves G's Cholesky factor.  The
        # cap truncates, so later systems enter with such a basis
        real = threestage.augmented_pcg
        stage3 = []

        def spy(op, *args, **kwargs):
            res = real(op, *args, **kwargs)
            if isinstance(op, SparseSpdMatrix):
                stage3.append(res.V)
            return res

        monkeypatch.setattr(threestage, "augmented_pcg", spy)
        seq = gen_diffusion_sequence((12, 12), p=10, delta=0.03, seed=38, tol=1e-9)
        for mode in ("fom", "cg"):
            cfg = solver_cfg(full_orth=True, storage_cap=16, max_dim=8, stage1_dim=3,
                             mode=mode)
            state = RecycleState.empty(seq.n)
            checked = 0
            for spec in seq:
                Y, s = state.Y, state.stage1_start
                stage3.clear()
                solve_system(spec.A, spec.b, spec.xbar, state, spec.tol, cfg)
                (V,) = stage3
                if s and V.shape[1]:
                    AY = spec.A.to_dense() @ Y
                    assert np.max(np.abs(AY.T @ V)) <= 1e-14 * np.linalg.norm(AY, 2), mode
                    checked += 1
            assert checked > 0, mode

    def test_failed_reduced_factor_projects_over_stage_blocks(self, monkeypatch):
        # when G = Y'AY fails its Cholesky factorization, a full_orth solve
        # runs as it would without full_orth: stage 2 hands out its block
        # and stage 3 projects over the stage blocks
        real_nested, real_cholesky = threestage._nested_run, threestage.dense_cholesky
        reduced, injected = [], []

        def spy_nested(G, *args):
            reduced.append(G)
            return real_nested(G, *args)

        def failing_cholesky(M):
            if reduced and M is reduced[-1]:
                injected.append(M.shape[0])
                raise NotPositiveDefinite("injected")
            return real_cholesky(M)

        monkeypatch.setattr(threestage, "_nested_run", spy_nested)
        monkeypatch.setattr(threestage, "dense_cholesky", failing_cholesky)
        seq = gen_diffusion_sequence((10, 10), 4, 0.05, seed=5, tol=1e-8)
        runs = [run_sequence(seq, solver_cfg(stage1_dim=3, storage_cap=10, precond="ssor:1.7",
                                             full_orth=full_orth))
                for full_orth in (False, True)]
        (xs, reports, _), (xs_it, reports_it, _) = runs
        # systems 2 to 4 run stage 2, and only the full_orth run factors G
        assert len(reduced) == 6 and len(injected) == 3
        for spec, x, x_it, r, r_it in zip(seq, xs, xs_it, reports, reports_it):
            assert r_it.converged and r_it.stage2_converged
            assert np.linalg.norm(spec.b - spmv(spec.A, x_it)) <= spec.tol
            assert np.array_equal(x_it, x)
            assert (r_it.matvecs, r_it.stage2_iters, r_it.stage3_iters) == (
                r.matvecs, r.stage2_iters, r.stage3_iters)


class TestPartialFailure:
    def test_not_converged_flagged_and_continues(self):
        seq = gen_diffusion_sequence((8, 8), p=3, delta=0.05, seed=39, tol=1e-12)
        cfg = solver_cfg(max_iter=3)  # starve the solver
        _, reports, _ = run_sequence(seq, cfg, stop_on_failure=False)
        assert len(reports) == 3
        assert not all(r.converged for r in reports)

    def test_stop_on_failure_aborts(self):
        seq = gen_diffusion_sequence((8, 8), p=3, delta=0.05, seed=40, tol=1e-12)
        cfg = solver_cfg(max_iter=3)
        _, reports, _ = run_sequence(seq, cfg, stop_on_failure=True)
        assert len(reports) == 1 and not reports[0].converged


class TestStage1Fallback:
    def test_failed_stage1_factor_solves_without_basis(self):
        # the untruncated cg-mode basis loses A-orthogonality on this sequence,
        # so from system 3 on the stage-1 Cholesky of W'AW fails; those
        # systems fall back to plain PCG and keep the weight history aligned
        # with the grown basis (system 2 diverges in stage 3 and is not pinned)
        seq = gen_diffusion_sequence((25, 35), 12, 0.5, seed=3, tol=1e-8)
        (no_trunc,) = [m for m in default_methods(storage_cap=30, mode="cg")
                       if m.name == "no-trunc"]
        state = RecycleState.empty(seq.n)
        reports = []
        for spec in seq:
            x, report = solve_system(spec.A, spec.b, spec.xbar, state, spec.tol,
                                     no_trunc.config)
            reports.append(report)
            assert state.history.width() == state.basis_dim
            if report.j >= 3:
                assert report.stage1_fallback and report.converged
                assert report.stage1_dim == 0 and report.stage2_iters == 0
                assert np.linalg.norm(spec.b - spmv(spec.A, x)) <= 1.1 * spec.tol
        assert len(reports) == 12
        assert not any(r.stage1_fallback for r in reports[:2])

    def test_basis_wider_than_matrix_skips_gram_assembly(self):
        # system 2 runs stage 3 to its cap of n = 400 iterations and leaves an
        # untruncated basis of 483 columns; from system 3 on W'AW is singular,
        # so the fallback is taken without assembling it (one matvec a column)
        seq = gen_diffusion_sequence((20, 20), 12, 0.5, seed=3, tol=1e-8)
        (no_trunc,) = [m for m in default_methods(storage_cap=30, mode="cg")
                       if m.name == "no-trunc"]
        state = RecycleState.empty(seq.n)
        wide = 0
        for spec in seq:
            entry_width = state.basis_dim
            x, report = solve_system(spec.A, spec.b, spec.xbar, state, spec.tol,
                                     no_trunc.config)
            if entry_width > seq.n:
                wide += 1
                assert report.stage1_fallback and report.converged
                assert report.matvecs == report.stage3_iters
                assert np.linalg.norm(spec.b - spmv(spec.A, x)) <= 1.1 * spec.tol
        assert wide == 10

    def test_fallback_trace_holds_empty_basis(self, monkeypatch):
        # a system that falls back solves over an empty stage-3 basis; its
        # trace records that basis beside the state's entry basis and
        # stage-1 start, which the new directions were appended to
        def failing_stage1(*args, **kwargs):
            raise NotPositiveDefinite("injected")

        seq = gen_diffusion_sequence((10, 10), 2, 0.05, seed=5, tol=1e-8)
        cfg = solver_cfg(stage1_dim=3, storage_cap=10, precond="ssor:1.7")
        state, traces = RecycleState.empty(seq.n), []
        first, second = seq[0], seq[1]
        solve_system(first.A, first.b, first.xbar, state, first.tol, cfg, built(cfg, first.A),
                     trace_out=traces)
        assert state.stage1_start > 0
        entry, entry_start = state.Y.copy(), state.stage1_start
        monkeypatch.setattr(threestage, "direct_reduced_solve", failing_stage1)
        _, report = solve_system(second.A, second.b, second.xbar, state, second.tol, cfg,
                                 built(cfg, second.A), trace_out=traces)
        assert report.stage1_fallback and report.converged
        trace = traces[1]
        assert trace.stage3_basis.shape == (seq.n, 0)
        assert np.array_equal(trace.Y_entry, entry)
        assert trace.stage1_start == entry_start

    def test_fallback_trace_counts_new_directions(self):
        # a repeated column makes W'AW singular, so stage 1 falls back; the
        # trace keeps the entry basis, so Y_exit - Y_entry counts the
        # directions stage 3 appended, and the conditioning check reads the
        # entry basis instead of skipping an empty one
        seq = gen_diffusion_sequence((8, 8), 1, 0.0, seed=40, tol=1e-8)
        Y = random_basis(seq.n, 5, seed=42)
        Y[:, 4] = Y[:, 3]
        state, traces = RecycleState(Y=Y.copy()), []
        spec = seq[0]
        _, report = solve_system(spec.A, spec.b, spec.xbar, state, spec.tol, solver_cfg(),
                                 trace_out=traces)
        assert report.stage1_fallback and report.converged and report.stage3_iters > 0
        (trace,) = traces
        assert np.array_equal(trace.Y_entry, Y) and trace.stage1_start == 0
        assert trace.stage3_basis.shape == (seq.n, 0)
        assert trace.Y_exit.shape[1] - trace.Y_entry.shape[1] == report.stage3_iters
        (check,) = check_conditioning_bound(traces)
        assert check.context["j"] == 1 and check.lhs > 0.0


class TestReducedProjections:
    def test_projection_right_hand_side_reads_products(self):
        # a full_orth projection forms Y'Az as (AY)'z: no matvec, and the
        # result solves the reduced system G mu = Y'Az
        A = make_spd(12, seed=66)
        Y = np.linalg.qr(random_basis(12, 5, seed=67))[0]
        Ad = A.to_dense()
        AY = Ad @ Y
        G = Y.T @ AY
        inner = InnerIterativeProjection(AY, dense_cholesky(0.5 * (G + G.T)))
        z = np.random.default_rng(68).standard_normal(12)
        mu = inner(z)
        expected = np.linalg.solve(G, Y.T @ Ad @ z)
        assert np.linalg.norm(mu - expected) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("mode", ["fom", "cg"])
    def test_stage3_handle_matches_dense_oracle(self, monkeypatch, mode):
        # after a stage 2 that adds a block, the stage-3 handle projects onto
        # B = [W, Y V2]: it returns (B'AB)^{-1} B'Az.  In cg mode nothing
        # makes V2 G-orthonormal; the handle's factor covers all of B'AB
        real = threestage.augmented_pcg
        runs = []

        def spy(op, *args, **kwargs):
            res = real(op, *args, **kwargs)
            runs.append((op, args, res))
            return res

        monkeypatch.setattr(threestage, "augmented_pcg", spy)
        seq = gen_diffusion_sequence((10, 10), 4, 0.05, seed=5, tol=1e-8)
        # truncation after every system keeps a 3-column stage-1 block
        # narrower than Y, so systems 2 to 4 each run stage 2
        cfg = solver_cfg(stage1_dim=3, storage_cap=10, precond="ssor:1.7", mode=mode)
        state = RecycleState.empty(seq.n)
        rng = np.random.default_rng(65)
        checked = 0
        for spec in seq:
            runs.clear()
            Y = state.Y
            solve_system(spec.A, spec.b, spec.xbar, state, spec.tol, cfg, built(cfg, spec.A))
            if len(runs) < 2 or runs[0][2].k == 0:
                continue
            (_, args2, stage2), (_, args3, _) = runs
            B = Y @ np.hstack([args2[2], stage2.V])
            handle = args3[3]
            Ad = spec.A.to_dense()
            z = rng.standard_normal(seq.n)
            expected = np.linalg.solve(B.T @ Ad @ B, B.T @ Ad @ z)
            assert np.linalg.norm(handle(z) - expected) <= 1e-10 * np.linalg.norm(expected)
            checked += 1
        assert checked == 3

    def test_nested_run_without_a_step_hands_over_w(self, monkeypatch):
        # when b lies in range(A W), the stage-1 solution already meets the
        # nested tolerance: the run takes no step, its C is E, and stage 3
        # runs over W's own columns with the stage-1 products and factor
        real_pcg, real_direct = threestage.augmented_pcg, threestage.direct_reduced_solve
        stage1, stage3 = [], []

        def spy_direct(*args, **kwargs):
            stage1.append(real_direct(*args, **kwargs))
            return stage1[-1]

        def spy_pcg(op, *args, **kwargs):
            if isinstance(op, SparseSpdMatrix):
                stage3.append(args)
            return real_pcg(op, *args, **kwargs)

        monkeypatch.setattr(threestage, "direct_reduced_solve", spy_direct)
        monkeypatch.setattr(threestage, "augmented_pcg", spy_pcg)
        A = gen_diffusion_sequence((10, 10), p=1, delta=0.0, seed=70, tol=1e-8)[0].A
        Y = random_basis(A.n, 6, seed=71)
        W = Y[:, 3:]
        b = spmv(A, W @ np.array([1.0, -2.0, 0.5]))
        state = RecycleState(Y=Y, stage1_start=3)
        x, report = solve_system(A, b, None, state, 1e-6 * np.linalg.norm(b),
                                 solver_cfg(strategy="none"))
        assert report.converged and report.stage1_dim == 3
        assert report.stage2_iters == 0 and report.stage2_converged
        assert len(report.stage2_residual_history) == 1
        ((what, proj1),), ((start, basis, proj),) = stage1, [a[1:4] for a in stage3]
        assert np.array_equal(start, what) and np.array_equal(basis, W)
        assert np.array_equal(proj.cross, proj1.cross) and proj.factor is proj1.factor
        assert np.linalg.norm(b - spmv(A, x)) <= 1e-6 * np.linalg.norm(b)

    def test_stage3_handle_factors_a_block_that_is_not_g_orthonormal(self, monkeypatch):
        # on this input the cg stage-2 block of system 7 is off G-orthonormal
        # by |V2'GV2 - I| = 2.5e-8, far above the 2e-9 relative accuracy
        # stage 3 needs; a factor that took V2's Gram block as I would miss
        # the oracle by 1.6e-10 on system 5 and run system 7 to its budget
        real = threestage.augmented_pcg
        runs = []

        def spy(op, *args, **kwargs):
            res = real(op, *args, **kwargs)
            runs.append((op, args, res))
            return res

        monkeypatch.setattr(threestage, "augmented_pcg", spy)
        seq = gen_diffusion_sequence((30, 30), 20, 0.05, seed=1, tol=1e-9)
        (method,) = [m for m in default_methods(storage_cap=50, precond="ssor:1.7", mode="cg")
                     if m.name == "pod(5,20)"]
        state = RecycleState.empty(seq.n)
        rng = np.random.default_rng(69)
        drift, checked = 0.0, 0
        for spec in seq.systems[:7]:
            runs.clear()
            Y = state.Y
            _, report = solve_system(spec.A, spec.b, spec.xbar, state, spec.tol, method.config,
                                     built(method.config, spec.A))
            assert report.converged, report.j
            if len(runs) < 2 or runs[0][2].k == 0:
                continue
            (op2, args2, stage2), (_, args3, _) = runs
            V2 = stage2.V
            drift = max(drift, np.linalg.norm(V2.T @ op2.G @ V2 - np.eye(V2.shape[1]), 2))
            B = Y @ np.hstack([args2[2], V2])
            Ad = spec.A.to_dense()
            z = rng.standard_normal(seq.n)
            expected = np.linalg.solve(B.T @ Ad @ B, B.T @ Ad @ z)
            assert np.linalg.norm(args3[3](z) - expected) <= 1e-12 * np.linalg.norm(expected)
            checked += 1
        assert checked == 4 and drift > 1e-9


class TestAOrthonormalBlocks:
    def test_stage3_blocks_and_appended_directions(self, monkeypatch):
        # in fom mode stage 2 hands out a block A-orthonormal and
        # A-orthogonal to W, so the stage-3 projection's Gram matrix is
        # blockdiag(W'AW, I), though its factor assumes no such shape; the
        # directions a solve appends to Y have V'AV = I
        real = threestage.augmented_pcg
        stage3_args = []

        def spy(op, *args, **kwargs):
            if isinstance(op, SparseSpdMatrix):
                stage3_args.append(args)
            return real(op, *args, **kwargs)

        def rel(got, want):
            return np.linalg.norm(got - want, 2) / np.linalg.norm(want, 2)

        monkeypatch.setattr(threestage, "augmented_pcg", spy)
        seq = gen_diffusion_sequence((10, 10), p=6, delta=0.05, seed=5, tol=1e-8)
        # a cap that some split solves stay under, so their directions stay
        cfg = solver_cfg(storage_cap=40, max_dim=10, stage1_dim=5, precond="jacobi")
        state = RecycleState.empty(seq.n)
        split = appended = 0
        for spec in seq:
            stage3_args.clear()
            entry_width = state.basis_dim
            _, report = solve_system(spec.A, spec.b, spec.xbar, state, spec.tol, cfg,
                                     built(cfg, spec.A))
            assert report.converged
            Ad = spec.A.to_dense()
            (args,) = stage3_args
            basis, proj = args[2], args[3]
            if report.stage2_iters:
                w = report.stage1_dim
                want = np.eye(basis.shape[1])
                want[:w, :w] = basis[:, :w].T @ Ad @ basis[:, :w]
                assert basis.shape[1] == w + report.stage2_iters
                assert rel(proj.cross.T @ basis, want) <= 1e-10
                split += 1
                if not report.truncated:
                    V = state.Y[:, entry_width:]
                    assert V.shape[1] == report.stage3_iters > 0
                    assert rel(V.T @ Ad @ V, np.eye(V.shape[1])) <= 1e-10
                    appended += 1
        assert split > 0 and appended > 0


class TestStage2Breakdown:
    def test_overflowing_stage2_ends_typed(self):
        # with ssor:1.7 at tol 1e-9, stage 2 of pod(5,20) once iterated
        # below attainable accuracy, overflowed, and the stage 3 after it
        # broke down.  Every nested run's tolerance is floored at
        # 1e-13 ||bhat||, so every stage 2 converges and every solve of the
        # roster meets its tolerance
        seq = gen_diffusion_sequence((30, 30), 20, 0.05, seed=1, tol=1e-9)
        runs = run_methods(seq, default_methods(storage_cap=50, precond="ssor:1.7"),
                           keep_solutions=True)
        for run in runs:
            assert len(run.reports) == seq.p
            for spec, report, x in zip(seq.systems, run.reports, run.solutions):
                where = (run.method.name, report.j)
                assert report.converged and report.stage2_converged, where
                assert report.failure is None, where
                assert np.linalg.norm(spec.b - spmv(spec.A, x)) <= spec.tol, where

    @pytest.mark.parametrize("full_orth", [False, True])
    def test_broken_stage2_contributes_nothing(self, monkeypatch, full_orth):
        # stage 2 is the one run over the reduced operator; after it breaks
        # down, or after the Gram matrix of the stacked block [W, Y V2]
        # fails its factorization, stage 3 starts from the stage-1 solution
        # and, full_orth or not, augments with the stage-1 block alone
        real_pcg, real_cholesky = threestage.augmented_pcg, threestage.dense_cholesky
        stepped, injected = [], []

        def break_run(op, *args, **kwargs):
            if isinstance(op, ReducedSpdOperator):
                return broken_run(op, *args, k=1, **kwargs)
            return real_pcg(op, *args, **kwargs)

        def spy_run(op, *args, **kwargs):
            res = real_pcg(op, *args, **kwargs)
            if isinstance(op, ReducedSpdOperator) and res.k:
                stepped.append(res.k)
            return res

        def break_factor(M):
            # the first factor after a stage-2 step is the stacked block's
            if stepped:
                injected.append(M.shape[0] - stepped.pop())
                raise NotPositiveDefinite("injected")
            return real_cholesky(M)

        seq = gen_diffusion_sequence((10, 10), 4, 0.05, seed=5, tol=1e-8)
        cfg = solver_cfg(stage1_dim=3, storage_cap=10, precond="ssor:1.7",
                         full_orth=full_orth)
        for fault in ("run", "factor"):
            if fault == "run":
                monkeypatch.setattr(threestage, "augmented_pcg", break_run)
            else:
                monkeypatch.setattr(threestage, "augmented_pcg", spy_run)
                monkeypatch.setattr(threestage, "dense_cholesky", break_factor)
            state = RecycleState.empty(seq.n)
            ran_stage2 = 0
            for spec in seq:
                width = state.basis_dim - state.stage1_start
                wider = state.stage1_start > 0
                x, report = solve_system(spec.A, spec.b, spec.xbar, state, spec.tol, cfg,
                                         built(cfg, spec.A))
                assert report.converged and not report.stage1_fallback, fault
                assert np.linalg.norm(spec.b - spmv(spec.A, x)) <= spec.tol, fault
                if wider:
                    ran_stage2 += 1
                    assert not report.stage2_converged and report.stage2_iters == 0, fault
                    assert report.stage1_dim == width, fault
            assert ran_stage2 == 3, fault
        # each failing factor was of the stacked Gram matrix, W's width plus
        # the run's steps
        assert injected == [3, 3, 3]


class TestTwoTermRecurrence:
    def test_split_pod_converges(self):
        # the cg stage-2 block once lost G-orthonormality (|V'GV - I| = 3e-8)
        # while the stage-3 projection took its Gram block as I: system 7 ran
        # stage 3 to its budget at a residual of 80.  The projection now
        # factors the Gram matrix of the whole stacked block, read off G
        seq = gen_diffusion_sequence((30, 30), 20, 0.05, seed=1, tol=1e-9)
        (method,) = [m for m in default_methods(storage_cap=50, precond="ssor:1.7", mode="cg")
                     if m.name == "pod(5,20)"]
        xs, reports, _ = run_sequence(seq, method.config)
        assert len(reports) == seq.p
        for spec, x, report in zip(seq, xs, reports):
            assert report.converged, report.j
            assert np.linalg.norm(spec.b - spmv(spec.A, x)) <= spec.tol, report.j

    def test_full_orth_converges(self):
        # each full_orth projection was once a nested cg run that left the
        # stage-3 directions far from A-orthogonal to Y: system 7 ran to its
        # cap of n = 2,025 iterations
        seq = gen_diffusion_sequence((45, 45), 12, 0.5, seed=2, tol=1e-8)
        (method,) = [m for m in default_methods(storage_cap=30, precond="jacobi", mode="cg")
                     if m.name == "pod(5,10)it"]
        cfg = dataclasses.replace(method.config, max_iter=300)
        xs, reports, _ = run_sequence(seq, cfg)
        assert len(reports) == seq.p
        for spec, x, report in zip(seq, xs, reports):
            assert report.converged, report.j
            assert np.linalg.norm(spec.b - spmv(spec.A, x)) <= spec.tol, report.j


class TestStage3Breakdown:
    def test_breakdown_is_reported_and_adds_no_directions(self, monkeypatch):
        # system 2's stage 3 breaks down after three iterations: the solve
        # reports it, returns the stage-1 solution, keeps the basis and the
        # weight history as they were, and system 3 solves from that basis
        real = threestage.augmented_pcg
        state = RecycleState.empty(64)

        def breaking(op, *args, **kwargs):
            if isinstance(op, SparseSpdMatrix) and state.systems_seen == 1:
                kwargs["sink"].add_matvec(3)
                return broken_run(op, *args, k=3, **kwargs)
            return real(op, *args, **kwargs)

        monkeypatch.setattr(threestage, "augmented_pcg", breaking)
        seq = gen_diffusion_sequence((8, 8), p=3, delta=0.05, seed=5, tol=1e-8)
        cfg = solver_cfg(precond="jacobi")
        reports = []
        for spec in seq:
            Y, snapshots = state.Y, len(state.history)
            x, report = solve_system(spec.A, spec.b, spec.xbar, state, spec.tol, cfg,
                                     built(cfg, spec.A))
            reports.append(report)
            if report.j == 2:
                assert not report.converged and report.failure == "breakdown"
                assert report.stage3_iters == 3
                assert report.matvecs == Y.shape[1] + 3
                assert state.Y is Y
                assert len(state.history) == snapshots == 1
                assert state.systems_seen == 2
                Ad = spec.A.to_dense()
                galerkin = Y @ np.linalg.solve(Y.T @ Ad @ Y, Y.T @ spec.b)
                assert np.allclose(x, galerkin, rtol=1e-8, atol=0)
                residual = np.linalg.norm(spec.b - Ad @ x)
                assert report.final_residual == pytest.approx(residual, rel=1e-6)
        assert reports[0].converged and reports[0].failure is None
        assert reports[2].converged and reports[2].failure is None

    def test_breakdown_after_stage2_returns_entry_iterate(self, monkeypatch):
        # a system that ran stage 2 and broke down in stage 3 returns Y yhat,
        # yhat the coefficients stage 2 left, and keeps Y and the history
        real = threestage.augmented_pcg
        seq = gen_diffusion_sequence((10, 10), 3, 0.05, seed=5, tol=1e-8)
        state = RecycleState.empty(seq.n)
        stage2 = []

        def breaking(op, *args, **kwargs):
            if isinstance(op, SparseSpdMatrix) and state.systems_seen == 2:
                return broken_run(op, *args, k=2, **kwargs)
            res = real(op, *args, **kwargs)
            if isinstance(op, ReducedSpdOperator):
                stage2.append(res)
            return res

        monkeypatch.setattr(threestage, "augmented_pcg", breaking)
        cfg = solver_cfg(stage1_dim=2, storage_cap=10, precond="ssor:1.7")
        for spec in seq:
            Y, snapshots = state.Y, len(state.history)
            stage2.clear()
            x, report = solve_system(spec.A, spec.b, spec.xbar, state, spec.tol, cfg,
                                     built(cfg, spec.A))
        assert report.failure == "breakdown" and report.stage3_iters == 2
        assert report.stage1_dim == 2 and report.stage2_iters > 0
        (run,) = stage2
        expected = Y @ run.x
        assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)
        assert state.Y is Y and len(state.history) == snapshots
        residual = np.linalg.norm(spec.b - spmv(spec.A, x))
        assert report.final_residual == pytest.approx(residual, rel=1e-6)

    def test_first_system_breakdown_returns_initial_guess(self, monkeypatch):
        def breaking(op, *args, **kwargs):
            return broken_run(op, *args, k=1, **kwargs)

        monkeypatch.setattr(threestage, "augmented_pcg", breaking)
        seq = gen_diffusion_sequence((8, 8), p=1, delta=0.0, seed=5, tol=1e-8)
        spec = seq[0]
        xbar = np.random.default_rng(45).standard_normal(seq.n)
        state = RecycleState.empty(seq.n)
        x, report = solve_system(spec.A, spec.b, xbar, state, spec.tol, solver_cfg())
        assert report.failure == "breakdown"
        assert np.array_equal(x, xbar)
        assert state.basis_dim == 0 and state.systems_seen == 1
        residual = np.linalg.norm(spec.b - spmv(spec.A, xbar))
        assert report.final_residual == pytest.approx(residual, rel=1e-12)

    def test_indefinite_matrix_breaks_down_end_to_end(self):
        # no injection: the symmetric, positive-diagonal, indefinite matrix
        # [[1, 2], [2, 1]] passes the matrix checks, and the entry residual
        # (1, -1) has curvature -2
        A = SparseSpdMatrix.from_dense(np.array([[1.0, 2.0], [2.0, 1.0]]))
        xbar = np.array([1.0, 0.5])
        b = spmv(A, xbar) + np.array([1.0, -1.0])
        state = RecycleState.empty(2)
        x, report = solve_system(A, b, xbar, state, 1e-10, solver_cfg())
        assert report.failure == "breakdown" and not report.converged
        assert report.stage3_iters == 1 and report.matvecs == 2
        assert np.array_equal(report.residual_history, [np.sqrt(2.0)])
        assert np.array_equal(x, xbar)
        assert state.basis_dim == 0 and len(state.history) == 0
        assert state.systems_seen == 1

    @pytest.mark.parametrize("at", [0, 1], ids=["first", "second"])
    @pytest.mark.parametrize("where", ["b", "xbar"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_input_is_reported_and_spends_nothing(self, value, where, at):
        # a NaN or an infinity in b or xbar, on the first system or after a
        # clean one, is reported before any work; the state is kept, and
        # the next clean system solves from it
        seq = gen_diffusion_sequence((10, 10), p=3, delta=0.05, seed=5, tol=1e-8)
        cfg = solver_cfg(strategy="deflate", deflate_dim=5, storage_cap=10, precond="jacobi")
        state = RecycleState.empty(seq.n)
        for spec in seq.systems[:at]:
            _, report = solve_system(spec.A, spec.b, spec.xbar, state, spec.tol, cfg,
                                     built(cfg, spec.A))
            assert report.converged and report.truncated
        spec = seq[at]
        b, xbar = spec.b.copy(), np.zeros(seq.n)
        (b if where == "b" else xbar)[7] = value
        Y, s, snapshots = state.Y, state.stage1_start, len(state.history)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, report = solve_system(spec.A, b, xbar, state, spec.tol, cfg, built(cfg, spec.A))
        assert not report.converged and report.failure == "nonfinite"
        assert report.matvecs == report.precond_applies == 0
        assert report.residual_history is None
        assert np.array_equal(x, xbar, equal_nan=True)
        assert state.Y is Y and state.stage1_start == s and len(state.history) == snapshots
        assert state.systems_seen == report.j == at + 1
        nxt = seq[at + 1]
        _, report = solve_system(nxt.A, nxt.b, nxt.xbar, state, nxt.tol, cfg, built(cfg, nxt.A))
        assert report.converged

    def test_exhausted_budget_reports_its_cause(self):
        seq = gen_diffusion_sequence((8, 8), p=1, delta=0.0, seed=5, tol=1e-12)
        _, reports, _ = run_sequence(seq, solver_cfg(max_iter=2))
        assert not reports[0].converged and reports[0].failure == "budget"

    def test_converged_is_the_absence_of_a_failure(self):
        report = threestage.SolveReport(j=1)
        assert report.converged
        report.failure = "breakdown"
        assert not report.converged
        with pytest.raises(AttributeError):
            report.converged = True


class TestDiagnostics:
    def test_reduced_condition_reported(self):
        seq = gen_diffusion_sequence((7, 7), p=3, delta=0.02, seed=41, tol=1e-8)
        cfg = solver_cfg(diagnostics=True)
        _, reports, _ = run_sequence(seq, cfg)
        assert reports[0].reduced_condition is None  # empty basis
        for r in reports[1:]:
            assert r.reduced_condition is not None
            assert r.reduced_condition < 2.0  # invariant-ish sequence

    @pytest.mark.parametrize("stage1_dim", [None, 3])
    def test_reduced_condition_costs_nothing(self, stage1_dim):
        # the condition number comes from the G = Y'AY the solve formed (or,
        # when stage 1 spans Y, from its products): no matvec is added
        seq = gen_diffusion_sequence((8, 8), p=4, delta=0.05, seed=5, tol=1e-8)
        runs = {}
        for diagnostics in (False, True):
            cfg = solver_cfg(stage1_dim=stage1_dim, storage_cap=10, precond="jacobi",
                             diagnostics=diagnostics)
            runs[diagnostics] = run_sequence(seq, cfg, keep_trace=True)
        (_, plain, _), (_, diag, traces) = runs[False], runs[True]
        assert [r.matvecs for r in plain] == [r.matvecs for r in diag]
        for r, t in zip(diag[1:], traces[1:]):
            G = t.Y_entry.T @ t.A.to_dense() @ t.Y_entry
            assert r.reduced_condition == pytest.approx(np.linalg.cond(G), rel=1e-8)

    def test_checkpoints_track_iterates(self):
        seq = gen_diffusion_sequence((7, 7), p=2, delta=0.02, seed=42, tol=1e-8)
        seq.C = gen_output_matrix(4, seq.n, seed=43)
        second = seq.systems[1]
        xbar = np.random.default_rng(44).standard_normal(seq.n)
        seq.systems[1] = LinearSystemSpec(second.A, second.b, xbar, second.tol)
        xs, reports, _ = run_sequence(seq, solver_cfg(), track_iterates=True)
        cps = reports[1].checkpoints
        stages = [c.stage for c in cps]
        assert stages[0] == "start" and "stage1" in stages and "stage2" in stages
        # the outputs come from one product over the stacked iterates, whose
        # columns round within a few ulp of the one-iterate product
        np.testing.assert_allclose(cps[-1].output, seq.C @ xs[1], rtol=1e-14, atol=0)
        np.testing.assert_allclose(cps[0].output, seq.C @ xbar, rtol=1e-14, atol=0)
        assert all(c.output.shape == (4,) for c in cps)
        times = [c.wall_time for c in cps]
        assert times == sorted(times) and times[-1] <= reports[1].wall_time

    def test_checkpoint_stages(self, monkeypatch):
        # a solve over a basis passes start, stage 1, stage 2 and every
        # stage-3 iterate; the first system and a fallback pass no stage 1
        # or 2
        real_direct = threestage.direct_reduced_solve
        fail = []

        def stage1(*args, **kwargs):
            if fail:
                raise NotPositiveDefinite("injected")
            return real_direct(*args, **kwargs)

        monkeypatch.setattr(threestage, "direct_reduced_solve", stage1)
        seq = gen_diffusion_sequence((7, 7), p=3, delta=0.02, seed=42, tol=1e-8)
        seq.C = gen_output_matrix(4, seq.n, seed=43)
        state = RecycleState.empty(seq.n)
        stages = []
        for spec in seq:
            fail[:] = [True] if len(stages) == 2 else []
            _, report = solve_system(spec.A, spec.b, spec.xbar, state, spec.tol, solver_cfg(),
                                     chalf=seq.C, track_iterates=True)
            assert report.stage1_fallback == bool(fail)
            stage3 = ["stage3"] * (report.stage3_iters + 1)
            stages.append(([c.stage for c in report.checkpoints], stage3))
        (first, first3), (basis, basis3), (fallback, fallback3) = stages
        assert first == ["start"] + first3
        assert basis == ["start", "stage1", "stage2"] + basis3
        assert fallback == ["start"] + fallback3

    def test_track_iterates_needs_output_matrix(self):
        seq = gen_diffusion_sequence((5, 5), p=1, delta=0.0, seed=42, tol=1e-8)
        with pytest.raises(RecyklError):
            run_sequence(seq, solver_cfg(), track_iterates=True)
