import dataclasses
import json

import numpy as np
import pytest

from recykl import bench, preconditioners
from recykl.bench import (
    MethodSpec,
    default_methods,
    dense_solutions,
    load_methods_file,
    output_error_run,
    run_methods,
    weight_study,
    write_run_outputs,
    write_rows_csv,
)
from recykl.errors import RecyklError
from recykl.problems import gen_diffusion_sequence, gen_output_matrix
from recykl.threestage import SolverConfig, run_sequence
from recykl.truncation import TruncationConfig


def count_builds(monkeypatch, events=None):
    """The (kind, matrix id) of every preconditioner build from here on.

    Each build also appends "build" to ``events`` when it is given.
    """
    builds = []
    build = preconditioners.build

    def counting(kind, A):
        builds.append((kind, id(A)))
        if events is not None:
            events.append("build")
        return build(kind, A)

    monkeypatch.setattr(preconditioners, "build", counting)
    return builds


@pytest.fixture(scope="module")
def small_seq():
    seq = gen_diffusion_sequence((8, 8), p=5, delta=0.03, seed=60, tol=1e-8)
    seq.C = gen_output_matrix(10, seq.n, seed=61)
    return seq


class TestMethodSpec:
    def test_from_dict_round_trip(self):
        raw = {
            "name": "pod-test",
            "truncation": {"strategy": "pod-a-rbf", "nu_y": 0.99, "nu_w": 0.5,
                           "storage_cap": 30, "max_dim": 20, "full_orth": True},
            "mode": "cg",
            "precond": "ssor:1.5",
            "tolerances": {"eps_hat_factor": 1e-5},
        }
        spec = MethodSpec.from_dict(raw)
        assert spec.config.truncation.full_orth
        assert spec.config.mode == "cg"
        assert spec.config.precond == "ssor:1.5"
        assert spec.config.eps_hat_factor == 1e-5
        # keys left out of the file keep the solver defaults
        plain = MethodSpec.from_dict({"name": "plain"}).config
        assert plain.precond == "identity"
        assert plain.eps_hat_factor == 1e-4

    def test_name_only_entry_is_default_config(self):
        assert MethodSpec.from_dict({"name": "plain"}).config == SolverConfig()
        with pytest.raises(RecyklError, match="'unknown'"):
            MethodSpec.from_dict({"name": "plain", "unknown": 1})

    def test_every_truncation_field_is_a_key(self):
        # the keys are read off the dataclass: each field, set to a value
        # other than its default, reaches the config
        values = {"strategy": "deflate", "nu_y": 0.9, "nu_w": 0.25, "storage_cap": 12,
                  "full_orth": True, "deflate_dim": 4, "max_dim": 6, "stage1_dim": 2}
        assert set(values) == {f.name for f in dataclasses.fields(TruncationConfig)}
        config = MethodSpec.from_dict({"name": "all", "truncation": values}).config
        assert config.truncation == TruncationConfig(**values) != TruncationConfig()

    def test_deflate_strategy_string(self):
        # the count has one spelling, deflate_dim; "deflate:<m>" is no strategy
        spec = MethodSpec.from_dict({"name": "df", "truncation": {"strategy": "deflate",
                                                                  "deflate_dim": 7}})
        assert spec.config.truncation.deflate_dim == 7
        with pytest.raises(RecyklError, match="'deflate:7'"):
            MethodSpec.from_dict({"name": "df", "truncation": {"strategy": "deflate:7",
                                                               "deflate_dim": 5}})

    def test_missing_name_rejected(self):
        with pytest.raises(RecyklError):
            MethodSpec.from_dict({"truncation": {}})

    def test_load_methods_file(self, tmp_path):
        path = tmp_path / "methods.json"
        path.write_text(json.dumps([{"name": "plain", "recycle": False}]))
        specs = load_methods_file(path)
        assert specs[0].name == "plain" and not specs[0].config.recycle

    def test_default_roster_names(self):
        names = [m.name for m in default_methods(storage_cap=20)]
        assert names[0] == "pcg" and "no-trunc" in names
        assert any(n.startswith("df(") for n in names)
        assert any(n.endswith(")it") for n in names)

    @pytest.mark.parametrize("cap", [2, 3, 10, 11, 12, 50])
    def test_default_roster_names_unique(self, cap):
        # below a cap of 12 the split methods would keep all their columns
        # in the stage-1 block, the same method as pod(k,0): they are left out
        names = [m.name for m in default_methods(storage_cap=cap, include_output_metric=True)]
        r = cap // 2
        pods = [[f"{p}({r},0)", f"{p}(5,{r - 5})", f"{p}(5,{r - 5})it"] for p in ("pod", "pod-ctc")]
        if cap < 12:
            pods = [kept[:1] for kept in pods]
        assert names == ["pcg", "no-trunc", f"df({r},0)", *pods[0], *pods[1]]
        assert len(set(names)) == len(names)

    @pytest.mark.parametrize("cap", [1, 0])
    def test_storage_cap_below_two_rejected(self, cap):
        with pytest.raises(RecyklError, match=f"storage cap must be at least 2, got {cap}"):
            default_methods(storage_cap=cap)

    def test_duplicate_method_names_rejected(self, tmp_path):
        path = tmp_path / "methods.json"
        path.write_text(json.dumps([{"name": "a", "recycle": False}, {"name": "b"},
                                    {"name": "a"}]))
        with pytest.raises(RecyklError, match="'a' appears more than once"):
            load_methods_file(path)


class TestRunMethods:
    def test_threads_other_than_one_rejected(self, small_seq):
        with pytest.raises(RecyklError, match="threads must be 1"):
            run_methods(small_seq, default_methods(storage_cap=16)[:2], threads=2)

    def test_tol_override(self, small_seq):
        # the tolerance run_methods solves to is each system's own
        methods = [default_methods(storage_cap=16)[0]]  # plain pcg

        def with_tol(tol):
            return dataclasses.replace(
                small_seq, systems=[dataclasses.replace(s, tol=tol) for s in small_seq.systems])

        loose = run_methods(with_tol(1e-2), methods)[0]
        tight = run_methods(with_tol(1e-10), methods)[0]
        assert sum(r.stage3_iters for r in loose.reports) < sum(
            r.stage3_iters for r in tight.reports
        )

    def test_default_roster_builds_once_per_matrix(self, small_seq, monkeypatch):
        # every build lands before the first method runs, outside its sequence
        events = []
        builds = count_builds(monkeypatch, events)
        sequence = bench.run_sequence
        monkeypatch.setattr(bench, "run_sequence",
                            lambda *a, **kw: events.append("run") or sequence(*a, **kw))
        methods = default_methods(storage_cap=12, precond="ssor:1.7")
        run_methods(small_seq, methods)
        assert builds == [("ssor:1.7", id(s.A)) for s in small_seq]
        assert events == ["build"] * small_seq.p + ["run"] * len(methods)

    def test_one_build_per_kind_and_matrix(self, small_seq, monkeypatch):
        builds = count_builds(monkeypatch)
        methods = [dataclasses.replace(m, name=m.config.precond) for m in (
            default_methods(storage_cap=12, precond=kind)[1]
            for kind in ("identity", "jacobi", "ssor:1.7", "jacobi"))]
        run_methods(small_seq, methods)
        assert len(builds) == 2 * small_seq.p
        assert set(builds) == {(kind, id(s.A)) for kind in ("jacobi", "ssor:1.7")
                               for s in small_seq}

    def test_shared_preconditioners_match_each_method_alone(self, small_seq):
        methods = [MethodSpec(f"{m.name}-{kind}", m.config)
                   for kind in ("identity", "jacobi", "ssor:1.7")
                   for m in default_methods(storage_cap=12, precond=kind)]
        runs = run_methods(small_seq, methods, keep_solutions=True)
        for run in runs:
            xs, reports, _ = run_sequence(small_seq, run.method.config, stop_on_failure=False)
            assert len(run.reports) == len(reports) == small_seq.p
            for shared, alone in zip(run.reports, reports):
                assert (shared.matvecs, shared.precond_applies, shared.stage2_iters,
                        shared.stage3_iters) == (alone.matvecs, alone.precond_applies,
                                                 alone.stage2_iters, alone.stage3_iters)
                assert np.array_equal(shared.residual_history, alone.residual_history)
                if alone.stage2_residual_history is not None:
                    assert np.array_equal(shared.stage2_residual_history,
                                          alone.stage2_residual_history)
            for x_shared, x_alone in zip(run.solutions, xs):
                assert np.array_equal(x_shared, x_alone)

    def test_write_outputs_schema(self, small_seq, tmp_path):
        methods = default_methods(storage_cap=16)[:2]
        runs = run_methods(small_seq, methods)
        paths = write_run_outputs(runs, tmp_path)
        header = open(paths["systems"]).readline().strip().split(",")
        assert header == ["method", "j", "matvecs", "precond_apps", "stage1_dim",
                          "stage2_iters", "stage3_iters", "wall_ms", "final_residual",
                          "converged", "failure", "stage2_converged", "rank_truncated",
                          "reduced_condition"]
        summary = json.loads(open(paths["summary"]).read())
        assert set(summary) == {m.name for m in methods}


class TestOutputErrorRun:
    def test_threads_other_than_one_rejected(self, small_seq):
        with pytest.raises(RecyklError, match="threads must be 1"):
            output_error_run(small_seq, default_methods(storage_cap=16)[:2], [1e-3],
                             threads=2)

    def test_reference_solutions_solve_each_system(self, small_seq):
        xstars = dense_solutions(small_seq)
        assert len(xstars) == small_seq.p
        for spec, xstar in zip(small_seq.systems, xstars, strict=True):
            residual = spec.b - spec.A.to_scipy() @ xstar
            assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(spec.b)

    def test_reference_outputs_formed_once_per_system(self, monkeypatch, small_seq):
        # C x* is one product per system, shared by every method's rows
        products = []

        class Reference(np.ndarray):
            def __rmatmul__(self, other):
                products.append(other.shape)
                return other @ self.view(np.ndarray)

        solve = bench.dense_solutions
        monkeypatch.setattr(bench, "dense_solutions",
                            lambda seq: [x.view(Reference) for x in solve(seq)])
        methods = default_methods(storage_cap=16)[:3]
        rows = output_error_run(small_seq, methods, [1e-3, np.inf])
        assert len(rows) == 2 * len(methods)
        assert products == [small_seq.C.shape] * small_seq.p

    def test_infinite_tau_zero_cost(self, small_seq):
        methods = [default_methods(storage_cap=16)[1]]  # no-trunc
        rows = output_error_run(small_seq, methods, [np.inf])
        assert rows[0]["avg_matvecs"] == 0.0
        assert rows[0]["avg_precond_apps"] == 0.0
        assert rows[0]["systems_met"] == small_seq.p

    def test_unmet_threshold_has_no_average(self, small_seq):
        # no checkpoint meets 1e-30: the row says so with systems_met 0 and
        # averages None, not the zero cost of a threshold met at the start
        methods = default_methods(storage_cap=16)[:2]
        rows = output_error_run(small_seq, methods, [1e-30, np.inf])
        for row in rows:
            met = row["tau"] == np.inf
            assert row["systems_met"] == (small_seq.p if met else 0)
            for key in ("avg_matvecs", "avg_precond_apps", "avg_wall_ms"):
                assert (row[key] is None) == (not met), (row["method"], key)

    @pytest.mark.parametrize("tau", [float("nan"), 0.0, -1e-3])
    def test_non_positive_tau_rejected(self, small_seq, tau):
        with pytest.raises(RecyklError, match="thresholds must be positive"):
            output_error_run(small_seq, default_methods(storage_cap=16)[:1], [1e-3, tau])

    def test_exact_recycling_met_before_stage3(self):
        seq = gen_diffusion_sequence((7, 7), p=3, delta=0.0, seed=62, tol=1e-10,
                                     load_drift=0.0)
        seq.C = gen_output_matrix(8, seq.n, seed=63)
        methods = [default_methods(storage_cap=100)[1]]
        rows = output_error_run(seq, methods, [1e-6])
        row = rows[0]
        # systems 2..p meet the threshold at stage 1, so the average number
        # of preconditioner applications sits below one full solve's worth
        assert row["systems_met"] == seq.p
        assert row["avg_precond_apps"] < row["avg_matvecs"]

    def test_requires_output_matrix(self):
        seq = gen_diffusion_sequence((5, 5), p=2, delta=0.0, seed=64)
        with pytest.raises(RecyklError):
            output_error_run(seq, default_methods(storage_cap=8)[:1], [1e-3])


class TestWeightStudy:
    def test_small_protocol(self):
        seq = gen_diffusion_sequence((8, 8), p=6, delta=0.03, seed=65, tol=1e-9)
        rows = weight_study(seq, dims=[3, 6], warmup=5)
        schemes = {r["scheme"] for r in rows}
        assert schemes == {"ideal", "prev", "rbf"}
        assert all(r["stage2_residual"] > 0 for r in rows)

    def test_one_build_per_matrix(self, monkeypatch):
        # the 39 trial solves on the target share its one preconditioner
        builds = count_builds(monkeypatch)
        solves = []
        solve = bench.solve_system
        monkeypatch.setattr(bench, "solve_system",
                            lambda *a, **kw: solves.append(a[6:]) or solve(*a, **kw))
        seq = gen_diffusion_sequence((12, 12), p=12, delta=0.03, seed=68, tol=1e-8)
        rows = weight_study(seq, warmup=10, precond="ssor:1.7")
        assert builds == [("ssor:1.7", id(s.A)) for s in seq.systems[:11]]
        assert len(rows) == len(solves) - 10 == 39
        assert len({id(M) for M, in solves[10:]}) == 1

    def test_full_rank_truncation_identical_residuals(self):
        # keeping the whole block makes the weight choice irrelevant
        seq = gen_diffusion_sequence((6, 6), p=4, delta=0.02, seed=66, tol=1e-9)
        rows = weight_study(seq, dims=[200], warmup=3)
        # the block spans the whole space here, so every scheme's Galerkin
        # solve is exact and the residuals all sit at roundoff level
        assert all(r["stage2_residual"] <= 1e-10 for r in rows)
        assert all(r["stage3_iters"] == 0 for r in rows)

    def test_needs_enough_systems(self):
        seq = gen_diffusion_sequence((5, 5), p=3, delta=0.0, seed=67)
        with pytest.raises(RecyklError):
            weight_study(seq, warmup=5)

    @pytest.mark.parametrize("warmup", [0, -2])
    def test_warmup_below_one_rejected(self, warmup):
        # unchecked, a negative warmup would slice systems[:warmup] and pick
        # its target from the end of the sequence
        seq = gen_diffusion_sequence((5, 5), p=4, delta=0.0, seed=67)
        with pytest.raises(RecyklError, match="warmup >= 1"):
            weight_study(seq, warmup=warmup)

    @pytest.mark.parametrize("dims", [[0], [3, -3]])
    def test_dims_below_one_rejected(self, dims):
        # unchecked, a negative dim would solve over pod.columns[:, :dim]
        seq = gen_diffusion_sequence((5, 5), p=4, delta=0.0, seed=67)
        with pytest.raises(RecyklError, match="dims must be >= 1"):
            weight_study(seq, dims=dims, warmup=2)

    def test_unknown_scheme_rejected_before_any_solve(self, monkeypatch):
        # the schemes are checked up front, not after the warm-up solves
        calls = []

        def solve(*args, **kwargs):
            calls.append(args)
            raise AssertionError("a system was solved")

        monkeypatch.setattr(bench, "solve_system", solve)
        seq = gen_diffusion_sequence((5, 5), p=4, delta=0.0, seed=67)
        with pytest.raises(RecyklError, match="unknown scheme 'bogus'"):
            weight_study(seq, warmup=2, schemes=("ideal", "bogus"))
        assert calls == []

    def test_write_rows(self, tmp_path):
        rows = [{"a": 1, "b": 2.5}]
        path = tmp_path / "rows.csv"
        write_rows_csv(rows, path)
        assert open(path).read().splitlines() == ["a,b", "1,2.5"]
