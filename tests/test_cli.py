import csv
import json

import numpy as np
import pytest

from recykl import bench, threestage
from recykl.cli import main
from recykl.mmio import write_array


@pytest.fixture()
def sequence_dir(tmp_path):
    out = tmp_path / "seq"
    code = main([
        "generate", "--grid", "6", "6", "--systems", "5", "--delta", "0.03",
        "--seed", "9", "--tol", "1e-8", "--outputs", "5", "--out-dir", str(out),
    ])
    assert code == 0
    return out


class TestGenerate:
    def test_reproducible(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["generate", "--grid", "4", "4", "--systems", "2",
                         "--seed", "5", "--out-dir", str(out)]) == 0
        assert (a / "A_001.mtx").read_text() == (b / "A_001.mtx").read_text()
        assert (a / "b_002.mtx").read_text() == (b / "b_002.mtx").read_text()

    def test_invariant_flag(self, tmp_path):
        out = tmp_path / "inv"
        assert main(["generate", "--grid", "3", "3", "--systems", "3",
                     "--delta", "0", "--out-dir", str(out)]) == 0
        assert (out / "A_001.mtx").read_text() == (out / "A_003.mtx").read_text()

    @pytest.mark.parametrize("flags", [["--systems", "0"], ["--systems", "-3"],
                                       ["--tol", "-1"], ["--tol", "nan"]])
    def test_invalid_sequence_exit_3(self, tmp_path, capsys, flags):
        # rejected at the source, before a manifest the loader refuses
        out = tmp_path / "bad"
        assert main(["generate", "--grid", "3", "3", "--out-dir", str(out), *flags]) == 3
        assert flags[1] in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_negative_outputs_exit_3(self, tmp_path, capsys):
        out = tmp_path / "neg"
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--grid", "3", "3", "--outputs", "-2", "--out-dir", str(out)])
        assert exc.value.code == 3
        assert "--outputs" in capsys.readouterr().err
        assert not out.exists()


class TestRun:
    def test_run_writes_reports(self, sequence_dir, tmp_path):
        out = tmp_path / "res"
        code = main(["run", "--manifest", str(sequence_dir / "manifest.json"),
                     "--precond", "jacobi", "--storage-cap", "12",
                     "--out-dir", str(out)])
        assert code == 0
        rows = list(csv.DictReader(open(out / "run_systems.csv")))
        methods = {r["method"] for r in rows}
        assert "pcg" in methods and "no-trunc" in methods
        summary = json.loads((out / "run_summary.json").read_text())
        assert summary["pcg"]["all_converged"]

    def test_diagnostics_fill_reduced_condition(self, sequence_dir, tmp_path):
        spec_path = tmp_path / "methods.json"
        spec_path.write_text(json.dumps([
            {"name": "pod", "truncation": {"strategy": "pod-a-rbf", "storage_cap": 10}},
        ]))
        manifest = str(sequence_dir / "manifest.json")
        for flags, name in (([], "plain"), (["--diagnostics"], "diag")):
            assert main(["run", "--manifest", manifest, "--methods", str(spec_path),
                         "--out-dir", str(tmp_path / name), *flags]) == 0
        plain = list(csv.DictReader(open(tmp_path / "plain" / "run_systems.csv")))
        diag = list(csv.DictReader(open(tmp_path / "diag" / "run_systems.csv")))
        assert all(r["reduced_condition"] == "" for r in plain)
        # the first system has no basis to condition
        assert diag[0]["reduced_condition"] == ""
        assert all(float(r["reduced_condition"]) >= 1.0 for r in diag[1:])
        assert all(r["converged"] == "True" for r in diag)

    def test_methods_file(self, sequence_dir, tmp_path):
        spec_path = tmp_path / "methods.json"
        spec_path.write_text(json.dumps([
            {"name": "only", "truncation": {"strategy": "pod-a-prev",
                                            "nu_w": 0.5, "storage_cap": 10}},
        ]))
        out = tmp_path / "res"
        code = main(["run", "--manifest", str(sequence_dir / "manifest.json"),
                     "--methods", str(spec_path), "--out-dir", str(out)])
        assert code == 0
        rows = list(csv.DictReader(open(out / "run_systems.csv")))
        assert {r["method"] for r in rows} == {"only"}

    def test_tol_sweep(self, sequence_dir, tmp_path):
        spec_path = tmp_path / "methods.json"
        spec_path.write_text(json.dumps([{"name": "plain", "recycle": False}]))
        out = tmp_path / "sweep"
        code = main(["run", "--manifest", str(sequence_dir / "manifest.json"),
                     "--methods", str(spec_path), "--tol-sweep",
                     "--out-dir", str(out)])
        assert code == 0
        sweep = json.loads((out / "sweep_summary.json").read_text())
        assert len(sweep) == 6  # tolerances 1e-1 .. 1e-6
        # each tolerance reaches every system: the tight one iterates longer
        loose, tight = sweep["tol1e-01"]["plain"], sweep["tol1e-06"]["plain"]
        assert loose["total_stage3_iters"] < tight["total_stage3_iters"]

    def test_bad_manifest_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["run", "--manifest", str(missing)]) == 3
        assert "nope.json" in capsys.readouterr().err

    def test_missing_matrix_file_exit_3(self, sequence_dir, tmp_path, capsys):
        (sequence_dir / "A_002.mtx").unlink()
        out = tmp_path / "res"
        code = main(["run", "--manifest", str(sequence_dir / "manifest.json"),
                     "--out-dir", str(out)])
        assert code == 3
        assert "A_002.mtx" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [[], ["--tol-sweep"]])
    def test_empty_manifest_exit_3(self, tmp_path, capsys, flags):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"n": 4, "systems": []}))
        out = tmp_path / "res"
        assert main(["run", "--manifest", str(manifest), "--out-dir", str(out), *flags]) == 3
        assert "lists no systems" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "output-error"])
    def test_empty_methods_file_exit_3(self, sequence_dir, tmp_path, capsys, command):
        spec_path = tmp_path / "methods.json"
        spec_path.write_text("[]")
        out = tmp_path / "res"
        code = main([command, "--manifest", str(sequence_dir / "manifest.json"),
                     "--methods", str(spec_path), "--out-dir", str(out)])
        assert code == 3
        assert "methods.json: methods file must hold a non-empty JSON list" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_usage_error_exit_3(self):
        with pytest.raises(SystemExit) as exc:
            main(["run"])  # missing --manifest
        assert exc.value.code == 3

    def test_mistyped_manifest_value_exit_3(self, sequence_dir, tmp_path, capsys):
        # a non-string file name once escaped os.path.join as a TypeError
        path = sequence_dir / "manifest.json"
        data = json.loads(path.read_text())
        data["systems"][1]["matrix"] = 5
        path.write_text(json.dumps(data))
        out = tmp_path / "res"
        assert main(["run", "--manifest", str(path), "--out-dir", str(out)]) == 3
        assert "system 2 'matrix' must be a file name, got 5" in capsys.readouterr().err
        assert not out.exists()

    def test_non_integer_dimension_exit_3(self, sequence_dir, tmp_path, capsys):
        # int() once read an n of 36.5 as 36 and loaded the sequence
        path = sequence_dir / "manifest.json"
        data = json.loads(path.read_text())
        data["n"] += 0.5
        path.write_text(json.dumps(data))
        out = tmp_path / "res"
        assert main(["run", "--manifest", str(path), "--out-dir", str(out)]) == 3
        assert f"'n' must be a positive integer, got {data['n']}" in capsys.readouterr().err
        assert not out.exists()


class TestNonFiniteInput:
    FILES = {"matrix": "A_002.mtx", "rhs": "b_002.mtx", "guess": "x_002.mtx",
             "output": "C.mtx"}

    @pytest.mark.parametrize("kind", list(FILES))
    @pytest.mark.parametrize("value", ["nan", "-inf"])
    def test_non_finite_value_exit_3(self, sequence_dir, tmp_path, capsys, kind, value):
        manifest_path = sequence_dir / "manifest.json"
        if kind == "guess":
            manifest = json.loads(manifest_path.read_text())
            manifest["systems"][1]["guess"] = "x_002.mtx"
            manifest_path.write_text(json.dumps(manifest))
            write_array(sequence_dir / "x_002.mtx", np.ones(36))
        path = sequence_dir / self.FILES[kind]
        lines = path.read_text().splitlines(keepends=True)
        # line 4 is the second body line; its last token is a value
        lines[3] = " ".join(lines[3].split()[:-1] + [value]) + "\n"
        path.write_text("".join(lines))
        out = tmp_path / "res"
        code = main(["run", "--manifest", str(manifest_path), "--out-dir", str(out)])
        assert code == 3
        assert f"{self.FILES[kind]}:4: non-finite value '{value}'" in capsys.readouterr().err
        assert not out.exists()


class TestOutputError:
    def test_writes_csv(self, sequence_dir, tmp_path):
        out = tmp_path / "oe"
        code = main(["output-error", "--manifest", str(sequence_dir / "manifest.json"),
                     "--storage-cap", "12", "--taus", "1e-2", "1e-6", "1e-30",
                     "--out-dir", str(out)])
        assert code == 0
        rows = list(csv.DictReader(open(out / "output_error.csv")))
        assert {r["tau"] for r in rows} == {"0.01", "1e-06", "1e-30"}
        # a threshold no system met has blank averages
        for r in rows:
            unmet = r["systems_met"] == "0"
            assert unmet == (r["tau"] == "1e-30")
            assert (r["avg_matvecs"] == r["avg_wall_ms"] == "") == unmet

    @pytest.mark.parametrize("tau", ["nan", "0", "-0.001"])
    def test_non_positive_tau_exit_3(self, sequence_dir, tmp_path, capsys, tau):
        out = tmp_path / "oe"
        code = main(["output-error", "--manifest", str(sequence_dir / "manifest.json"),
                     "--taus", "1e-2", tau, "--out-dir", str(out)])
        assert code == 3
        assert "thresholds must be positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("tau", ["-1e-3", "-1E-3", "-.1e-2"])
    def test_negative_tau_in_exponent_form_names_it(self, sequence_dir, tmp_path, capsys, tau):
        # argparse alone would take "-1e-3" for an unknown option
        out = tmp_path / "oe"
        code = main(["output-error", "--manifest", str(sequence_dir / "manifest.json"),
                     "--taus", "1e-2", tau, "--out-dir", str(out)])
        assert code == 3
        assert "thresholds must be positive, got -0.001" in capsys.readouterr().err
        assert not out.exists()

    def test_no_output_matrix_rejected(self, tmp_path):
        out = tmp_path / "noc"
        assert main(["generate", "--grid", "4", "4", "--systems", "2",
                     "--out-dir", str(out)]) == 0
        code = main(["output-error", "--manifest", str(out / "manifest.json"),
                     "--out-dir", str(tmp_path / "r")])
        assert code == 3


class TestWeightStudyCmd:
    def test_runs(self, tmp_path):
        seqdir = tmp_path / "seq11"
        assert main(["generate", "--grid", "6", "6", "--systems", "7",
                     "--seed", "2", "--tol", "1e-9", "--out-dir", str(seqdir)]) == 0
        out = tmp_path / "ws"
        code = main(["weight-study", "--manifest", str(seqdir / "manifest.json"),
                     "--warmup", "6", "--dims", "3", "6", "--out-dir", str(out)])
        assert code == 0
        rows = list(csv.DictReader(open(out / "weight_study.csv")))
        assert len(rows) == 6  # 3 schemes x 2 dims


class TestVerifyBounds:
    def test_small_batch(self, tmp_path):
        out = tmp_path / "vb"
        code = main(["verify-bounds", "--instances", "3", "--seed", "4",
                     "--out-dir", str(out)])
        assert code == 0
        reports = json.loads((out / "bound_checks.json").read_text())
        assert all(r["satisfied"] for r in reports)
        kinds = {r["check"] for r in reports}
        assert "weight-gap" in kinds and "reduced-conditioning" in kinds
        assert any(k.startswith("subspace-distance-") for k in kinds)

    def test_negative_instances_exit_3(self, tmp_path, capsys):
        out = tmp_path / "vb"
        with pytest.raises(SystemExit) as exc:
            main(["verify-bounds", "--instances", "-3", "--out-dir", str(out)])
        assert exc.value.code == 3
        assert "--instances" in capsys.readouterr().err
        assert not out.exists()


class TestPrecondOverride:
    def test_cli_flag_overrides_methods_file(self, tmp_path, sequence_dir):
        spec_path = tmp_path / "methods.json"
        spec_path.write_text(json.dumps([{"name": "plain", "recycle": False,
                                          "precond": "identity"}]))
        out = tmp_path / "res"
        code = main(["run", "--manifest", str(sequence_dir / "manifest.json"),
                     "--methods", str(spec_path), "--precond", "jacobi",
                     "--out-dir", str(out)])
        assert code == 0
        rows = list(csv.DictReader(open(out / "run_systems.csv")))
        # jacobi applied: preconditioner applications equal stage-3 iterations
        assert all(int(r["precond_apps"]) == int(r["stage3_iters"]) for r in rows)

    def test_weight_flag_subset(self, tmp_path):
        seqdir = tmp_path / "seq"
        assert main(["generate", "--grid", "5", "5", "--systems", "5",
                     "--seed", "8", "--tol", "1e-9", "--out-dir", str(seqdir)]) == 0
        out = tmp_path / "ws"
        code = main(["weight-study", "--manifest", str(seqdir / "manifest.json"),
                     "--warmup", "4", "--dims", "3", "--weights", "prev", "rbf",
                     "--out-dir", str(out)])
        assert code == 0
        rows = list(csv.DictReader(open(out / "weight_study.csv")))
        assert {r["scheme"] for r in rows} == {"prev", "rbf"}


class TestExitCodes:
    @pytest.mark.parametrize("command", ["run", "output-error"])
    def test_threads_flag_gone_exit_3(self, tmp_path, sequence_dir, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--manifest", str(sequence_dir / "manifest.json"),
                  "--threads", "2", "--out-dir", str(tmp_path / "res")])
        assert exc.value.code == 3

    @pytest.mark.parametrize("flags", [["--warmup", "-2"], ["--dims", "-3"]])
    def test_bad_weight_study_sizes_exit_3(self, tmp_path, sequence_dir, flags, capsys):
        code = main(["weight-study", "--manifest", str(sequence_dir / "manifest.json"),
                     *flags, "--out-dir", str(tmp_path / "ws")])
        assert code == 3
        assert ">= 1" in capsys.readouterr().err
        assert not (tmp_path / "ws" / "weight_study.csv").exists()

    @pytest.mark.parametrize("command", ["run", "output-error"])
    @pytest.mark.parametrize("entry, flags", [
        ({"name": "bad", "precond": "ssor:abc"}, []),
        ({"name": "pod"}, ["--precond", "ssor:2.5"]),
    ], ids=["methods-file", "precond-flag"])
    def test_malformed_precond_exit_3_before_any_solve(
            self, tmp_path, sequence_dir, capsys, monkeypatch, command, entry, flags):
        calls = []
        solve, reference = threestage.solve_system, bench.dense_solutions
        monkeypatch.setattr(threestage, "solve_system",
                            lambda *a, **kw: calls.append("solve") or solve(*a, **kw))
        monkeypatch.setattr(bench, "dense_solutions",
                            lambda seq: calls.append("reference") or reference(seq))
        spec_path = tmp_path / "methods.json"
        spec_path.write_text(json.dumps([{"name": "plain", "recycle": False}, entry]))
        out = tmp_path / "res"
        code = main([command, "--manifest", str(sequence_dir / "manifest.json"),
                     "--methods", str(spec_path), *flags, "--out-dir", str(out)])
        assert code == 3
        assert "SSOR relaxation" in capsys.readouterr().err
        assert calls == [] and not out.exists()

    def test_small_storage_cap_roster(self, sequence_dir, tmp_path):
        # at a cap under 12 the roster has no split methods, and every
        # method gets its own summary key
        out = tmp_path / "res"
        code = main(["run", "--manifest", str(sequence_dir / "manifest.json"),
                     "--storage-cap", "10", "--out-dir", str(out)])
        assert code == 0
        summary = json.loads((out / "run_summary.json").read_text())
        assert list(summary) == ["pcg", "no-trunc", "df(5,0)", "pod(5,0)"]

    def test_storage_cap_below_two_exit_3(self, sequence_dir, tmp_path, capsys):
        out = tmp_path / "res"
        code = main(["run", "--manifest", str(sequence_dir / "manifest.json"),
                     "--storage-cap", "1", "--out-dir", str(out)])
        assert code == 3
        assert "storage cap must be at least 2, got 1" in capsys.readouterr().err
        assert not out.exists()

    def test_duplicate_method_name_exit_3(self, sequence_dir, tmp_path, capsys):
        spec_path = tmp_path / "methods.json"
        spec_path.write_text(json.dumps([{"name": "plain", "recycle": False},
                                         {"name": "plain", "mode": "cg"}]))
        out = tmp_path / "res"
        code = main(["run", "--manifest", str(sequence_dir / "manifest.json"),
                     "--methods", str(spec_path), "--out-dir", str(out)])
        assert code == 3
        assert "'plain' appears more than once" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "output-error"])
    def test_storage_cap_with_methods_file_exit_3(self, tmp_path, sequence_dir, capsys,
                                                   command):
        spec_path = tmp_path / "methods.json"
        spec_path.write_text(json.dumps([{"name": "plain", "recycle": False}]))
        out = tmp_path / "res"
        code = main([command, "--manifest", str(sequence_dir / "manifest.json"),
                     "--methods", str(spec_path), "--storage-cap", "12",
                     "--out-dir", str(out)])
        assert code == 3
        assert "--storage-cap" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_ssor_spec_exit_3(self, tmp_path, sequence_dir, capsys):
        code = main(["run", "--manifest", str(sequence_dir / "manifest.json"),
                     "--precond", "ssor:abc", "--out-dir", str(tmp_path / "res")])
        assert code == 3
        assert "SSOR relaxation" in capsys.readouterr().err

    def test_not_converged_exit_2(self, tmp_path, sequence_dir):
        spec_path = tmp_path / "methods.json"
        spec_path.write_text(json.dumps([{"name": "starved", "recycle": False,
                                          "max_iter": 2}]))
        out = tmp_path / "res"
        code = main(["run", "--manifest", str(sequence_dir / "manifest.json"),
                     "--methods", str(spec_path), "--out-dir", str(out)])
        assert code == 2
        rows = list(csv.DictReader(open(out / "run_systems.csv")))
        assert len(rows) == 5  # flagged rows still written, run continued

    def test_output_error_not_converged_exit_2(self, tmp_path):
        seqdir = tmp_path / "seq10"
        assert main(["generate", "--grid", "10", "10", "--systems", "3",
                     "--outputs", "5", "--out-dir", str(seqdir)]) == 0
        spec_path = tmp_path / "methods.json"
        spec_path.write_text(json.dumps([{"name": "capped", "max_iter": 2,
                                          "truncation": {"strategy": "none"}}]))
        out = tmp_path / "oe"
        code = main(["output-error", "--manifest", str(seqdir / "manifest.json"),
                     "--methods", str(spec_path), "--out-dir", str(out)])
        assert code == 2
        rows = list(csv.DictReader(open(out / "output_error.csv")))
        assert rows and all(int(r["systems_converged"]) < int(r["systems"]) for r in rows)

    @pytest.mark.parametrize("entry, key", [
        ({"precondd": "ssor:1.7"}, "precondd"),
        ({"tolerances": {"eps_hat": 1e-3}}, "eps_hat"),
        ({"truncation": {"strategy": "none", "storage_capp": 10}}, "storage_capp"),
        ({"mode": "gmres"}, "gmres"),
        ("pcg", "pcg"),
        ({"truncation": "none"}, "truncation"),
        ({"max_iter": "ten"}, "max_iter"),
        ({"max_iter": -1}, "max_iter"),
        ({"truncation": {"strategy": "pod-a-rbf", "max_dim": "5", "storage_cap": 10}},
         "max_dim"),
        ({"recycle": "no"}, "recycle"),
        ({"truncation": {"strategy": "deflate", "deflate_dim": 0, "storage_cap": 10}},
         "deflate_dim"),
        ({"truncation": {"strategy": "deflate:five", "storage_cap": 10}}, "deflate:five"),
        ({"truncation": {"strategy": "pod-a-rbf", "max_dim": 0, "storage_cap": 10}},
         "max_dim"),
        ({"truncation": {"strategy": "pod-a-rbf", "stage1_dim": -2, "storage_cap": 10}},
         "stage1_dim"),
        ({"tolerances": {"eps_hat_factor": -1}}, "eps_hat_factor"),
        pytest.param({"tolerances": {"eps_inner_factor": 1e-2}},
                     "unknown key 'eps_inner_factor'", id="entry15-eps_inner_factor"),
        pytest.param({"truncation": {"strategy": "pod-a-rbf", "storage_cap": float("nan")}},
                     "storage cap", id="nan-storage-cap"),
        pytest.param(b'[{"name": "unclosed"', "methods.json:1: invalid JSON", id="invalid-json"),
        pytest.param(None, "methods.json: cannot read methods file", id="missing-file"),
        pytest.param({"truncation": {"strategy": "deflate:7", "deflate_dim": 5}},
                     "'deflate:7'", id="deflate-count-in-strategy"),
        pytest.param({"truncation": {"storage_cap": "inf"}}, "'storage_cap'",
                     id="storage-cap-string"),
        pytest.param({"truncation": {"storage_cap": None}}, "'storage_cap'",
                     id="storage-cap-null"),
    ])
    def test_bad_methods_file_exit_3(self, tmp_path, sequence_dir, capsys, entry, key):
        # an entry that is not an object is written as it is, bytes are the
        # whole file, and None leaves the file missing
        spec_path = tmp_path / "methods.json"
        if isinstance(entry, bytes):
            spec_path.write_bytes(entry)
        elif entry is not None:
            spec_path.write_text(json.dumps([{"name": "typo", **entry}
                                             if isinstance(entry, dict) else entry]))
        out = tmp_path / "res"
        code = main(["run", "--manifest", str(sequence_dir / "manifest.json"),
                     "--methods", str(spec_path), "--out-dir", str(out)])
        assert code == 3
        assert key in capsys.readouterr().err
        assert not out.exists()
