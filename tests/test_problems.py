import json
import re

import numpy as np
import pytest
import scipy.io
import scipy.sparse

from recykl.errors import ManifestError, NotSymmetric
from recykl.linalg import SparseSpdMatrix
from recykl.mmio import read_array, read_matrix, write_array, write_symmetric_matrix
from recykl.problems import (
    _diffusion_matrix,
    gen_diffusion_sequence,
    gen_output_matrix,
    load_sequence_manifest,
    write_sequence,
)
from recykl.rng import Xorshift64Star

COORD_HEADER = "%%MatrixMarket matrix coordinate real symmetric\n"
ARRAY_HEADER = "%%MatrixMarket matrix array real general\n"


class TestRng:
    def test_deterministic_stream(self):
        a = Xorshift64Star(7)
        b = Xorshift64Star(7)
        assert [a.next_word() for _ in range(5)] == [b.next_word() for _ in range(5)]

    def test_seed_zero_legal_and_distinct(self):
        assert Xorshift64Star(0).next_word() != Xorshift64Star(1).next_word()

    def test_uniform_range(self):
        u = Xorshift64Star(3).uniforms(1000)
        assert all(0.0 <= x < 1.0 for x in u)
        assert 0.4 < float(np.mean(u)) < 0.6


class TestDiffusionSequence:
    def test_zero_drift_invariant_matrices(self):
        seq = gen_diffusion_sequence((4, 4), p=3, delta=0.0, seed=1)
        ref = seq[0].A.to_dense()
        for sys_spec in seq:
            assert np.array_equal(sys_spec.A.to_dense(), ref)

    def test_single_node_grid_scalar_solution(self):
        seq = gen_diffusion_sequence((1, 1), p=2, delta=0.1, seed=2)
        for sys_spec in seq:
            a = sys_spec.A.to_dense()[0, 0]
            assert a > 0
            assert np.allclose(np.linalg.solve(sys_spec.A.to_dense(), sys_spec.b), sys_spec.b / a)

    def test_matrices_spd_by_cholesky(self):
        seq = gen_diffusion_sequence((7, 5), p=4, delta=0.1, seed=3)
        for sys_spec in seq:
            np.linalg.cholesky(sys_spec.A.to_dense())  # raises if not SPD

    def test_consecutive_relative_difference_small(self):
        p, delta = 20, 0.1
        seq = gen_diffusion_sequence((6, 6), p=p, delta=delta, seed=4)
        for j in range(1, p):
            diff = seq[j].A.to_dense() - seq[j - 1].A.to_dense()
            rel = np.linalg.norm(diff) / np.linalg.norm(seq[j].A.to_dense())
            assert rel <= 10.0 * delta / p

    def test_seed_reproducibility_bit_exact(self):
        a = gen_diffusion_sequence((5, 4), p=3, delta=0.2, seed=9)
        b = gen_diffusion_sequence((5, 4), p=3, delta=0.2, seed=9)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.A.values, sb.A.values)
            assert np.array_equal(sa.b, sb.b)

    def test_bad_grid_rejected(self):
        from recykl.errors import RecyklError

        with pytest.raises(RecyklError):
            gen_diffusion_sequence((0, 3), p=2, delta=0.1)
        with pytest.raises(RecyklError):
            gen_diffusion_sequence((3, 3), p=2, delta=1.0)


def loop_diffusion_matrix(nx, ny, kappa):
    """Node-by-node reference assembly of the five-point stencil."""
    n = nx * ny
    rows, cols, vals = [], [], []
    diag = np.zeros(n)
    for j in range(ny):
        for i in range(nx):
            k = j * nx + i
            for i2, j2 in ((i + 1, j), (i, j + 1)):
                if i2 < nx and j2 < ny:
                    k2 = j2 * nx + i2
                    edge = 0.5 * (kappa[k] + kappa[k2])
                    rows.extend((k, k2))
                    cols.extend((k2, k))
                    vals.extend((-edge, -edge))
                    diag[k] += edge
                    diag[k2] += edge
                else:
                    diag[k] += kappa[k]
            if i == 0:
                diag[k] += kappa[k]
            if j == 0:
                diag[k] += kappa[k]
    rows.extend(range(n))
    cols.extend(range(n))
    vals.extend(diag)
    coo = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(n, n))
    return SparseSpdMatrix.from_scipy(coo.tocsr())


class TestDiffusionMatrix:
    @pytest.mark.parametrize("nx, ny", [(1, 1), (1, 6), (7, 1), (7, 6), (13, 4), (10, 10)])
    def test_matches_loop_reference_bit_for_bit(self, nx, ny):
        kappa = 1.0 + 0.5 * np.random.default_rng(nx * 100 + ny).random(nx * ny)
        got, ref = _diffusion_matrix(nx, ny, kappa), loop_diffusion_matrix(nx, ny, kappa)
        for name in ("row_offsets", "col_indices", "values"):
            a, b = getattr(got, name), getattr(ref, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name


class TestOutputMatrix:
    def test_shape_and_range(self):
        C = gen_output_matrix(100, 30, seed=5)
        assert C.shape == (100, 30)
        assert np.all((C >= 0.0) & (C < 1.0))

    def test_seed_repeatable(self):
        assert np.array_equal(gen_output_matrix(10, 10, seed=6), gen_output_matrix(10, 10, seed=6))

    def test_roughly_uniform_mean(self):
        C = gen_output_matrix(100, 120, seed=7)
        assert 0.45 <= C.mean() <= 0.55


class TestMatrixMarketIO:
    def test_matrix_round_trip_bit_exact(self, tmp_path):
        seq = gen_diffusion_sequence((5, 5), p=1, delta=0.3, seed=8)
        A = seq[0].A
        path = tmp_path / "A.mtx"
        write_symmetric_matrix(path, A)
        back = read_matrix(path)
        assert np.array_equal(back.to_dense(), A.to_dense())

    def test_array_round_trip_bit_exact(self, tmp_path):
        v = np.random.default_rng(10).standard_normal(40)
        path = tmp_path / "b.mtx"
        write_array(path, v)
        assert np.array_equal(read_array(path), v)

    def test_matrix_round_trip_2d_array(self, tmp_path):
        C = gen_output_matrix(6, 9, seed=11)
        path = tmp_path / "C.mtx"
        write_array(path, C)
        assert np.array_equal(read_array(path), C)

    def test_scipy_reads_our_files(self, tmp_path):
        # cross-check the format against an independent reader
        seq = gen_diffusion_sequence((4, 4), p=1, delta=0.2, seed=12)
        A = seq[0].A
        write_symmetric_matrix(tmp_path / "A.mtx", A)
        via_scipy = scipy.io.mmread(tmp_path / "A.mtx").toarray()
        assert np.array_equal(via_scipy, A.to_dense())
        write_array(tmp_path / "b.mtx", seq[0].b)
        assert np.allclose(np.asarray(scipy.io.mmread(tmp_path / "b.mtx")).ravel(), seq[0].b)

    def test_we_read_scipy_files(self, tmp_path):
        A = gen_diffusion_sequence((4, 3), p=1, delta=0.1, seed=13)[0].A
        scipy.io.mmwrite(tmp_path / "A.mtx", scipy.sparse.tril(A.to_scipy()), symmetry="symmetric")
        back = read_matrix(tmp_path / "A.mtx")
        assert np.allclose(back.to_dense(), A.to_dense())

    def test_general_file_reads_as_its_symmetric_twin(self, tmp_path):
        A = gen_diffusion_sequence((4, 3), p=1, delta=0.1, seed=13)[0].A
        write_symmetric_matrix(tmp_path / "sym.mtx", A)
        coo = A.to_scipy().tocoo()
        entries = "".join(f"{i + 1} {j + 1} {float(v)!r}\n"
                          for i, j, v in zip(coo.row, coo.col, coo.data))
        general = tmp_path / "general.mtx"
        general.write_text(f"%%MatrixMarket matrix coordinate real general\n"
                           f"{A.n} {A.n} {coo.nnz}\n{entries}")
        sym, gen = read_matrix(tmp_path / "sym.mtx"), read_matrix(general)
        for attr in ("row_offsets", "col_indices", "values"):
            assert np.array_equal(getattr(gen, attr), getattr(sym, attr)), attr

    def test_asymmetric_general_file_names_file(self, tmp_path):
        bad = tmp_path / "bad.mtx"
        bad.write_text("%%MatrixMarket matrix coordinate real general\n"
                       "2 2 4\n1 1 4.0\n1 2 -1.0\n2 1 -0.5\n2 2 4.0\n")
        with pytest.raises(NotSymmetric, match=re.escape(f"{bad}: ")):
            read_matrix(bad)

    def test_malformed_header_names_file(self, tmp_path):
        bad = tmp_path / "bad.mtx"
        bad.write_text("%%MatrixMarket tensor coordinate real symmetric\n1 1 0\n")
        with pytest.raises(ManifestError, match="bad.mtx"):
            read_matrix(bad)

    def test_malformed_entry_reports_line(self, tmp_path):
        bad = tmp_path / "bad.mtx"
        bad.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 2.0\n2 oops 3.0\n"
        )
        with pytest.raises(ManifestError, match=":4"):
            read_matrix(bad)

    def test_missing_entries_detected(self, tmp_path):
        bad = tmp_path / "bad.mtx"
        bad.write_text("%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 2.0\n")
        with pytest.raises(ManifestError, match="expected 2 entries"):
            read_matrix(bad)

    def test_negative_size_rejected(self, tmp_path):
        bad = tmp_path / "bad.mtx"
        bad.write_text(ARRAY_HEADER + "% c\n-2 1\n")
        with pytest.raises(ManifestError, match=re.escape(f"{bad}:3: ") + "malformed size line"):
            read_array(bad)

    def test_comment_and_blank_lines_between_entries(self, tmp_path):
        path = tmp_path / "A.mtx"
        path.write_text(
            COORD_HEADER + "% size next\n2 2 3\n\n1 1 4.0\n% between\n   \n2 1 -1.0\n2 2 4.0\n\n"
        )
        assert np.array_equal(read_matrix(path).to_dense(), [[4.0, -1.0], [-1.0, 4.0]])

    def test_extra_trailing_tokens_ignored(self, tmp_path):
        path = tmp_path / "A.mtx"
        path.write_text(COORD_HEADER + "2 2 2\n1 1 4.0 junk 7\n2 2 5.0\n")
        assert np.array_equal(read_matrix(path).to_dense(), [[4.0, 0.0], [0.0, 5.0]])
        path = tmp_path / "b.mtx"
        path.write_text(ARRAY_HEADER + "2 1\n1.5 junk\n-2.5\n")
        assert np.array_equal(read_array(path), [1.5, -2.5])

    def test_zero_entries_read_as_empty_matrix(self, tmp_path):
        path = tmp_path / "A.mtx"
        path.write_text(COORD_HEADER + "% nothing stored\n0 0 0\n")
        A = read_matrix(path)
        assert A.n == 0 and A.to_scipy().nnz == 0

    @pytest.mark.parametrize(
        "body, message",
        [
            ("3 3 3\n% c\n1 1 2.0\n2 2 oops\n3 3 1.0\n", "malformed entry"),
            ("3 3 3\n% c\n1 1 2.0\n2 2.5 1.0\n3 3 1.0\n", "malformed entry"),
            ("3 3 3\n% c\n1 1 2.0\n2 2\n3 3 1.0\n", "malformed entry"),
            ("3 3 3\n% c\n1 1 2.0\n4 1 1.0\n3 3 1.0\n", r"index \(4,1\) out of range"),
            ("3 3 1\n% c\n1 1 2.0\n2 2 1.0\n", r"more entries than declared \(1\)"),
        ],
        ids=["malformed-value", "non-integer-index", "short-line", "out-of-range", "too-many"],
    )
    def test_body_error_names_line_counting_comments(self, tmp_path, body, message):
        # lines 2 and 4 are comments, so the first bad line is line 6
        bad = tmp_path / "bad.mtx"
        bad.write_text(COORD_HEADER + "% c\n" + body)
        with pytest.raises(ManifestError, match=re.escape(f"{bad}:6: ") + message):
            read_matrix(bad)

    def test_digit_group_underscores_rejected(self, tmp_path):
        # Python's float() takes "1_0.5" but the body parse does not; the
        # rescan must agree with the parse and still name the line
        bad = tmp_path / "bad.mtx"
        bad.write_text(COORD_HEADER + "2 2 2\n1 1 2.0\n2 2 1_0.5\n")
        with pytest.raises(ManifestError, match=re.escape(f"{bad}:4: ") + "malformed entry"):
            read_matrix(bad)

    def test_array_malformed_value_names_line(self, tmp_path):
        bad = tmp_path / "bad.mtx"
        bad.write_text(ARRAY_HEADER + "% c\n3 1\n1.0\n% c\n\nnope\n2.0\n")
        with pytest.raises(ManifestError, match=re.escape(f"{bad}:7: ") + "malformed value"):
            read_array(bad)

    def test_extreme_values_round_trip_bit_exact(self, tmp_path):
        values = np.array(
            [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -0.0, 0.1, 1 / 3]
        )
        path = tmp_path / "v.mtx"
        write_array(path, values)
        assert np.array_equal(read_array(path).view(np.int64), values.view(np.int64))

    def test_written_bytes_pinned(self, tmp_path):
        A = SparseSpdMatrix.from_dense(np.array([[4.0, -1.0], [-1.0, 0.1]]))
        write_symmetric_matrix(tmp_path / "A.mtx", A)
        assert (tmp_path / "A.mtx").read_bytes() == (
            b"%%MatrixMarket matrix coordinate real symmetric\n"
            b"2 2 3\n1 1 4.0\n2 1 -1.0\n2 2 0.1\n"
        )
        write_array(tmp_path / "b.mtx", np.array([1.0, -0.0, 1 / 3]))
        assert (tmp_path / "b.mtx").read_bytes() == (
            b"%%MatrixMarket matrix array real general\n3 1\n1.0\n-0.0\n0.3333333333333333\n"
        )
        write_array(tmp_path / "C.mtx", np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert (tmp_path / "C.mtx").read_bytes() == (
            b"%%MatrixMarket matrix array real general\n2 2\n1.0\n3.0\n2.0\n4.0\n"
        )


class TestManifest:
    def test_round_trip(self, tmp_path):
        seq = gen_diffusion_sequence((4, 4), p=3, delta=0.2, seed=14)
        seq.C = gen_output_matrix(5, seq.n, seed=15)
        manifest = write_sequence(seq, tmp_path)
        back = load_sequence_manifest(manifest)
        assert back.n == seq.n and back.p == seq.p
        for orig, loaded in zip(seq, back):
            assert np.array_equal(orig.A.to_dense(), loaded.A.to_dense())
            assert np.array_equal(orig.b, loaded.b)
            assert loaded.tol == orig.tol
        assert np.array_equal(back.C, seq.C)

    def test_identity_system_manifest(self, tmp_path):
        from recykl.krylov import augmented_pcg
        from recykl.problems import LinearSystemSpec, SystemSequence

        seq = SystemSequence(
            systems=[
                LinearSystemSpec(
                    A=SparseSpdMatrix.identity(3), b=np.array([1.0, 2.0, 3.0]), xbar=None, tol=1e-12
                )
            ],
        )
        manifest = write_sequence(seq, tmp_path)
        back = load_sequence_manifest(manifest)
        res = augmented_pcg(back[0].A, back[0].b, tol=back[0].tol)
        assert res.k == 1

    def test_dimension_mismatch_detected(self, tmp_path):
        seq = gen_diffusion_sequence((3, 3), p=1, delta=0.1, seed=16)
        manifest = write_sequence(seq, tmp_path)
        import json

        data = json.loads(open(manifest).read())
        data["n"] = 5
        open(manifest, "w").write(json.dumps(data))
        with pytest.raises(ManifestError, match="dimension mismatch"):
            load_sequence_manifest(manifest)

    @pytest.mark.parametrize("tol", ["inf", "nan", 0, -1.0])
    def test_tolerance_must_be_finite_and_positive(self, tmp_path, tol):
        seq = gen_diffusion_sequence((3, 3), p=2, delta=0.1, seed=16)
        manifest = write_sequence(seq, tmp_path)
        import json

        data = json.loads(open(manifest).read())
        data["systems"][1]["tol"] = tol
        open(manifest, "w").write(json.dumps(data))
        with pytest.raises(ManifestError, match="system 2 tolerance"):
            load_sequence_manifest(manifest)

    @pytest.mark.parametrize("key, value", [("matrix", 5), ("rhs", None), ("guess", ["x"]),
                                            ("tol", True), ("output_matrix", 7), ("n", 9.9),
                                            ("n", "9"), ("n", True), ("n", 0)])
    def test_mistyped_value_names_the_system(self, tmp_path, key, value):
        # a file name that is not a string once reached os.path.join, a
        # boolean tolerance was read as 1.0, and int() read an n of 9.9 or
        # "9" as 9 and true as 1, which failed later on a dimension mismatch
        seq = gen_diffusion_sequence((3, 3), p=2, delta=0.1, seed=16)
        manifest = write_sequence(seq, tmp_path)
        data = json.loads(open(manifest).read())
        top_level = key in ("output_matrix", "n")
        (data if top_level else data["systems"][1])[key] = value
        open(manifest, "w").write(json.dumps(data))
        where = "" if top_level else "system 2 "
        with pytest.raises(ManifestError, match=f"{where}'{key}' must be"):
            load_sequence_manifest(manifest)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text('{"n": 3,\n "systems": [}\n')
        with pytest.raises(ManifestError, match="manifest.json:2"):
            load_sequence_manifest(path)
