"""Kernel micro-benchmarks (pytest-benchmark).

Run from the repository root with one BLAS thread, so that small GEMVs do
not stall on thread hand-off:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest tests/bench_kernels.py

The file name does not match ``test_*.py``, so the test suite does not
collect it.  Covered kernels: the sparse matvec, one SSOR preconditioner
build and one apply (relaxation 1.7) on a 100x100 diffusion matrix, the Gram assembly
B'AB of a C-ordered block of m in {10, 50, 200} columns against the same
matrix (n = 10,000), one ``mode="fom"`` re-orthogonalization step against k
A-orthonormal stored directions at n = 3600 (the one-sweep step, and the
step whose first sweep cancels and that sweeps twice, with the two-sweep
modified Gram-Schmidt loop alongside for comparison), the outputs C x of
K in {10, 25, 60} checkpoint iterates at q = 100, n = 3600 (one GEMM over
the stacked iterates, with the per-checkpoint GEMVs it replaced alongside),
a dense SPD solve through a 50x50 Cholesky factor, and the Matrix Market
readers on the written 100x100 diffusion matrix and on a 10,000-value
vector.
"""

import numpy as np
import pytest

from helpers import make_spd_dense, mgs2_a_orthogonalize
from recykl import preconditioners
from recykl.krylov import _DirectionStore
from recykl.linalg import InstrumentationSink, assemble_gram, dense_cholesky, spmv
from recykl.mmio import read_array, read_matrix, write_array, write_symmetric_matrix
from recykl.problems import gen_diffusion_sequence


@pytest.fixture(scope="module")
def diffusion_100():
    return gen_diffusion_sequence((100, 100), 2, 0.05, seed=1).systems[0].A


def test_spmv_100x100(benchmark, diffusion_100):
    x = np.random.default_rng(1).standard_normal(diffusion_100.n)
    benchmark(spmv, diffusion_100, x)


def test_ssor_build_100x100(benchmark, diffusion_100):
    benchmark(preconditioners.build, "ssor:1.7", diffusion_100)


def test_ssor_apply_100x100(benchmark, diffusion_100):
    M = preconditioners.build("ssor:1.7", diffusion_100)
    r = np.random.default_rng(2).standard_normal(diffusion_100.n)
    benchmark(M.apply, r)


@pytest.mark.parametrize("m", [10, 50, 200])
def test_assemble_gram(benchmark, diffusion_100, m):
    B = np.random.default_rng(m).standard_normal((diffusion_100.n, m))
    benchmark(assemble_gram, diffusion_100, B)


def _filled_store(n, k, seed):
    # k directions A-orthonormal under a diagonal SPD operator, as a fom
    # run stores them, so that the step's second-sweep test behaves as in
    # a run; returns the store, the diagonal and a random vector
    rng = np.random.default_rng(seed)
    root = np.sqrt(1.0 + rng.random(n))
    Q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    store = _DirectionStore(n, k)
    for q in Q.T:
        store.append(q / root, q * root, 1.0, 1.0)
    return store, root ** 2, rng.standard_normal(n)


def _step(store, diag, p):
    # the first sweep, the iteration's product, and the second sweep when
    # the first one cancelled
    swept = store.a_orthogonalize(p)
    return store.curvature(swept, diag * swept)


def _sweeps(store, diag, p):
    store.sink = InstrumentationSink()
    _step(store, diag, p)
    sweeps, store.sink = store.sink.reorth_sweeps, None
    return sweeps


@pytest.mark.parametrize("k", [50, 300])
def test_reorth_one_sweep(benchmark, k):
    store, diag, p = _filled_store(3600, k, seed=k)
    assert _sweeps(store, diag, p) == 1
    benchmark(_step, store, diag, p)


@pytest.mark.parametrize("k", [50, 300])
def test_reorth_two_sweeps(benchmark, k):
    store, diag, p = _filled_store(3600, k, seed=k)
    # all but about 1e-6 of p's A-norm lies in span(V): the first sweep cancels
    p = store.V[:, :k] @ p[:k] + 1e-6 * p
    assert _sweeps(store, diag, p) == 2
    benchmark(_step, store, diag, p)


@pytest.mark.parametrize("k", [50, 300])
def test_reorth_mgs_loop(benchmark, k):
    store, _, p = _filled_store(3600, k, seed=k)
    benchmark(mgs2_a_orthogonalize, p, store.V[:, :k], store.AV[:, :k])


def _checkpoint_iterates(K):
    rng = np.random.default_rng(K)
    return rng.standard_normal((100, 3600)), [rng.standard_normal(3600) for _ in range(K)]


@pytest.mark.parametrize("K", [10, 25, 60])
def test_checkpoint_outputs_gemm(benchmark, K):
    C, xs = _checkpoint_iterates(K)
    benchmark(lambda: np.stack(xs) @ C.T)


@pytest.mark.parametrize("K", [10, 25, 60])
def test_checkpoint_outputs_gemv(benchmark, K):
    C, xs = _checkpoint_iterates(K)
    benchmark(lambda: [C @ x for x in xs])


def test_solve_spd_50(benchmark):
    L = dense_cholesky(make_spd_dense(50, seed=2, cond=1e3))
    rhs = np.random.default_rng(3).standard_normal(50)
    benchmark(L.solve_spd, rhs)


@pytest.fixture(scope="module")
def mtx_dir(tmp_path_factory, diffusion_100):
    out = tmp_path_factory.mktemp("mmio")
    write_symmetric_matrix(out / "A.mtx", diffusion_100)
    write_array(out / "b.mtx", np.random.default_rng(4).standard_normal(10_000))
    return out


def test_read_matrix_100x100(benchmark, mtx_dir):
    benchmark(read_matrix, mtx_dir / "A.mtx")


def test_read_array_10000(benchmark, mtx_dir):
    benchmark(read_array, mtx_dir / "b.mtx")
