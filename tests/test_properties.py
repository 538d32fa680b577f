"""Property test: random small sequences solve in both recurrences.

Every solve ends converged, with a true residual that meets its tolerance,
or with a typed ``failure``; and on the same input the ``cg`` and ``fom``
recurrences both converge on every system.  Derandomized and bounded, so
the examples are the same on every run.
"""

import numpy as np
import pytest

from recykl.linalg import spmv
from recykl.problems import gen_diffusion_sequence, gen_output_matrix
from recykl.threestage import SolverConfig, run_sequence
from recykl.truncation import ALL_STRATEGIES, TruncationConfig

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

TYPED_FAILURES = ("budget", "breakdown", "nonfinite")


@hypothesis.settings(max_examples=30, derandomize=True, database=None, deadline=None)
@hypothesis.given(
    grid=st.tuples(st.integers(2, 20), st.integers(2, 20)),
    delta=st.floats(0.0, 0.9),
    tol_exponent=st.floats(-10.0, -2.0),
    seed=st.integers(0, 2**16),
    storage_cap=st.integers(2, 40),
    strategy=st.sampled_from(ALL_STRATEGIES),
    stage1_dim=st.one_of(st.none(), st.integers(1, 5)),
    precond=st.sampled_from(["identity", "jacobi", "ssor:1.7"]),
)
# deflation of a 29-column block for n = 28, whose Z'AZ is singular
@hypothesis.example(grid=(2, 14), delta=0.0, tol_exponent=-10.0, seed=11, storage_cap=18,
                    strategy="deflate", stage1_dim=1, precond="jacobi")
def test_cg_and_fom_converge_on_every_system(grid, delta, tol_exponent, seed, storage_cap,
                                              strategy, stage1_dim, precond):
    seq = gen_diffusion_sequence(grid, 8, delta, seed=seed, tol=10.0**tol_exponent)
    seq.C = gen_output_matrix(3, seq.n, seed=seed + 1)  # the pod-ctc strategies read C
    retained = max(1, storage_cap // 2)
    truncation = TruncationConfig(
        strategy=strategy, nu_y=1.0, nu_w=1.0, storage_cap=storage_cap, max_dim=retained,
        stage1_dim=stage1_dim, deflate_dim=retained if strategy == "deflate" else None)
    for mode in ("cg", "fom"):
        cfg = SolverConfig(truncation=truncation, mode=mode, precond=precond)
        xs, reports, _ = run_sequence(seq, cfg, stop_on_failure=False)
        assert len(reports) == seq.p
        for spec, x, report in zip(seq, xs, reports):
            assert report.failure is None or report.failure in TYPED_FAILURES
            if report.converged:
                assert np.linalg.norm(spec.b - spmv(spec.A, x)) <= 1.1 * spec.tol
        assert [r.failure for r in reports] == [None] * seq.p, mode
