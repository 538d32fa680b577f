"""Krylov-subspace recycling for sequences of sparse SPD systems.

The library solves A_j x_j = b_j for slowly varying SPD matrices by
augmented conjugate gradients over a recycled subspace, compressed between
systems by goal-oriented POD or harmonic-Ritz deflation, and driven by a
hybrid direct/iterative three-stage algorithm.
"""

from .errors import (
    DimensionMismatch,
    EmptyBasis,
    IterationLimit,
    ManifestError,
    NoHistory,
    NotPositiveDefinite,
    NotSymmetric,
    RankDeficient,
    RecyklError,
    RegimeInapplicable,
)
from .linalg import (
    DenseLowerTriangular,
    InstrumentationSink,
    SparseSpdMatrix,
    dense_cholesky,
    generalized_symmetric_evd,
    principal_angle_distance,
    spmv,
    symmetric_evd,
    thin_svd,
)
from .krylov import (
    AugmentedPcgResult,
    ReducedSpdOperator,
    augmented_pcg,
    direct_reduced_solve,
)
from .pod import PodBasisResult, energy_truncation_dim, pod_evd, pod_svd
from .preconditioners import Preconditioner, build as build_preconditioner
from .problems import (
    LinearSystemSpec,
    SystemSequence,
    gen_diffusion_sequence,
    gen_output_matrix,
    load_sequence_manifest,
    write_sequence,
)
from .threestage import (
    RecycleState,
    SolveReport,
    SolverConfig,
    run_sequence,
    solve_system,
    summarize_reports,
)
from .truncation import (
    TruncationConfig,
    TruncationOutcome,
    compress,
    deflation_compress,
    enforce_a_orthogonality,
)
from .weights import (
    WeightHistory,
    idw_weight,
    weights_ideal,
    weights_previous,
    weights_rbf,
)

__version__ = "0.1.0"
