"""Workload definitions: the generator settings and roster of each workload.

Every workload is a 20-system diffusion sequence (delta 0.05, load scale
1e-4) solved by the default roster at storage cap 50 in ``fom`` mode.  The
workloads differ in grid size, forcing tolerance, preconditioner and the CLI
path they follow (``recykl run`` or ``recykl output-error``).  Why each one
was chosen is recorded in README.md next to this file.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

# output-error thresholds tau = 1e0 ... 1e-10
TAUS = tuple(10.0 ** (-k) for k in range(11))


@dataclass(frozen=True)
class Workload:
    name: str
    grid: tuple[int, int]
    tol: float
    precond: str
    output_error: bool = False  # follow `recykl output-error` instead of `recykl run`
    outputs: int = 0  # rows q of the output matrix C
    systems: int = 20
    delta: float = 0.05
    load_scale: float = 1e-4
    storage_cap: int = 50
    mode: str = "fom"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("roster-ssor", grid=(100, 100), tol=1e-6, precond="ssor:1.7"),
        Workload("krylov-unprec", grid=(60, 60), tol=1e-6, precond="identity"),
        Workload("output-error", grid=(60, 60), tol=1e-10, precond="ssor:1.7",
                 output_error=True, outputs=100),
    )
}


def tiny(workload: Workload) -> Workload:
    """Smoke-test size of a workload: same roster and path, seconds to run."""
    return replace(workload, grid=(10, 10), systems=3,
                   outputs=min(workload.outputs, 5))
