"""Output-oriented recycling: stopping when the quantities of interest settle.

When only a handful of output functionals q(x) = Cx matter, the error worth
tracking is ||x* - x|| in the C'C seminorm, and the truncation metric can be
C'C itself.  This script attaches a random 100-row output map to a drifting
sequence and reports, for a range of output tolerances, how much work each
method needed before its iterates met them.  Entries below one
preconditioner application mean the threshold was typically met before any
stage-3 iteration ran.
"""

import warnings

from recykl import gen_diffusion_sequence, gen_output_matrix
from recykl.bench import default_methods, output_error_run

warnings.filterwarnings("ignore")

seq = gen_diffusion_sequence((30, 30), p=12, delta=0.05, seed=4, tol=1e-8, load_scale=1e-3)
seq.C = gen_output_matrix(100, seq.n, seed=5)

methods = [
    m for m in default_methods(storage_cap=40, precond="ssor:1.7", include_output_metric=True)
    if m.name in ("no-trunc", "pod(20,0)", "pod-ctc(20,0)")
]
taus = [1e-4, 1e-6, 1e-8]
rows = output_error_run(seq, methods, taus)

print(f"{'method':>16} {'tau':>8} {'avg matvecs':>12} {'avg precond':>12} {'met':>5}")
for row in rows:
    print(f"{row['method']:>16} {row['tau']:8.0e} {row['avg_matvecs']:12.1f} "
          f"{row['avg_precond_apps']:12.2f} {row['systems_met']:3d}/{row['systems']}")

print()
print("the output-metric truncation ranks directions by what the functionals")
print("see, so it tends to reach loose output tolerances inside stages 1-2.")
