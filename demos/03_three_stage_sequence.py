"""The three-stage solver over a drifting diffusion sequence.

Generates twenty 2500-unknown diffusion systems whose coefficient field
breathes by five percent over the sequence, then compares: plain PCG, the
recycling solver without truncation, POD truncation at a 50-vector budget,
and harmonic-Ritz deflation at the same budget.  Watch the per-system
stage-3 iteration counts: recycling collapses them, and POD keeps most of
the benefit at a fraction of the memory.
"""

import warnings

from recykl import SolverConfig, TruncationConfig, gen_diffusion_sequence, run_sequence

warnings.filterwarnings("ignore")  # rank-limited energy criteria are expected here

seq = gen_diffusion_sequence((50, 50), p=20, delta=0.05, seed=1, tol=1e-6, load_scale=1e-4)
ssor = "ssor:1.7"

methods = {
    "plain pcg": SolverConfig(truncation=TruncationConfig(strategy="none"),
                              precond=ssor, recycle=False),
    "no truncation": SolverConfig(truncation=TruncationConfig(strategy="none", nu_w=1.0),
                                  precond=ssor),
    "pod (cap 50)": SolverConfig(truncation=TruncationConfig(
        strategy="pod-a-rbf", nu_y=1.0, nu_w=1.0, storage_cap=50, max_dim=40), precond=ssor),
    "pod inner-orth": SolverConfig(truncation=TruncationConfig(
        strategy="pod-a-rbf", nu_y=1.0, nu_w=1.0, storage_cap=50, max_dim=40,
        stage1_dim=5, full_orth=True), precond=ssor),
    "deflation (cap 50)": SolverConfig(truncation=TruncationConfig(
        strategy="deflate", deflate_dim=40, storage_cap=50), precond=ssor),
}

print(f"sequence: {seq.p} systems, n = {seq.n}, coefficient drift {seq.metadata['delta']}")
print(f"{'method':>20} | total stage-3 | total matvecs | per-system stage-3")
for name, cfg in methods.items():
    _, reports, _ = run_sequence(seq, cfg)
    iters = [r.stage3_iters for r in reports]
    matvecs = sum(r.matvecs for r in reports)
    print(f"{name:>20} | {sum(iters):13d} | {matvecs:13d} | {iters}")

print()
print("stage-3 iterations equal preconditioner applications; the no-truncation")
print("run keeps every direction and pays for it in memory and dense products,")
print("while the POD run stores at most 50 vectors.")
