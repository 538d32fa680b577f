"""Augmented CG in a nutshell.

Builds a small SPD system, solves it with plain CG, then hands the solver a
five-dimensional subspace assembled from perturbed solutions.  The augmented
run starts from the Galerkin solution over that subspace and keeps every new
search direction A-orthogonal to it, so it converges in far fewer
iterations; the final iterate is the A-orthogonal projection of the exact
solution onto the combined space.
"""

import numpy as np

from recykl import SparseSpdMatrix, augmented_pcg

rng = np.random.default_rng(7)
n = 120

Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
Ad = (Q * np.logspace(0, 3, n)) @ Q.T
A = SparseSpdMatrix.from_dense(Ad)
xstar = rng.standard_normal(n)
b = Ad @ xstar

plain = augmented_pcg(A, b, tol=1e-8 * np.linalg.norm(b), max_iter=5 * n, mode="fom")
print(f"plain CG:     {plain.k} iterations, final residual {plain.final_residual:.2e}")

# an augmenting subspace built from solutions of nearby systems, the kind of
# data a previous solve would leave behind
Y = np.column_stack([
    np.linalg.solve(Ad + 0.002 * np.diag(rng.random(n)), b)
    for _ in range(5)
])
yhat0 = np.linalg.solve(Y.T @ Ad @ Y, Y.T @ b)

aug = augmented_pcg(A, b, yhat0, Y, tol=1e-8 * np.linalg.norm(b), max_iter=5 * n,
                    mode="fom")
print(f"augmented CG: {aug.k} iterations, final residual {aug.final_residual:.2e}")

# the directions stay A-orthogonal to Y ...
cross = np.max(np.abs(Y.T @ Ad @ aug.V))
print(f"max |Y'A V|   = {cross:.2e}  (A-orthogonality of new directions)")

# ... which makes the final iterate the projection onto the combined space
B = np.hstack([Y, aug.V])
proj = B @ np.linalg.solve(B.T @ Ad @ B, B.T @ b)
gap = aug.x - proj
print(f"A-norm gap to the subspace projection: {np.sqrt(gap @ Ad @ gap):.2e}")
