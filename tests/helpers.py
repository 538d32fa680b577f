"""Shared builders for randomized test instances."""

import numpy as np

from recykl.linalg import SparseSpdMatrix


def make_spd_dense(n, seed, cond=100.0):
    """Random dense SPD matrix with prescribed condition number."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = np.logspace(0.0, np.log10(cond), n)
    return (Q * eigs) @ Q.T


def make_spd(n, seed, cond=100.0):
    return SparseSpdMatrix.from_dense(make_spd_dense(n, seed, cond))


def make_sparse_spd(n, seed, density=0.05):
    """Random sparse diagonally dominant SPD matrix."""
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < density
    M = np.where(mask, rng.standard_normal((n, n)), 0.0)
    M = 0.5 * (M + M.T)
    np.fill_diagonal(M, np.abs(M).sum(axis=1) + 1.0)
    return SparseSpdMatrix.from_dense(M)


def random_basis(n, m, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, m))


def mgs2_a_orthogonalize(p, V, AV):
    """Reference re-orthogonalization: two modified Gram-Schmidt sweeps.

    Projects the A-components along the A-orthonormal columns of V out of p
    one column at a time, p <- p - (AV_i'p) V_i, the loop that block CGS2
    in the solver replaces.
    """
    for _ in range(2):
        for i in range(V.shape[1]):
            p = p - float(AV[:, i] @ p) * V[:, i]
    return p
