"""lu — dense LU decomposition with cyclic columns (Stanford kernel).

Paper scale: 1024x1024 (4 MB single precision).  Right-looking LU without
pivoting on a diagonally dominant matrix; columns are CYCLIC-distributed
for load balance over the shrinking trailing submatrix.

"During each iteration a pivotal column is broadcast to all processors.
Since it is a triangular loop, the size of this column decreases with
successive iterations, and in the later columns the edge effects limit the
efficacy of our optimizations."  Both effects fall out of the structure
below: the rank-1 update reads ``a(k+1:n-1, k)`` — a single remote column
shrinking with ``k``, whose block-aligned core disappears once fewer than
a block's worth of rows remain.
"""

from __future__ import annotations

import numpy as np

from repro.hpf.ast import Program
from repro.hpf.dsl import I, ProgramBuilder, S

__all__ = ["build"]


def build(n: int = 128) -> Program:
    """LU-decompose a diagonally dominant ``n`` x ``n`` matrix in place."""
    if n < 8:
        raise ValueError("matrix too small")
    b = ProgramBuilder("lu")

    def dominant(shape):
        rng = np.random.default_rng(7)
        data = rng.standard_normal(shape) * 0.1
        np.fill_diagonal(data, float(shape[0]))
        return data

    a = b.array("a", (n, n), dist="cyclic", init=dominant)

    with b.seq("k", 0, n - 2) as k:
        # Normalize the pivot column below the diagonal (its owner only).
        b.assign_at(
            a[S(k + 1, n - 1), k],
            a[S(k + 1, n - 1), k] / a[k, k],
            label="scale_col",
        )
        # Rank-1 update of the trailing submatrix; reads the freshly
        # normalized pivot column (broadcast) and the local pivot row.
        b.forall(
            k + 1,
            n - 1,
            a[S(k + 1, n - 1), I],
            a[S(k + 1, n - 1), I] - a[S(k + 1, n - 1), k] * a[k, I],
            label="update",
        )
    return b.build()


def check_factorization(result_a: np.ndarray, original: np.ndarray) -> bool:
    """Verify L*U reconstructs the original matrix (test helper)."""
    n = original.shape[0]
    lower = np.tril(result_a, -1) + np.eye(n)
    upper = np.triu(result_a)
    return np.allclose(lower @ upper, original, rtol=1e-8, atol=1e-8)
