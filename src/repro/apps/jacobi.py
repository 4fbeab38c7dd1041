"""jacobi — 2-D 4-point Jacobi relaxation (the authors' own kernel).

Paper scale: 2048x2048 doubles, 100 iterations.  The canonical stencil
benchmark: each sweep reads the four neighbours of every interior point
into a fresh array, then copies back.  With BLOCK column distribution the
only communication is one halo column per neighbour pair per sweep — the
ideal case for the paper's optimization ("regular stencil based
computations with relatively large columns shared between processors in a
producer-consumer relationship"), which is why it shows the paper's best
miss reduction (96.7%).
"""

from __future__ import annotations

import numpy as np

from repro.hpf.ast import Program
from repro.hpf.dsl import I, ProgramBuilder, S

__all__ = ["build"]


def build(n: int = 256, iters: int = 10) -> Program:
    """4-point Jacobi on an ``n`` x ``n`` grid for ``iters`` sweeps."""
    if n < 8:
        raise ValueError("grid too small to have an interior")
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    b = ProgramBuilder("jacobi")

    def hot_boundary(shape):
        data = np.zeros(shape)
        data[0, :] = 1.0
        data[-1, :] = 1.0
        data[:, 0] = 1.0
        data[:, -1] = 1.0
        return data

    a = b.array("a", (n, n), init=hot_boundary)
    new = b.array("new", (n, n))

    interior = S(1, n - 2)
    with b.timesteps(iters):
        b.forall(
            1,
            n - 2,
            new[interior, I],
            (
                a[S(0, n - 3), I]
                + a[S(2, n - 1), I]
                + a[interior, I - 1]
                + a[interior, I + 1]
            )
            * 0.25,
            label="sweep",
        )
        b.forall(1, n - 2, a[interior, I], new[interior, I], label="copy")
    return b.build()
