"""cg — conjugate gradient on the normal equations (CGNR), MIT's code.

Paper scale: a 180x360 matrix, converging in 630 iterations.  CGNR solves
``min ||A x - b||`` for rectangular A by running CG on ``AᵀA x = Aᵀ b``;
each iteration needs one matvec with A and one with Aᵀ.  In HPF style the
matrix is stored twice so each matvec contracts over the *local* dimension:
``a_rows(:, i)`` holds row ``i`` of A, ``a_cols(:, j)`` holds column ``j``
— both last-dim BLOCK-distributed, so a matvec reads the entire operand
vector (a broadcast-style non-owner read) but only local matrix columns.

Per iteration: two vector broadcasts (p into the row space, the residual
back into the column space), two scalar SUM reductions (the dots), and
three local vector updates — matching the paper's cg profile of moderate
(24%) communication reduction: the broadcasts optimize well, the
reductions don't go away.
"""

from __future__ import annotations

import numpy as np

from repro.hpf.ast import Dot, Program, ScalarRef
from repro.hpf.dsl import I, ProgramBuilder, S

__all__ = ["build"]


def build(rows: int = 60, cols: int = 120, iters: int = 25) -> Program:
    """CGNR on a ``rows`` x ``cols`` system for a fixed ``iters`` sweeps."""
    if rows < 8 or cols < 8:
        raise ValueError("system too small")
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    b = ProgramBuilder("cg")
    rng = np.random.default_rng(1993)
    a_data = rng.standard_normal((rows, cols)) / np.sqrt(cols)
    b_data = rng.standard_normal(rows)

    # a_rows(:, i) = row i of A  (shape cols x rows, row index distributed)
    a_rows = b.array("a_rows", (cols, rows), init=lambda s: a_data.T)
    # a_cols(:, j) = column j of A (shape rows x cols)
    a_cols = b.array("a_cols", (rows, cols), init=lambda s: a_data)
    resid = b.array("resid", (rows,), init=lambda s: b_data)   # r = b - A*0
    x = b.array("x", (cols,))
    p = b.array("p", (cols,))
    s = b.array("s", (cols,))
    q = b.array("q", (rows,))

    all_rows = S(0, rows - 1)
    all_cols = S(0, cols - 1)

    # s0 = Aᵀ r ; p = s ; rho = sᵀs
    b.forall(0, cols - 1, s[I], Dot.of(a_cols[all_rows, I], resid[all_rows]), label="s0")
    b.forall(0, cols - 1, p[I], s[I], label="p0")
    b.reduce("rho", 0, cols - 1, s[I] * s[I], label="rho0")

    with b.timesteps(iters):
        # q = A p  — p broadcast into the row space.
        b.forall(0, rows - 1, q[I], Dot.of(a_rows[all_cols, I], p[all_cols]), label="matvec")
        b.reduce("qq", 0, rows - 1, q[I] * q[I], label="dot_qq")
        b.scalar("alpha", ScalarRef("rho") / ScalarRef("qq"))
        b.forall(0, cols - 1, x[I], x[I] + ScalarRef("alpha") * p[I], label="xup")
        b.forall(0, rows - 1, resid[I], resid[I] - ScalarRef("alpha") * q[I], label="rup")
        # s = Aᵀ r — the residual broadcast back into the column space.
        b.forall(0, cols - 1, s[I], Dot.of(a_cols[all_rows, I], resid[all_rows]), label="matvec_t")
        b.reduce("rho_new", 0, cols - 1, s[I] * s[I], label="dot_ss")
        b.scalar("beta", ScalarRef("rho_new") / ScalarRef("rho"))
        b.scalar("rho", ScalarRef("rho_new"))
        b.forall(0, cols - 1, p[I], s[I] + ScalarRef("beta") * p[I], label="pup")
    return b.build()
