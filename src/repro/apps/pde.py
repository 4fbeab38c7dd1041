"""pde — Genesis PDE1: 3-D Poisson relaxation (the RELAX routine).

Paper scale: grid 128 (128^3 points), 40 relaxation iterations, 56 MB.
A 6-point 3-D Jacobi relaxation of Poisson's equation ∇²u = f: each sweep
averages the six face neighbours minus the source term.  The last (plane)
dimension is BLOCK-distributed, so communication is whole boundary *planes*
— large, perfectly block-aligned sections, which is why pde shows both the
paper's largest absolute communication time and a large (74.6%) miss
reduction when those plane transfers move under compiler control.
"""

from __future__ import annotations

import numpy as np

from repro.hpf.ast import Program
from repro.hpf.dsl import I, ProgramBuilder, S

__all__ = ["build"]


def build(n: int = 32, iters: int = 4, ordering: str = "jacobi") -> Program:
    """Poisson relaxation on an ``n``^3 grid for ``iters`` sweeps.

    ``ordering``:

    * ``"jacobi"`` — two-array sweep + copy-back (the shipped default; its
      memory footprint matches the paper's Table 2 row);
    * ``"redblack"`` — the Genesis PDE1 original's in-place red-black
      ordering over the distributed plane index (two strided FORALLs per
      sweep, no copy array) — converges faster, halves the array memory,
      and exchanges each halo plane twice per iteration.
    """
    if n < 8:
        raise ValueError("grid too small to have an interior")
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    if ordering not in ("jacobi", "redblack"):
        raise ValueError(f"unknown ordering {ordering!r}")
    b = ProgramBuilder("pde" if ordering == "jacobi" else "pde-rb")

    def charge(shape):
        rng = np.random.default_rng(1997)
        return rng.standard_normal(shape) * 0.01

    u = b.array("u", (n, n, n))
    if ordering == "jacobi":
        unew = b.array("unew", (n, n, n))
    f = b.array("f", (n, n, n), init=charge)

    inner = S(1, n - 2)
    lo = S(0, n - 3)
    hi = S(2, n - 1)
    sixth = 1.0 / 6.0
    h2 = (1.0 / (n - 1)) ** 2

    def stencil(target):
        return (
            u[lo, inner, I]
            + u[hi, inner, I]
            + u[inner, lo, I]
            + u[inner, hi, I]
            + u[inner, inner, I - 1]
            + u[inner, inner, I + 1]
            - f[inner, inner, I] * h2
        ) * sixth

    with b.timesteps(iters):
        if ordering == "jacobi":
            b.forall(1, n - 2, unew[inner, inner, I], stencil(unew), label="relax")
            b.forall(1, n - 2, u[inner, inner, I], unew[inner, inner, I], label="copy")
        else:
            # Red planes (odd k) read black neighbours; then vice versa.
            b.forall(1, n - 2, u[inner, inner, I], stencil(u), step=2, label="red")
            b.forall(2, n - 2, u[inner, inner, I], stencil(u), step=2, label="black")
    return b.build()
