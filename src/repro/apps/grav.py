"""grav — gravitational potential with many SUM reductions (Syracuse).

Paper scale: 129^3 grid, 5 iterations, 17 MB (single precision; float64
here).  The paper's description drives the reconstruction (the original
Syracuse HPF source is not available): "the array extents in grav are
rather small (129x129 reals and 129x129x129 reals), and thus the edge
effects are pronounced at 128-byte blocksize.  Grav executes a large
number of SUM reductions, which ... ultimately limit speedups."

Each iteration therefore performs one potential-relaxation sweep over the
3-D grid (its 129-element columns are just 4-8 blocks at 128 B — heavy
edge effects, matching the paper's weak 38.2% miss reduction), a 2-D
surface update, and a battery of eight global SUM reductions (total mass,
three dipole moments against precomputed weight planes, potential energy,
kinetic proxy, and two convergence norms).
"""

from __future__ import annotations

import numpy as np

from repro.hpf.ast import Program, ScalarRef
from repro.hpf.dsl import I, ProgramBuilder, S

__all__ = ["build"]


def build(n: int = 33, iters: int = 2) -> Program:
    """Potential solver on an ``n``^3 grid for ``iters`` iterations."""
    if n < 8:
        raise ValueError("grid too small")
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    b = ProgramBuilder("grav")

    def blob(shape):
        rng = np.random.default_rng(42)
        return np.abs(rng.standard_normal(shape)) * 0.1

    def ramp(shape):
        r, c = shape
        return np.add.outer(np.arange(r), np.arange(c)) / (r + c)

    rho = b.array("rho", (n, n, n), init=blob)
    phi = b.array("phi", (n, n, n))
    surface = b.array("surface", (n, n), init=ramp)
    weight = b.array("weight", (n, n), init=ramp)

    inner = S(1, n - 2)
    lo = S(0, n - 3)
    hi = S(2, n - 1)
    sixth = 1.0 / 6.0

    with b.timesteps(iters):
        # One relaxation sweep of the potential.
        b.forall(
            1, n - 2,
            phi[inner, inner, I],
            (
                phi[lo, inner, I]
                + phi[hi, inner, I]
                + phi[inner, lo, I]
                + phi[inner, hi, I]
                + phi[inner, inner, I - 1]
                + phi[inner, inner, I + 1]
                + rho[inner, inner, I]
            )
            * sixth,
            label="relax",
        )
        # Surface potential update (small 2-D array: pronounced edges).
        b.forall(
            1, n - 2,
            surface[inner, I],
            (surface[inner, I - 1] + surface[inner, I + 1]) * 0.5
            + weight[inner, I] * 0.01,
            label="surface",
        )
        # The battery of global SUM reductions.
        full = S(0, n - 1)
        b.reduce("mass", 0, n - 1, rho[full, full, I], label="mass")
        b.reduce("dipole_x", 0, n - 1, rho[full, full, I] * phi[full, full, I], label="dx")
        b.reduce("dipole_y", 0, n - 1, rho[inner, full, I] * phi[inner, full, I], label="dy")
        b.reduce("dipole_z", 1, n - 2, rho[full, full, I] * phi[full, full, I], label="dz")
        b.reduce("energy", 0, n - 1, phi[full, full, I] * phi[full, full, I], label="energy")
        b.reduce("surf_sum", 0, n - 1, surface[full, I] * weight[full, I], label="surf")
        b.reduce("norm1", 0, n - 1, phi[full, full, I] * rho[full, full, I], label="norm1")
        b.reduce("norm2", 0, n - 1, surface[full, I] * surface[full, I], label="norm2")
        # Rescale the density by the mass estimate (replicated scalar use).
        b.scalar("scale", ScalarRef("mass") * 1e-6)
        b.forall(
            0, n - 1,
            rho[full, full, I],
            rho[full, full, I] * (1.0 - 1e-9) + phi[full, full, I] * 1e-9,
            label="rescale",
        )
    return b.build()
