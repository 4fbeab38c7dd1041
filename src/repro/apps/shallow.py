"""shallow — the NCAR shallow-water benchmark (Sadourny's scheme).

Paper scale: 1025x513 grid, 100 time steps, 28 MB (13 single-precision
arrays; ours are float64).  Each step computes mass fluxes, potential
vorticity and height (``cu``, ``cv``, ``z``, ``h``) from the prognostic
fields, advances ``u``, ``v``, ``p`` with a leapfrog step, applies periodic
boundary copies in the distributed direction, and time-smooths the old
fields.  Nine parallel loops per step, six of which read ±1 halo columns —
the many-loops-per-iteration structure that makes shallow the paper's
second-best miss-reduction case (85.7%) and a prime candidate for
redundant-communication elimination.

The finite-difference coefficients below follow the classic SPEC/NCAR
code's structure; physical constants are folded into plain numbers since
the evaluation cares about data movement, not geophysics.
"""

from __future__ import annotations

import numpy as np

from repro.hpf.ast import Program
from repro.hpf.dsl import I, ProgramBuilder, S

__all__ = ["build"]


def build(rows: int = 129, cols: int = 65, iters: int = 10) -> Program:
    """Shallow-water on a ``rows`` x ``cols`` grid for ``iters`` steps."""
    if rows < 8 or cols < 8:
        raise ValueError("grid too small")
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    b = ProgramBuilder("shallow")
    m = rows - 1  # interior row bound
    nl = cols - 1

    def psi_init(shape):
        r, c = shape
        yy, xx = np.meshgrid(np.arange(c), np.arange(r))
        return 0.1 * np.sin(2 * np.pi * xx / r) * np.sin(2 * np.pi * yy / c)

    def p_init(shape):
        r, c = shape
        yy, xx = np.meshgrid(np.arange(c), np.arange(r))
        return 50.0 + 5.0 * np.cos(2 * np.pi * xx / r) * np.cos(2 * np.pi * yy / c)

    u = b.array("u", (rows, cols), init=psi_init)
    v = b.array("v", (rows, cols), init=lambda s: -psi_init(s))
    p = b.array("p", (rows, cols), init=p_init)
    unew = b.array("unew", (rows, cols))
    vnew = b.array("vnew", (rows, cols))
    pnew = b.array("pnew", (rows, cols))
    uold = b.array("uold", (rows, cols), init=psi_init)
    vold = b.array("vold", (rows, cols), init=lambda s: -psi_init(s))
    pold = b.array("pold", (rows, cols), init=p_init)
    cu = b.array("cu", (rows, cols))
    cv = b.array("cv", (rows, cols))
    z = b.array("z", (rows, cols))
    h = b.array("h", (rows, cols))

    # Time-step coefficients scaled conservatively so the (toy-physics)
    # fields stay bounded over the paper's 100 steps at 1025x513.
    fsdx = 4.0 / rows
    fsdy = 4.0 / cols
    tdts8 = 0.002
    tdtsdx = 0.004
    tdtsdy = 0.004
    alpha = 0.001

    ri = S(1, m)       # interior rows
    rl = S(0, m - 1)   # rows shifted down
    with b.timesteps(iters):
        # --- fluxes and vorticity ------------------------------------- #
        b.forall(
            0, nl,
            cu[ri, I],
            (p[ri, I] + p[rl, I]) * 0.5 * u[ri, I],
            label="cu",
        )
        b.forall(
            1, nl,
            cv[ri, I],
            (p[ri, I] + p[ri, I - 1]) * 0.5 * v[ri, I],
            label="cv",
        )
        b.forall(
            1, nl,
            z[ri, I],
            (
                (v[ri, I] - v[rl, I]) * fsdx
                - (u[ri, I] - u[ri, I - 1]) * fsdy
            )
            / (p[rl, I - 1] + p[ri, I - 1] + p[ri, I] + p[rl, I]),
            label="z",
        )
        b.forall(
            0, nl - 1,
            h[rl, I],
            p[rl, I]
            + 0.25 * (u[ri, I] * u[ri, I] + u[rl, I] * u[rl, I])
            + 0.25 * (v[rl, I + 1] * v[rl, I + 1] + v[rl, I] * v[rl, I]),
            label="h",
        )
        # --- leapfrog updates ------------------------------------------ #
        b.forall(
            0, nl - 1,
            unew[ri, I],
            uold[ri, I]
            + tdts8 * (z[ri, I + 1] + z[ri, I]) * (cv[ri, I + 1] + cv[ri, I] + cv[rl, I] + cv[rl, I + 1])
            - tdtsdx * (h[ri, I] - h[rl, I]),
            label="unew",
        )
        b.forall(
            1, nl,
            vnew[rl, I],
            vold[rl, I]
            - tdts8 * (z[ri, I] + z[rl, I]) * (cu[ri, I] + cu[rl, I] + cu[rl, I - 1] + cu[ri, I - 1])
            - tdtsdy * (h[rl, I] - h[rl, I - 1]),
            label="vnew",
        )
        b.forall(
            0, nl - 1,
            pnew[rl, I],
            pold[rl, I]
            - tdtsdx * (cu[ri, I] - cu[rl, I])
            - tdtsdy * (cv[rl, I + 1] - cv[rl, I]),
            label="pnew",
        )
        # --- periodic boundary in the distributed direction ------------ #
        b.assign_at(unew[ri, nl], unew[ri, 0], label="u_bc")
        b.assign_at(vnew[rl, 0], vnew[rl, nl], label="v_bc")
        b.assign_at(pnew[rl, nl], pnew[rl, 0], label="p_bc")
        # --- time smoothing + rotation --------------------------------- #
        b.forall(
            0, nl,
            uold[S(0, m), I],
            u[S(0, m), I]
            + alpha * (unew[S(0, m), I] - 2.0 * u[S(0, m), I] + uold[S(0, m), I]),
            label="usmooth",
        )
        b.forall(
            0, nl,
            vold[S(0, m), I],
            v[S(0, m), I]
            + alpha * (vnew[S(0, m), I] - 2.0 * v[S(0, m), I] + vold[S(0, m), I]),
            label="vsmooth",
        )
        b.forall(
            0, nl,
            pold[S(0, m), I],
            p[S(0, m), I]
            + alpha * (pnew[S(0, m), I] - 2.0 * p[S(0, m), I] + pold[S(0, m), I]),
            label="psmooth",
        )
        b.forall(0, nl, u[S(0, m), I], unew[S(0, m), I], label="ucopy")
        b.forall(0, nl, v[S(0, m), I], vnew[S(0, m), I], label="vcopy")
        b.forall(0, nl, p[S(0, m), I], pnew[S(0, m), I], label="pcopy")
    return b.build()
