#!/usr/bin/env python
"""LU decomposition: shrinking pivot-column broadcasts and edge effects.

    python examples/lu_pivot_broadcast.py

The paper singles lu out: each iteration broadcasts the pivot column below
the diagonal, and "since it is a triangular loop, the size of this column
decreases with successive iterations, and in the later columns the edge
effects limit the efficacy of our optimizations".

This example (1) verifies the distributed factorization against a NumPy
reference, (2) plots (in ASCII) how many blocks of each pivot-column
broadcast the compiler controls as k grows, and (3) compares the backends.
"""

import numpy as np

from repro.apps.lu import build, check_factorization
from repro.core.access import analyze_loop
from repro.core.planner import plan_loop
from repro.runtime import run_msgpass, run_shmem, run_uniproc
from repro.runtime.phases import segment_geometry
from repro.tempest.config import ClusterConfig

N, NODES = 256, 8


def verify_factorization():
    prog = build(n=64)
    original = prog.initializers["a"]((64, 64))
    result = run_shmem(prog, ClusterConfig(n_nodes=NODES), optimize=True)
    ok = check_factorization(result.arrays["a"], original)
    print(f"L*U == A (distributed, optimized run): {ok}\n")
    assert ok


def broadcast_profile():
    prog = build(n=N)
    cfg = ClusterConfig(n_nodes=NODES)
    mem = segment_geometry(prog.arrays.values(), cfg)
    update = prog.body[0].body[1]  # the rank-1 update loop
    access = analyze_loop(update, prog, NODES)

    print("pivot-column broadcast: compiler-controlled vs boundary blocks")
    print(f"{'k':>5} {'col elems':>10} {'controlled':>11} {'boundary':>9}")
    for k in range(0, N - 1, N // 16):
        inst = access.instantiate({"k": k})
        plan = plan_loop(inst, mem)
        controlled = plan.total_controlled_blocks()
        boundary = sum(len(v) for v in plan.boundary.values())
        bar = "#" * int(controlled / NODES)
        print(f"{k:>5} {N - 1 - k:>10} {controlled:>11} {boundary:>9}  {bar}")
    print("\n(the controlled share shrinks with the column; the last few "
          "columns are pure edge effect, exactly the paper's lu story)\n")


def compare_backends():
    prog = build(n=N)
    cfg = ClusterConfig(n_nodes=NODES)
    uni = run_uniproc(prog, cfg)
    print(f"{'backend':<12} {'time (ms)':>10} {'misses/node':>12}")
    for r in (run_shmem(prog, cfg), run_shmem(prog, cfg, optimize=True),
              run_msgpass(prog, cfg)):
        r.assert_same_numerics(uni)
        print(f"{r.backend:<12} {r.elapsed_ms:>10.1f} {r.misses_per_node:>12.0f}")


if __name__ == "__main__":
    verify_factorization()
    broadcast_profile()
    compare_backends()
