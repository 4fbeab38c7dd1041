"""Content digests of :class:`~repro.runtime.shmem.ShmemPlan` values.

``build_shmem_plan`` is deterministic, so a sha256 over what it produced
pins the functional pass across refactors: ``tests/runtime/
test_plan_digest.py`` asserts the digests of the ``plan_structure`` and
``plan_numerics`` tables of :mod:`tests.pins`.  The encoding is
type-strict — a Python ``int`` and a ``numpy.int64`` hash differently, a
tuple and an ndarray hash differently — because ``repro.serve`` pickles
plans and the pickle must not change shape either.

Two records per plan: ``structure`` (traces and planner counters — pure
integer arithmetic, identical on every host) and ``numerics`` (the final
arrays and scalars of the record the built plan carries, which no pickle
of the plan holds — bit-exact on one host, but BLAS kernels may differ
between CPUs, so a mismatch there alone points at the platform first).
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro import APPS, ClusterConfig
from repro.runtime.shmem import ShmemPlan, build_shmem_plan

#: small enough that all 36 builds take a few seconds
PARAMS = {
    "pde": dict(n=64, iters=1),
    "shallow": dict(rows=65, cols=33, iters=3),
    "grav": dict(n=33, iters=1),
    "lu": dict(n=64),
    "cg": dict(rows=45, cols=90, iters=4),
    "jacobi": dict(n=128, iters=3),
}

VARIANTS = {
    "unopt": dict(),
    "opt": dict(optimize=True),
    "opt+rt_elim": dict(optimize=True, rt_elim=True),
    "opt+pre": dict(optimize=True, pre=True),
    "opt+rt_elim+pre": dict(optimize=True, rt_elim=True, pre=True),
    "opt+advisory": dict(optimize=True, advisory="full"),
}

N_NODES = 8


def _feed(h, obj) -> None:
    if isinstance(obj, np.ndarray):
        h.update(f"A{obj.dtype.str}{obj.shape}".encode())
        h.update(obj.tobytes())
    elif isinstance(obj, (tuple, list)):
        h.update(b"T(" if isinstance(obj, tuple) else b"L(")
        for item in obj:
            _feed(h, item)
        h.update(b")")
    elif isinstance(obj, dict):
        h.update(b"D(")
        for key in sorted(obj):
            _feed(h, key)
            _feed(h, obj[key])
        h.update(b")")
    elif isinstance(obj, float):
        h.update(f"f{obj.hex()};".encode())
    elif obj is None or isinstance(obj, (bool, int, str)):
        h.update(f"{type(obj).__name__}{obj!r};".encode())
    else:
        raise TypeError(f"unexpected {type(obj).__name__} in a plan: {obj!r}")


def structure_record(plan: ShmemPlan) -> dict:
    return {
        "traces": plan.traces,
        "plans_built": plan.plans_built,
        "controlled_blocks": plan.controlled_blocks,
        "tracker_stats": plan.tracker_stats,
    }


def structure_digest(record: dict) -> str:
    h = hashlib.sha256()
    _feed(h, record["traces"])
    _feed(h, (record["plans_built"], record["controlled_blocks"], record["tracker_stats"]))
    return h.hexdigest()[:24]


def numerics_record(plan: ShmemPlan) -> dict:
    return {"arrays": dict(plan.numerics.arrays), "scalars": dict(plan.numerics.scalars)}


def numerics_digest(record: dict) -> str:
    h = hashlib.sha256()
    _feed(h, record["arrays"])
    _feed(h, record["scalars"])
    return h.hexdigest()[:24]


def build_cell(app: str, variant: str) -> ShmemPlan:
    """The plan of one pinned cell."""
    program = APPS[app].program(**PARAMS[app])
    return build_shmem_plan(program, ClusterConfig(n_nodes=N_NODES), **VARIANTS[variant])


CELLS = [(app, variant) for app in PARAMS for variant in VARIANTS]
