"""The causal lineage of every send site, pinned as whole Chrome traces.

Each cell replays a small program with a bus attached, a
:class:`~repro.obs.ChromeTraceExporter` retaining every event and the
critical path requested.  The ``lineage`` table of :mod:`tests.pins`
pins, per cell, one sha256 over ``[exporter.to_chrome(),
result.critical_path]``: every published event with its ``seq`` and
``parent``, the flow pairs, and the causal walk that reads those edges.  Between them the cells reach every active-message
handler in ``repro.tempest``: the invalidate and update protocols, the
compiler extensions (data pushes, prefetch, self-invalidate notices,
non-owner-write flushes), flat and tree reductions, combined frames and
switch traversals under a lossy wire, and a crash rolled back from a
checkpoint.
"""

from __future__ import annotations

from repro.apps import grav, shallow
from repro.hpf.dsl import I, S, ProgramBuilder
from repro.obs import ChromeTraceExporter, EventBus
from repro.runtime import run_shmem
from tests.obs import attribution_matrix as am
from tests.runtime.conftest import cell_config, jacobi_program


def _non_owner_writes():
    """Shifted writes: each node writes its right neighbour's columns, so
    the optimized plan ends every step with ``flush_and_invalidate``."""
    b = ProgramBuilder("nowrite")
    a = b.array("a", (32, 32))
    w = b.array("w", (32, 32))
    b.forall(0, 31, a[S(0, 31), I], 3.0, label="init")
    with b.timesteps(2):
        b.forall(
            1, 30, w[S(0, 31), I + 1], a[S(0, 31), I] * 2.0,
            on_home=a[S(0, 31), I], label="shifted",
        )
    return b.build()


def _shallow():
    return shallow.build(rows=33, cols=17, iters=2)


def _grav():
    return grav.build(n=9, iters=1)


def _jacobi():
    return jacobi_program(n=32, iters=2)


#: cell -> (program factory, n_nodes, run_shmem kwargs)
CELLS = {
    "invalidate": (_shallow, 4, {}),
    "update": (_shallow, 4, {"protocol": "update"}),
    "opt+advisory": (_shallow, 4, {"optimize": True, "advisory": "full"}),
    "opt+flush": (_non_owner_writes, 4, {"optimize": True}),
    "reduce-flat": (_grav, 4, {}),
    "reduce-tree": (_grav, 4, {"reduce_algorithm": "tree"}),
    "storm+combine+switch": (_jacobi, 8, am.CELLS["storm+combine+switch"]),
    "crash+rollback": (_jacobi, 8, am.CELLS["crash+rollback"]),
}


def run_cell(cell: str):
    """(result, exporter) of one cell."""
    make, n_nodes, kwargs = CELLS[cell]
    kwargs = dict(kwargs)
    config = cell_config(kwargs, n_nodes=n_nodes)
    bus = EventBus()
    exporter = ChromeTraceExporter(bus, n_nodes=n_nodes)
    result = run_shmem(make(), config, obs=bus, critical_path=True, **kwargs)
    return result, exporter


def record(cell: str) -> dict:
    result, exporter = run_cell(cell)
    assert result.completed, cell
    return {"trace": exporter.to_chrome(), "critical_path": result.critical_path}


def encode(record: dict) -> str:
    return am.digest([record["trace"], record["critical_path"]])
