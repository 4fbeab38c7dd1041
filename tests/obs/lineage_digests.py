"""The causal lineage of every send site, pinned as whole Chrome traces.

Each cell replays a small program with a bus attached, a
:class:`~repro.obs.ChromeTraceExporter` retaining every event and the
critical path requested.  ``DIGESTS`` pins, per cell, one sha256 over
``[exporter.to_chrome(), result.critical_path]``: every published event
with its ``seq`` and ``parent``, the flow pairs, and the causal walk that
reads those edges.  Between them the cells reach every active-message
handler in ``repro.tempest``: the invalidate and update protocols, the
compiler extensions (data pushes, prefetch, self-invalidate notices,
non-owner-write flushes), flat and tree reductions, combined frames and
switch traversals under a lossy wire, and a crash rolled back from a
checkpoint.  The table was recorded before the handlers moved from
closures to bound methods, with

    PYTHONPATH=<parent>/src:. python -m tests.obs.lineage_digests

Run the same command on any later commit to print the table it produces.
"""

from __future__ import annotations

from repro.apps import grav, shallow
from repro.hpf.dsl import I, S, ProgramBuilder
from repro.obs import ChromeTraceExporter, EventBus
from repro.runtime import run_shmem
from repro.tempest.config import ClusterConfig
from tests.obs import attribution_matrix as am
from tests.runtime.conftest import jacobi_program


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

#: cell -> sha256 of [Chrome trace, critical_path], as recorded on the parent.
DIGESTS: dict[str, str] = {
    "invalidate": "d48fd9cd253bfef94428f5df6393e40e78181980592fdc05737e1de300d062d3",
    "update": "9cbb7609ef5d863a3797917c691cc72dc0283d17b0bd298f5b5f000a75e68e58",
    "opt+advisory": "71a3dc8e2d28dd99e0610608936e45e4714ae96050573f36c87995a3fda26e93",
    "opt+flush": "2083b3bff88823308b3a3b9bd3051215b839ae8153f2c6b3d8eb9b257cf73911",
    "reduce-flat": "ed619ad1765580bdb7af55253b6256145b27e3f6e0277845936ca62dc0cce6c4",
    "reduce-tree": "c2b009664f6f9b4e1eb94d4b68bfa3b813de6751d9b5e9bcab8f848c250d2a11",
    "storm+combine+switch": "fbe84ae861c456eaf74c44a261e5905405a1400a39b3d2501922832766ed16e1",
    "crash+rollback": "d2c85f9a9c9d77687ad7ceb84f03b1ad57a97e09e135325e6fbb1be2e3311bce",
}


def run_cell(cell: str):
    """(result, exporter) of one cell."""
    make, n_nodes, kwargs = CELLS[cell]
    kwargs = dict(kwargs)
    config = ClusterConfig(
        n_nodes=n_nodes,
        reduce_algorithm=kwargs.pop("reduce_algorithm", "central"),
    )
    bus = EventBus()
    exporter = ChromeTraceExporter(bus, n_nodes=n_nodes)
    result = run_shmem(make(), config, obs=bus, critical_path=True, **kwargs)
    return result, exporter


def lineage_digest(cell: str) -> str:
    result, exporter = run_cell(cell)
    assert result.completed, cell
    return am.digest([exporter.to_chrome(), result.critical_path])


if __name__ == "__main__":
    print("DIGESTS: dict[str, str] = {")
    for name in CELLS:
        print(f'    "{name}": "{lineage_digest(name)}",')
    print("}")
