"""Differential golden test: the seed's heap scheduler vs `repro.sim.Engine`.

The engine's per-instant FIFOs replaced the seed's single binary heap
(by way of a calendar queue, which gave this test its name).  The seed
scheduler survives as ``tests/heap_engine.py`` — an ``Engine``
subclass substituted here for the one ``Cluster`` constructs — and the
engine's correctness contract is that both produce **bit-identical
simulated results** on every configuration: same elapsed time, same
ClusterStats (full dataclass, no fields excluded), same numerics, across
the fault / combining / switch / crash fuzz matrix.

The matrix deliberately includes the degraded cells (a partition that
never heals, a crash with no restart) where recovery rolls the clock
forward externally — the engine must tolerate that too.
"""

import dataclasses
import pathlib
import re

import numpy as np
import pytest

from repro.apps import APPS
from repro.runtime import run_shmem
from repro.tempest.config import ClusterConfig, CombineConfig, SwitchConfig
from repro.tempest.faults import (
    CrashScenario,
    FaultConfig,
    LinkFaultConfig,
    PartitionScenario,
)
from tests.heap_engine import HeapEngine

_STORM = FaultConfig(drop_prob=0.05, dup_prob=0.02, jitter_ns=3000, seed=7)

#: (cell-name, app, run_shmem kwargs).  A trimmed copy of the fuzz matrix:
#: every wire model (plain / combining / switch / lossy / all-three), both
#: protocols, the optimizer path, and every failure mode incl. degraded.
MATRIX = [
    ("jacobi-plain", "jacobi", dict(config=ClusterConfig(n_nodes=8))),
    ("jacobi-opt", "jacobi",
     dict(config=ClusterConfig(n_nodes=8), optimize=True, rt_elim=True)),
    ("shallow-plain", "shallow", dict(config=ClusterConfig(n_nodes=8))),
    ("jacobi-combine", "jacobi",
     dict(config=ClusterConfig(n_nodes=8, combine=CombineConfig(enabled=True)))),
    ("jacobi-switch", "jacobi",
     dict(config=ClusterConfig(n_nodes=8, switch=SwitchConfig(enabled=True)))),
    ("jacobi-storm", "jacobi",
     dict(config=ClusterConfig(n_nodes=8, faults=_STORM))),
    ("jacobi-storm-combine-switch", "jacobi",
     dict(config=ClusterConfig(
         n_nodes=8, faults=_STORM,
         combine=CombineConfig(enabled=True),
         switch=SwitchConfig(enabled=True)))),
    ("jacobi-update", "jacobi",
     dict(config=ClusterConfig(n_nodes=8), protocol="update")),
    ("jacobi-adaptive", "jacobi",
     dict(config=ClusterConfig(
         n_nodes=8,
         faults=FaultConfig(drop_prob=0.03, seed=3, adaptive_rto=True)))),
    ("jacobi-linkfault", "jacobi",
     dict(config=ClusterConfig(
         n_nodes=8,
         faults=FaultConfig(
             seed=5,
             link_faults=(LinkFaultConfig(src=0, dst=1, drop_prob=0.2),))))),
    ("jacobi-partition-heal", "jacobi",
     dict(config=ClusterConfig(
         n_nodes=8,
         faults=FaultConfig(
             seed=2,
             partitions=(PartitionScenario(
                 name="w", nodes=frozenset({1}),
                 t_start_ns=200_000, duration_ns=5_000_000),))))),
    ("jacobi-partition-never", "jacobi",
     dict(config=ClusterConfig(
         n_nodes=8,
         faults=FaultConfig(
             seed=2,
             partitions=(PartitionScenario(
                 name="w", nodes=frozenset({1}),
                 t_start_ns=200_000, duration_ns=None),))))),
    ("jacobi-crash-recover", "jacobi",
     dict(config=ClusterConfig(
         n_nodes=8,
         faults=FaultConfig(
             seed=4,
             crashes=(CrashScenario(
                 node=2, t_ns=500_000, restart_delay_ns=1_000_000),),
             checkpoint_every=4)))),
    ("jacobi-crash-degraded", "jacobi",
     dict(config=ClusterConfig(
         n_nodes=8,
         faults=FaultConfig(
             seed=4,
             crashes=(CrashScenario(
                 node=2, t_ns=500_000, restart_delay_ns=None),))))),
]


def _plain(obj):
    """Recursively reduce stats/extra objects to comparable plain values."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _plain(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, np.ndarray):
        return ("ndarray", obj.shape, str(obj.dtype), obj.tobytes())
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


@pytest.mark.parametrize("name,app,kw", MATRIX, ids=[m[0] for m in MATRIX])
def test_heap_and_calendar_bit_identical(name, app, kw, monkeypatch):
    cal = run_shmem(APPS[app].program("default"), **kw)
    monkeypatch.setattr("repro.tempest.cluster.Engine", HeapEngine)
    heap = run_shmem(APPS[app].program("default"), **kw)

    # Simulated clock and completion state.
    assert cal.elapsed_ns == heap.elapsed_ns
    assert cal.completed == heap.completed

    # Full ClusterStats dataclass equality — including the engine-side
    # diagnostics (events_dispatched, max_queue_depth): both schedulers
    # run the same event chains, so even the event count and queue
    # high-water must agree.
    assert _plain(cal.stats) == _plain(heap.stats)

    # Numerics: every output array bit-for-bit.
    assert set(cal.arrays) == set(heap.arrays)
    for k in cal.arrays:
        assert np.array_equal(cal.arrays[k], heap.arrays[k]), k
    assert cal.scalars == heap.scalars

    # Run metadata: the failure report is in the stats compared above.
    assert _plain(cal.extra) == _plain(heap.extra)


def test_src_reads_no_environment():
    """A second engine (or any behaviour switch) cannot come back as a
    hidden environment variable: nothing under src/repro reads one."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
    readers = [
        str(p.relative_to(src)) for p in sorted(src.rglob("*.py"))
        if re.search(r"\b(environ|getenv)\b", p.read_text())
    ]
    assert readers == []
