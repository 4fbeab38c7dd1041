"""Chunked delivery is invisible: where the bus cuts its record stream
into chunks cannot change what any consumer computes, and however a run
ends, ``Cluster.run`` has delivered every event before anyone reads.

Deferred folding makes one thing observable that delivery at each
publish would hide: a payload mutated after ``emit`` would reach the
consumers in its later state.  Folding every record alone (``CHUNK = 1``,
delivery at each publish) and in odd-sized chunks must give the results
of the default.
"""

from __future__ import annotations

import pytest

import repro.obs
from repro.apps import shallow
from repro.cli import main
from repro.obs import (
    ChromeTraceExporter,
    EventBus,
    MessageTracer,
    MetricsRegistry,
)
from repro.obs import bus as bus_module
from repro.runtime import run_shmem
from repro.sim.engine import SimulationError
from repro.tempest import ClusterConfig
from tests.integration.test_failure_injection import F2_COMMAND
from tests.obs.test_trace_bytes import CRASH, DIGESTS, LOSSY, RUNS, encode, written

CHUNKS = (1, 7)


@pytest.fixture
def pending_high_water(monkeypatch):
    """The most records any bus held unfolded; every flush sees the
    pending list at its longest since the previous one."""
    seen = [0]
    flush = EventBus.flush

    def watched(bus):
        seen[0] = max(seen[0], len(bus._pending))
        flush(bus)

    monkeypatch.setattr(EventBus, "flush", watched)
    return seen


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("run", sorted(RUNS))
def test_pinned_traces_do_not_see_chunk_seams(run, chunk, monkeypatch, pending_high_water):
    monkeypatch.setattr(bus_module, "CHUNK", chunk)
    assert encode(written(run)) == DIGESTS[run]
    assert pending_high_water[0] <= chunk


def observe(config: ClusterConfig) -> dict:
    """A shallow run with every consumer on one bus; what each computed."""
    bus = EventBus()
    exporter = ChromeTraceExporter(bus, n_nodes=4)
    registry = MetricsRegistry(bus, 4)
    tracer = MessageTracer(bus, 4)
    result = run_shmem(
        shallow.build(rows=33, cols=17, iters=2), config,
        obs=bus, profile_phases=True, critical_path=True,
    )
    assert result.completed and bus._pending == []
    assert registry.diff(result.stats) == []
    return {
        "trace": exporter.to_json(),
        "derived": registry.derived,
        "phase_breakdown": result.phase_breakdown,
        "critical_path": result.critical_path,
        "messages": tracer.records,
    }


@pytest.mark.parametrize("config", ["lossy", "crash"])
def test_consumers_do_not_see_chunk_seams(config, monkeypatch, pending_high_water):
    cluster_config = {"lossy": LOSSY, "crash": CRASH}[config]
    if config == "crash":
        assert cluster_config.faults.crashes  # the run rolls back
    default = observe(cluster_config)
    assert pending_high_water[0] <= bus_module.CHUNK
    for chunk in CHUNKS:
        monkeypatch.setattr(bus_module, "CHUNK", chunk)
        pending_high_water[0] = 0
        assert observe(cluster_config) == default, chunk
        assert pending_high_water[0] <= chunk


class CapturingBus(EventBus):
    made: list = []

    def __init__(self):
        super().__init__()
        self.made.append(self)


class CapturingExporter(ChromeTraceExporter):
    made: list = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.made.append(self)


@pytest.mark.parametrize("command", [
    "jacobi --nodes 4 --fault-partition 0:100:never",  # degrades
    F2_COMMAND,  # raised as a deadlock
])
def test_every_way_a_run_ends_delivers_every_event(command, tmp_path, monkeypatch):
    monkeypatch.setattr(repro.obs, "EventBus", CapturingBus)
    monkeypatch.setattr(repro.obs, "ChromeTraceExporter", CapturingExporter)
    monkeypatch.setattr(CapturingBus, "made", [])
    monkeypatch.setattr(CapturingExporter, "made", [])
    path = tmp_path / "t.json"
    try:
        main([*command.split(), "--trace-out", str(path)])
    except (SystemExit, SimulationError):
        pass
    [bus], [exporter] = CapturingBus.made, CapturingExporter.made
    assert bus.events_published > 0
    assert len(exporter.events) + exporter.dropped == bus.events_published
    assert path.exists()
