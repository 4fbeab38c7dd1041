"""Golden no-perturbation guarantees.

The central promise of the observability layer: attaching a bus — with
any combination of subscribers — NEVER changes a run.  ``ClusterStats``
dataclass equality covers every per-node counter, per-port counter, the
event count, queue depth and the simulated clock, so these tests are
bitwise golden checks, not tolerances.
"""

import numpy as np
import pytest

from repro.obs import (
    ChromeTraceExporter,
    EventBus,
    MessageTracer,
    MetricsRegistry,
    Timeline,
)
from repro.runtime import run_shmem
from repro.tempest import HomePolicy
from repro.tempest.config import ClusterConfig
from tests.runtime.conftest import jacobi_program
from tests.tempest.test_protocol_fuzz import (
    COMBINE_ON,
    FAULT_MATRIX,
    N_NODES,
    SWITCH_MATRIX,
    build_cluster,
    fixed_schedule,
)

#: The golden configuration axis: perfect wire, fault storm, combining,
#: narrow shared switch.
CONFIGS = {
    "fault-free": {},
    "faults": {"faults": FAULT_MATRIX["storm"]},
    "combine": {"combine": COMBINE_ON},
    "switch": {"switch": SWITCH_MATRIX["narrow"]},
}


def run_schedule(instrument: bool, **cell_kwargs):
    schedule = fixed_schedule()
    cl, blocks = build_cluster(HomePolicy.ALIGNED, **cell_kwargs)
    if instrument:
        bus = cl.ensure_bus()
        # The full subscriber set at once.
        MetricsRegistry(bus, N_NODES)
        Timeline(bus, N_NODES, lineage=True)
        ChromeTraceExporter(bus, n_nodes=N_NODES)
        MessageTracer(bus, N_NODES)

    def node_program(node):
        for phase_no, phase in enumerate(schedule, start=1):
            read_mask, write_mask, skew = phase[node]
            if skew:
                yield from cl.compute(node, skew * 10_000)
            reads = [b for i, b in enumerate(blocks) if read_mask >> i & 1]
            writes = [b for i, b in enumerate(blocks) if write_mask >> i & 1]
            yield from cl.read_blocks(node, reads, phase=phase_no)
            yield from cl.write_blocks(node, writes, phase=phase_no)
            yield from cl.barrier(node)

    return cl.run({n: node_program(n) for n in range(N_NODES)}, audit=True)


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_full_subscriber_set_is_invisible(config):
    plain = run_schedule(False, **CONFIGS[config])
    instrumented = run_schedule(True, **CONFIGS[config])
    # Dataclass equality: every counter, port, clock tick identical.
    assert plain == instrumented


def test_instrumented_application_run_identical():
    """run_shmem with every observer on: stats AND numerics byte-identical."""
    prog = jacobi_program(n=32, iters=2)
    cfg = ClusterConfig(n_nodes=4)
    plain = run_shmem(prog, cfg)

    bus = EventBus()
    MetricsRegistry(bus, 4)
    ChromeTraceExporter(bus, n_nodes=4)
    MessageTracer(bus, 4)
    instrumented = run_shmem(prog, cfg, obs=bus, profile_phases=True)

    assert plain.stats == instrumented.stats
    assert plain.elapsed_ns == instrumented.elapsed_ns
    for name in plain.arrays:
        assert np.array_equal(plain.arrays[name], instrumented.arrays[name]), name
    assert plain.scalars == instrumented.scalars
    # The instrumented run observed real traffic while staying invisible.
    assert bus.events_published > 0
    assert instrumented.phase_breakdown is not None


def test_no_bus_means_no_events():
    """Zero-cost off: without a bus, nothing is even counted as published.

    (There is no bus object at all — the guard is ``obs is None`` at
    every publish site — so this asserts the wiring stays absent.)
    """
    prog = jacobi_program(n=32, iters=1)
    result = run_shmem(prog, ClusterConfig(n_nodes=4))
    assert result.phase_breakdown is None


def test_engine_queue_depth_and_rate_counters():
    """Satellite: cheap storm detectors on every ClusterStats summary."""
    prog = jacobi_program(n=32, iters=2)
    result = run_shmem(prog, ClusterConfig(n_nodes=4))
    stats = result.stats
    assert stats.max_queue_depth >= 4  # at least one pending event per node
    assert stats.events_dispatched > 0
    s = stats.summary()
    assert s["max_queue_depth"] == stats.max_queue_depth
    assert s["events_k"] == stats.events_dispatched / 1e3
    assert s["events_per_ms"] == pytest.approx(
        stats.events_dispatched / (stats.elapsed_ns / 1e6)
    )
    # A faulted run dispatches more events (retransmit timers) and its
    # queue runs deeper; the counters make that visible without a trace.
    faulted = run_shmem(prog, ClusterConfig(n_nodes=4),
                        faults=FAULT_MATRIX["storm"])
    assert faulted.stats.events_dispatched > stats.events_dispatched
    assert faulted.stats.max_queue_depth >= stats.max_queue_depth
