"""Metrics registry: event-derived counters equal ClusterStats counters.

The fuzz-matrix axis of the observability PR: across faults x combining x
switch (the full contention stack), every counter the simulator keeps
inline must be reconstructible from the event stream alone — misses,
messages, retransmits, combined frames, switch queueing, per-port stats.
A drift between an emit site and its counter fails here loudly.
"""

import pytest

from repro.obs import EventBus, MetricsRegistry
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

CELLS = {
    "clean": {},
    "storm": {"faults": FAULT_MATRIX["storm"]},
    "combine": {"combine": COMBINE_ON},
    "switch": {"switch": SWITCH_MATRIX["narrow"]},
    "storm+combine+switch": {
        "faults": FAULT_MATRIX["storm"],
        "combine": COMBINE_ON,
        "switch": SWITCH_MATRIX["narrow"],
    },
}


def run_instrumented(protocol="invalidate", analyzer=False, **cell_kwargs):
    schedule = fixed_schedule()
    cl, blocks = build_cluster(HomePolicy.ALIGNED, protocol=protocol, **cell_kwargs)
    bus = cl.ensure_bus()
    registry = MetricsRegistry(bus, N_NODES)
    if analyzer:
        # Lineage consumer riding along: the timeline recorder subscribes
        # to the same stream and must not disturb the counters.
        from repro.obs import Timeline

        Timeline(bus, N_NODES, lineage=True)

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

    stats = cl.run({n: node_program(n) for n in range(N_NODES)}, audit=True)
    return registry, stats


@pytest.mark.parametrize("protocol", ["invalidate", "update"])
@pytest.mark.parametrize("cell", sorted(CELLS))
def test_registry_matches_stats_across_matrix(cell, protocol):
    registry, stats = run_instrumented(protocol=protocol, **CELLS[cell])
    registry.assert_matches(stats)
    # The cells actually exercised what they claim to.
    if "storm" in cell:
        assert sum(registry.net_retransmits) == stats.total_retransmits > 0
    if "combine" in cell:
        assert sum(registry.combine_flushes) == stats.total_combine_flushes > 0
    if "switch" in cell:
        assert sum(registry.switch_frames) == stats.total_switch_frames > 0
        assert set(registry.ports) == {p.port for p in stats.ports}


def test_registry_matches_full_application_run():
    """End-to-end over the runtime: replayed jacobi, faults + combining."""
    bus = EventBus()
    registry = MetricsRegistry(bus, 4)
    result = run_shmem(
        jacobi_program(n=32, iters=2),
        ClusterConfig(n_nodes=4),
        faults=FAULT_MATRIX["storm"],
        combine=COMBINE_ON,
        obs=bus,
    )
    registry.assert_matches(result.stats)
    assert sum(sum(c.values()) for c in registry.messages) == result.stats.total_messages


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_registry_matches_with_lineage_analyzer(cell):
    """Lineage-enabled cells: analyzer subscribed, counters still exact."""
    registry, stats = run_instrumented(analyzer=True, **CELLS[cell])
    registry.assert_matches(stats)


def test_registry_matches_recovery_counters():
    """Crash + checkpoint + rollback: recovery counters rebuilt from events."""
    from repro.tempest.faults import CrashScenario, FaultConfig
    from tests.runtime.conftest import jacobi_program

    cfg = ClusterConfig(
        faults=FaultConfig(
            drop_prob=0.02,
            seed=7,
            checkpoint_every=1,
            crashes=(
                CrashScenario(node=2, t_ns=3_000_000, restart_delay_ns=500_000),
            ),
        )
    )
    bus = EventBus()
    registry = MetricsRegistry(bus, cfg.n_nodes)
    result = run_shmem(jacobi_program(n=32, iters=2), cfg, optimize=True, obs=bus)
    assert result.completed
    registry.assert_matches(result.stats)
    stats = result.stats
    assert registry.recovery_checkpoints == stats.recovery_checkpoints > 0
    assert registry.recovery_checkpoint_bytes == stats.recovery_checkpoint_bytes > 0
    assert registry.recovery_rollbacks == stats.recovery_rollbacks == 1
    assert registry.recovery_ns == stats.recovery_ns > 0


def test_diff_reports_mismatch():
    registry, stats = run_instrumented()
    stats.nodes[0].read_misses += 1
    diff = registry.diff(stats)
    assert diff and "read_misses" in diff[0]
    with pytest.raises(AssertionError):
        registry.assert_matches(stats)
