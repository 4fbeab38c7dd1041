"""Metrics registry: event-derived counters equal ClusterStats counters.

The fuzz-matrix axis of the observability PR: across faults x combining x
switch (the full contention stack), every counter the simulator keeps
inline must be reconstructible from the event stream alone — misses,
messages, retransmits, combined frames, switch queueing, per-port stats.
A drift between an emit site and its counter fails here loudly.

The registry is built from the counter declarations in
``repro.tempest.stats`` (``COUNTERS``), so the same table drives the
tests at the bottom: every declared counter is mutated once, every
countable field is declared, and every declared event is one ``src/``
emits with the payload argument the declaration names.
"""

import copy
import dataclasses
import functools
from collections import Counter

import pytest

from repro.obs import EventBus, MetricsRegistry
from repro.runtime import run_shmem
from repro.tempest import HomePolicy
from repro.tempest.config import ClusterConfig
from repro.tempest.stats import COUNTERS, ClusterStats, MsgKind, NodeStats, PortStats
from tests import pins
from tests.obs import counters_matrix
from tests.runtime.conftest import jacobi_program
from tests.test_docs import emit_sites
from tests.tempest.test_protocol_fuzz import (
    COMBINE_ON,
    FAULT_MATRIX,
    N_NODES,
    SWITCH_ON,
    build_cluster,
    fixed_schedule,
)

CELLS = {
    "clean": {},
    "storm": {"faults": FAULT_MATRIX["storm"]},
    "combine": {"combine": COMBINE_ON},
    "switch": {"switch": SWITCH_ON},
    "storm+combine+switch": {
        "faults": FAULT_MATRIX["storm"],
        "combine": COMBINE_ON,
        "switch": SWITCH_ON,
    },
}


def derived(registry, name, owner=NodeStats) -> int:
    """One event-derived counter summed over its owners (and kinds)."""
    return sum(
        sum(v.values()) if isinstance(v, Counter) else v
        for v in registry.derived[owner, name].values()
    )


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
        assert derived(registry, "net_retransmits") == stats.total_retransmits > 0
    if "combine" in cell:
        assert derived(registry, "combine_flushes") == stats.total_combine_flushes > 0
    if "switch" in cell:
        assert derived(registry, "switch_frames") == stats.total_switch_frames > 0
        assert set(registry.derived[PortStats, "frames"]) == {p.port for p in stats.ports}


def test_registry_matches_full_application_run():
    """End-to-end over the runtime: replayed jacobi, faults + combining."""
    bus = EventBus()
    registry = MetricsRegistry(bus, 4)
    result = run_shmem(
        jacobi_program(n=32, iters=2),
        ClusterConfig(n_nodes=4, faults=FAULT_MATRIX["storm"], combine=COMBINE_ON),
        obs=bus,
    )
    registry.assert_matches(result.stats)
    assert derived(registry, "messages") == result.stats.total_messages


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
    for name in ("recovery_checkpoints", "recovery_checkpoint_bytes", "recovery_ns"):
        assert derived(registry, name, ClusterStats) == getattr(stats, name) > 0
    assert derived(registry, "recovery_rollbacks", ClusterStats) == stats.recovery_rollbacks == 1


@pytest.mark.parametrize("cell", counters_matrix.CELLS)
def test_matrix_cells_cross_check_and_reproduce_the_parent_digests(cell):
    """Replayed jacobi over the attribution matrix + advisory prefetch
    through the switch + a degraded run: the registry agrees on every
    cell, and everything ``ClusterStats`` aggregates hashes to what the
    hand-written ``total_*``/``*_summary`` of PR 17's parent produced."""
    bus = EventBus()
    registry = MetricsRegistry(bus, ClusterConfig().n_nodes)
    result = counters_matrix.run_counters_cell(cell, obs=bus)
    stats = result.stats
    assert registry.diff(stats) == []
    assert counters_matrix.digest(counters_matrix.aggregates(stats)) == (
        pins.stored("counters")[cell]
    )
    assert result.completed == (cell != "degraded")
    if cell == "advisory+switch":
        # The two counters nothing cross-checked before this table.
        assert derived(registry, "prefetches") == sum(n.prefetches for n in stats.nodes) > 0
        assert max(registry.derived[PortStats, "max_depth"].values()) == stats.max_port_depth >= 2
    if cell == "degraded":
        assert derived(registry, "net_gave_up") == stats.total_gave_up > 0


EVENT_DERIVED = [(cls, f) for cls, f in COUNTERS if f.metadata["event"] is not None]
#: Declared, but no event re-derives them; ``NodeStats`` says why.
NOT_EVENT_DERIVED = {"compute_ns", "stall_ns", "barrier_ns", "call_ns", "reduce_ns"}


@functools.lru_cache(maxsize=None)
def _switch_cell():
    return run_instrumented(**CELLS["switch"])  # the cell with ports to mutate


@pytest.mark.parametrize(
    "cls, f", EVENT_DERIVED, ids=[f"{cls.__name__}.{f.name}" for cls, f in EVENT_DERIVED]
)
def test_diff_reports_mismatch(cls, f):
    """``+1`` on the stats side of any one declared counter — node, port
    or cluster level — is exactly one diff line naming that counter."""
    registry, clean = _switch_cell()
    assert registry.diff(clean) == []
    stats = copy.deepcopy(clean)
    owner, label = {
        NodeStats: (stats.nodes[0], "node 0"),
        PortStats: (stats.ports[0], f"port {stats.ports[0].port}"),
        ClusterStats: (stats, "cluster"),
    }[cls]
    if f.metadata["keyed"]:
        getattr(owner, f.name)[MsgKind.ACK] += 1
    else:
        setattr(owner, f.name, getattr(owner, f.name) + 1)
    (line,) = registry.diff(stats)
    assert line.startswith(f"{label} {f.name}: ")
    with pytest.raises(AssertionError, match=f.name):
        registry.assert_matches(stats)


def test_every_countable_field_is_declared_and_every_declared_event_is_emitted():
    declared = {(cls, f.name) for cls, f in COUNTERS}
    countable = {
        (cls, f.name)
        for cls in (NodeStats, PortStats, ClusterStats)
        for f in dataclasses.fields(cls)
        if f.type in ("int", "Counter")
        and f.name not in ("node", "port")
        and (cls is not ClusterStats or f.name.startswith("recovery_"))
    }
    assert countable == declared
    assert {f.name for _, f in COUNTERS if f.metadata["event"] is None} == NOT_EVENT_DERIVED
    sites = emit_sites()
    for cls, f in EVENT_DERIVED:
        event, arg = f.metadata["event"], f.metadata["arg"]
        assert event in sites, f"{cls.__name__}.{f.name}: no emit site for {event!r}"
        assert arg is None or all(arg in kwargs for kwargs in sites[event]), (
            f"{cls.__name__}.{f.name}: an emit of {event!r} passes no {arg!r}"
        )
