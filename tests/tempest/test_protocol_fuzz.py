"""Property-based fuzzing of the default coherence protocol.

Hypothesis generates random bulk-synchronous access schedules — per phase,
each node reads and/or writes a random subset of blocks, separated by
barriers — and runs them on the simulated cluster.  The properties:

* no deadlock (the simulation always drains),
* no stale read is ever observed (the version validator stays silent),
* the directory and access tags end mutually consistent:
  - EXCLUSIVE(n)  => only n holds a tag, and it is ReadWrite,
  - SHARED        => every directory-known sharer holds >= ReadOnly and
                     nobody holds ReadWrite except via compiler control
                     (not used here),
* determinism: the same schedule yields the same message counts.

This is the strongest net over the protocol state machines: every race the
transaction interleavings can produce must resolve coherently.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tempest import (
    AccessTag,
    Cluster,
    ClusterConfig,
    CombineConfig,
    DirState,
    Distribution,
    FaultConfig,
    HomePolicy,
    LinkFaultConfig,
    PartitionScenario,
    SharedMemory,
    SwitchConfig,
)
from repro.tempest.faults import CrashScenario, _US
from tests.tempest.conftest import sharers_of

N_NODES = 3
N_BLOCKS = 4


def build_cluster(
    home_policy, faults=None, protocol="invalidate", switch=None, combine=None,
    **wire,
):
    cfg = ClusterConfig(
        n_nodes=N_NODES,
        faults=faults or FaultConfig(),
        switch=switch or SwitchConfig(),
        combine=combine or CombineConfig(),
        **wire,
    )
    mem = SharedMemory(cfg, home_policy=home_policy)
    arr = mem.alloc("a", (16, N_BLOCKS), Distribution.block(N_NODES))
    return Cluster(cfg, mem, protocol=protocol), list(arr.block_range())


# One phase: per node, (read_mask, write_mask, compute_skew).
phase_strategy = st.tuples(
    *[
        st.tuples(
            st.integers(0, 2**N_BLOCKS - 1),
            st.integers(0, 2**N_BLOCKS - 1),
            st.integers(0, 3),
        )
        for _ in range(N_NODES)
    ]
)

schedule_strategy = st.lists(phase_strategy, min_size=1, max_size=6)
policy_strategy = st.sampled_from(
    [HomePolicy.ALIGNED, HomePolicy.ROUND_ROBIN, HomePolicy.NODE0]
)


def run_schedule(schedule, home_policy):
    cl, blocks = build_cluster(home_policy)

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

    stats = cl.run({n: node_program(n) for n in range(N_NODES)})
    return cl, blocks, stats


@given(schedule=schedule_strategy, policy=policy_strategy)
@settings(max_examples=120, deadline=None)
def test_random_schedules_stay_coherent(schedule, policy):
    cl, blocks, _stats = run_schedule(schedule, policy)
    # Post-quiescence consistency between tags and directory.
    for b in blocks:
        state = cl.directory.state_of(b)
        tags = [cl.access.get(n, b) for n in range(N_NODES)]
        if state is DirState.EXCLUSIVE:
            owner = cl.directory.owner_of(b)
            assert tags[owner] is AccessTag.READWRITE
            for n in range(N_NODES):
                if n != owner:
                    assert tags[n] is AccessTag.INVALID, (b, n, tags)
            # The owner's copy is the latest version.
            assert cl.directory.copy_is_current(owner, b)
        elif state is DirState.SHARED:
            for sharer in sharers_of(cl.directory, b):
                assert tags[sharer] in (AccessTag.READONLY, AccessTag.READWRITE)
                assert cl.directory.copy_is_current(sharer, b)
        else:  # IDLE: the home holds the data
            home = cl.directory.home_of(b)
            assert cl.directory.copy_is_current(home, b)


@given(schedule=schedule_strategy, policy=policy_strategy)
@settings(max_examples=40, deadline=None)
def test_random_schedules_deterministic(schedule, policy):
    _cl1, _b1, s1 = run_schedule(schedule, policy)
    _cl2, _b2, s2 = run_schedule(schedule, policy)
    assert s1.elapsed_ns == s2.elapsed_ns
    assert s1.messages_by_kind() == s2.messages_by_kind()
    assert s1.total_misses == s2.total_misses


@given(schedule=schedule_strategy)
@settings(max_examples=40, deadline=None)
def test_every_reader_after_barrier_sees_latest(schedule):
    """Explicit end-to-end staleness probe, beyond the built-in validator:
    after the final barrier, force every node to read every block — each
    either hits (validated current) or misses (fetches current)."""
    cl, blocks = build_cluster(HomePolicy.ALIGNED)

    def node_program(node):
        for phase_no, phase in enumerate(schedule, start=1):
            read_mask, write_mask, _skew = phase[node]
            reads = [b for i, b in enumerate(blocks) if read_mask >> i & 1]
            writes = [b for i, b in enumerate(blocks) if write_mask >> i & 1]
            yield from cl.read_blocks(node, reads, phase=phase_no)
            yield from cl.write_blocks(node, writes, phase=phase_no)
            yield from cl.barrier(node)
        yield from cl.read_blocks(node, blocks, phase=len(schedule) + 1)

    cl.run({n: node_program(n) for n in range(N_NODES)})


# --------------------------------------------------------------------- #
# Seeded fault-matrix sweep: the same schedules must end in the same
# protocol state whether or not the wire misbehaves — the reliable
# transport makes faults *invisible* above it (only timing changes).
# --------------------------------------------------------------------- #
FAULT_MATRIX = {
    "drop": FaultConfig(drop_prob=0.08, seed=11),
    "dup": FaultConfig(dup_prob=0.08, seed=11),
    "jitter": FaultConfig(jitter_ns=30_000, seed=11),
    "storm": FaultConfig(
        drop_prob=0.05, dup_prob=0.05, jitter_ns=15_000, seed=11
    ),
}


def fixed_schedule(n_phases=6, seed=2026):
    """One deterministic pseudo-random schedule, shared by all cells."""
    rng = random.Random(seed)
    return [
        tuple(
            (
                rng.randrange(2**N_BLOCKS),
                rng.randrange(2**N_BLOCKS),
                rng.randrange(4),
            )
            for _ in range(N_NODES)
        )
        for _ in range(n_phases)
    ]


def run_faulted(schedule, protocol, faults=None, switch=None, combine=None, **wire):
    cl, blocks = build_cluster(
        HomePolicy.ALIGNED, faults=faults, protocol=protocol,
        switch=switch, combine=combine, **wire,
    )

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

    stats = cl.run(
        {n: node_program(n) for n in range(N_NODES)},
        audit=True,
        audit_each_barrier=faults is not None,
    )
    return cl, stats


def protocol_state(cl):
    """Everything the protocol layer can observe, as comparable arrays."""
    return {
        "state": cl.directory.state.copy(),
        "owner": cl.directory.owner.copy(),
        "sharers": cl.directory.sharers.copy(),
        "global_version": cl.directory.global_version.copy(),
        "copy_version": cl.directory.copy_version.copy(),
        "tags": cl.access._tags.copy(),
    }


@pytest.mark.parametrize("protocol", ["invalidate", "update"])
@pytest.mark.parametrize("fault_name", sorted(FAULT_MATRIX))
def test_fault_matrix_preserves_protocol_outcome(protocol, fault_name):
    schedule = fixed_schedule()
    clean_cl, clean_stats = run_faulted(schedule, protocol)
    faulted_cl, faulted_stats = run_faulted(
        schedule, protocol, FAULT_MATRIX[fault_name]
    )
    # Identical final protocol state (validators + per-barrier audits
    # already passed during the run).  Timing shifts from retransmits and
    # jitter may legally re-order racy same-phase transactions — changing
    # the message mix along the way — but every schedule must converge to
    # the same tags, directory entries and versions.
    clean, faulted = protocol_state(clean_cl), protocol_state(faulted_cl)
    for key in clean:
        assert np.array_equal(clean[key], faulted[key]), key
    # Transport repairs stay below the protocol counters: acks and
    # retransmitted copies never show up as protocol messages...
    kinds = set(clean_stats.messages_by_kind()) | set(
        faulted_stats.messages_by_kind()
    )
    assert kinds <= set(clean_stats.messages_by_kind())
    # ...and reliability counters appear only where the wire misbehaved.
    assert not any(clean_stats.reliability_summary().values())


@pytest.mark.parametrize("protocol", ["invalidate", "update"])
def test_fault_matrix_is_seed_deterministic(protocol):
    schedule = fixed_schedule()
    runs = [
        run_faulted(schedule, protocol, FAULT_MATRIX["storm"])[1]
        for _ in range(2)
    ]
    assert runs[0].elapsed_ns == runs[1].elapsed_ns
    assert runs[0].reliability_summary() == runs[1].reliability_summary()


# --------------------------------------------------------------------- #
# Per-link-profile axis: asymmetric faults (one flaky link, or a healed
# partition window) must be just as invisible to the protocol layer as the
# uniform storms above — the transport repairs, parks and heals below it.
# --------------------------------------------------------------------- #
LINK_MATRIX = {
    "flaky-link": FaultConfig(
        seed=11,
        link_faults=(LinkFaultConfig(0, 1, drop_prob=0.3),),
    ),
    "storm-plus-profile": FaultConfig(
        drop_prob=0.05, dup_prob=0.05, jitter_ns=15_000, seed=11,
        link_faults=(LinkFaultConfig(1, 2, drop_prob=0.25, jitter_ns=40_000),),
    ),
    "healed-partition": FaultConfig(
        seed=11,
        partitions=(
            PartitionScenario(
                "blip", frozenset({1}),
                t_start_ns=50_000, duration_ns=1_500_000,
            ),
        ),
    ),
}


@pytest.mark.parametrize("protocol", ["invalidate", "update"])
@pytest.mark.parametrize("cell_name", sorted(LINK_MATRIX))
def test_link_matrix_preserves_protocol_outcome(protocol, cell_name):
    schedule = fixed_schedule()
    clean_cl, _ = run_faulted(schedule, protocol)
    cell_cl, cell_stats = run_faulted(
        schedule, protocol, LINK_MATRIX[cell_name]
    )
    assert cell_stats.completed  # the partition cell heals; nothing degrades
    clean, cell = protocol_state(clean_cl), protocol_state(cell_cl)
    for key in clean:
        assert np.array_equal(clean[key], cell[key]), key
    if cell_name == "healed-partition":
        # Channels that gave up inside the window were all drained.
        assert all(e["healed"] for e in cell_stats.partition_events)
        assert cell_stats.total_gave_up == len(cell_stats.partition_events)
    else:
        assert cell_stats.total_drops > 0  # the flaky link actually bit


@pytest.mark.parametrize("cell_name", sorted(LINK_MATRIX))
def test_link_matrix_is_seed_deterministic(cell_name):
    schedule = fixed_schedule()
    runs = [
        run_faulted(schedule, "invalidate", LINK_MATRIX[cell_name])[1]
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


# --------------------------------------------------------------------- #
# Switch axis: shared-switch contention stretches the same schedules
# (queueing, backpressure, retransmit timing) but — like faults and
# combining — must never change what the protocol layer concludes.
# --------------------------------------------------------------------- #
SWITCH_ON = SwitchConfig(enabled=True)

#: switch cells: ClusterConfig fields on top of the 3-node cluster
SWITCH_MATRIX = {
    "on": dict(switch=SWITCH_ON),
    # A half-rate wire: links and output ports forward at 10 bytes/us.
    "slow": dict(switch=SWITCH_ON, bandwidth_bytes_per_us=10.0),
}

COMBINE_ON = CombineConfig(enabled=True)


@pytest.mark.parametrize("combine", [None, COMBINE_ON], ids=["plain", "combine"])
@pytest.mark.parametrize("switch_name", sorted(SWITCH_MATRIX))
def test_switch_matrix_preserves_protocol_outcome(switch_name, combine):
    # faults x combine x switch against the clean link-only baseline.
    schedule = fixed_schedule()
    clean_cl, _ = run_faulted(schedule, "invalidate")
    cell_cl, cell_stats = run_faulted(
        schedule, "invalidate",
        faults=FAULT_MATRIX["storm"],
        combine=combine,
        **SWITCH_MATRIX[switch_name],
    )
    clean, cell = protocol_state(clean_cl), protocol_state(cell_cl)
    for key in clean:
        assert np.array_equal(clean[key], cell[key]), key
    # The fabric was actually exercised, and the counters say so.
    assert cell_stats.total_switch_frames > 0
    assert len(cell_stats.ports) == N_NODES


def test_switch_off_cells_report_no_switch_counters():
    schedule = fixed_schedule()
    _cl, stats = run_faulted(
        schedule, "invalidate", faults=FAULT_MATRIX["storm"]
    )
    assert stats.total_switch_frames == 0
    assert stats.ports == []
    assert "switch_frames" not in stats.summary()


@pytest.mark.parametrize("protocol", ["invalidate", "update"])
def test_contended_runs_are_golden_deterministic(protocol):
    # Two identical seeded runs under full contention (storm faults +
    # combining + a switch on a slow wire) must produce *identical* ClusterStats —
    # dataclass equality covers every per-node counter, every per-port
    # counter, the event count and the clock.
    schedule = fixed_schedule()
    runs = [
        run_faulted(
            schedule, protocol,
            faults=FAULT_MATRIX["storm"],
            combine=COMBINE_ON,
            **SWITCH_MATRIX["slow"],
        )[1]
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    assert runs[0].events_dispatched == runs[1].events_dispatched
    assert runs[0].total_switch_wait_ns == runs[1].total_switch_wait_ns


def test_fault_matrix_final_memory_matches_fault_free():
    """End-to-end: a faulty wire must not change a program's numerics."""
    from repro.runtime import run_shmem
    from tests.runtime.conftest import jacobi_program

    cfg = ClusterConfig(n_nodes=4)
    prog = jacobi_program(n=32, iters=2)
    clean = run_shmem(prog, cfg)  # audit=True by default
    faulted = run_shmem(prog, cfg.scaled(faults=FAULT_MATRIX["storm"]))
    faulted.assert_same_numerics(clean)
    assert faulted.stats.reliability_summary()["retransmits"] > 0
    assert faulted.stats.messages_by_kind() == clean.stats.messages_by_kind()


# --------------------------------------------------------------------- #
# CRASH axis: a mid-run fail-stop with barrier checkpoints, alone and
# composed with the storm / switch / combine cells above.  The rollback
# re-replays the trace from the last consistent cut, so — like every
# other axis — the survivor must land on exactly the fault-free numerics
# and stay golden across identical seeded repeats.  Crash cells ride
# ``run_shmem`` because rollback needs the trace-replay program factory;
# the hand-built generator schedules above have nothing to re-spawn.
# --------------------------------------------------------------------- #
CRASH_MATRIX = {
    "crash": FaultConfig(
        crashes=(CrashScenario(2, 3_000 * _US, 500 * _US),),
        checkpoint_every=1,
    ),
    "crash+storm": FaultConfig(
        drop_prob=0.05, dup_prob=0.05, jitter_ns=15_000, seed=11,
        crashes=(CrashScenario(2, 3_000 * _US, 500 * _US),),
        checkpoint_every=1,
    ),
    "crash+sparse-ckpt": FaultConfig(
        crashes=(CrashScenario(1, 3_000 * _US, 250 * _US),),
        checkpoint_every=2,
    ),
}


def _run_crash_cell(faults, **layers):
    from repro.runtime import run_shmem
    from tests.runtime.conftest import jacobi_program

    cfg = ClusterConfig(n_nodes=4, faults=faults or FaultConfig(), **layers)
    return run_shmem(jacobi_program(n=32, iters=2), cfg)


@pytest.mark.parametrize("cell_name", sorted(CRASH_MATRIX))
def test_crash_matrix_recovers_fault_free_numerics(cell_name):
    clean = _run_crash_cell(None)
    cell = _run_crash_cell(CRASH_MATRIX[cell_name])
    assert cell.completed  # end-of-run audit ran clean post-recovery
    cell.assert_same_numerics(clean)
    assert cell.stats.recovery_rollbacks >= 1
    assert cell.stats.recovery_checkpoints >= 1
    assert all(e["recovered"] for e in cell.stats.crash_events)
    # Recovery is visible in the clock, never in the answer.
    assert cell.elapsed_ns > clean.elapsed_ns


def test_crash_composed_with_switch_and_combine():
    # Full-contention cell: fail-stop + shared switch on a slow wire +
    # combining.
    clean = _run_crash_cell(None)
    cell = _run_crash_cell(
        CRASH_MATRIX["crash"], combine=COMBINE_ON, **SWITCH_MATRIX["slow"]
    )
    assert cell.completed
    cell.assert_same_numerics(clean)
    assert cell.stats.recovery_rollbacks >= 1
    assert cell.stats.total_switch_frames > 0


@pytest.mark.parametrize("cell_name", sorted(CRASH_MATRIX))
def test_crash_matrix_is_golden_deterministic(cell_name):
    runs = [_run_crash_cell(CRASH_MATRIX[cell_name]) for _ in range(2)]
    assert runs[0].stats == runs[1].stats
    assert runs[0].elapsed_ns == runs[1].elapsed_ns
