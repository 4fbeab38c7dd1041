"""Per-phase folding: exact decomposition, phase mapping, recovery bucket.

The fault x combining x switch x crash cells live in the one matrix both
foldings share (``tests/obs/test_attribution.py``); this file keeps the
4-node structure checks and the synthetic-event cases.
"""

import pytest

from repro.obs import (
    BUCKETS,
    EventBus,
    Timeline,
    breakdown_totals,
    phase_breakdown,
    render_breakdown,
)
from repro.runtime import run_shmem
from repro.tempest.config import ClusterConfig
from repro.tempest.faults import FaultConfig, PartitionScenario
from tests.runtime.conftest import jacobi_program

N = 4


def profiled_run(**kwargs):
    cfg = ClusterConfig(n_nodes=N)
    return run_shmem(jacobi_program(n=32, iters=2), cfg,
                     profile_phases=True, **kwargs)


class TestExactness:
    def test_bucket_sums_equal_node_totals_to_the_ns(self):
        bd = profiled_run().phase_breakdown
        for n in range(N):
            total = sum(
                sum(ph["node_ns"][n][b] for b in bd["buckets"])
                for ph in bd["phases"]
            )
            assert total == bd["node_total_ns"][n]

    def test_slowest_node_total_is_elapsed(self):
        # Replayed ops are contiguous from t=0, so the slowest node's op
        # spans tile the whole run exactly.
        res = profiled_run()
        assert max(res.phase_breakdown["node_total_ns"]) == res.elapsed_ns

    def test_optimized_run_decomposes_exactly_too(self):
        # dual_cpu at n=64 is the smallest config where the optimizer
        # actually engages (at n=32 single-CPU the plans are no-ops).
        prog = jacobi_program(n=64, iters=2)
        cfg = ClusterConfig(n_nodes=N, dual_cpu=True)
        unopt = run_shmem(prog, cfg, profile_phases=True)
        res = run_shmem(prog, cfg, profile_phases=True,
                        optimize=True, rt_elim=True)
        bd = res.phase_breakdown
        assert max(bd["node_total_ns"]) == res.elapsed_ns
        totals = breakdown_totals(bd)
        assert sum(totals.values()) == sum(bd["node_total_ns"])
        # The Figure-4 effect: less read-miss stalling, some explicit
        # protocol work (flush/inv ops) appearing as overhead instead.
        unopt_totals = breakdown_totals(unopt.phase_breakdown)
        assert totals["read_miss"] < unopt_totals["read_miss"]
        assert totals["protocol_overhead"] > 0


class TestPhases:
    def test_phases_follow_program_structure(self):
        bd = profiled_run().phase_breakdown
        labels = [ph["label"] for ph in bd["phases"]]
        # init, then (sweep, copy) x 2 iterations.
        assert labels == ["init", "sweep", "copy", "sweep", "copy"]
        assert [ph["index"] for ph in bd["phases"]] == [1, 2, 3, 4, 5]

    def test_fault_free_run_has_no_recovery_time(self):
        totals = breakdown_totals(profiled_run().phase_breakdown)
        assert totals["transport_recovery"] == 0
        assert totals["compute"] > 0 and totals["barrier_wait"] > 0

    def test_ops_without_markers_land_in_startup_phase(self):
        bus = EventBus()
        timeline = Timeline(bus, 1)
        bus.emit("op", 0, 100, 0, None, {"op": "compute"})
        bd = phase_breakdown(timeline)
        assert bd["phases"][0]["label"] == "startup"
        assert bd["phases"][0]["node_ns"][0]["compute"] == 100


class TestRecoveryBucket:
    def test_partition_time_is_attributed_to_transport_recovery(self):
        faults = FaultConfig(
            partitions=(
                PartitionScenario(
                    "cut", frozenset({1}),
                    t_start_ns=200_000, duration_ns=2_500_000,
                ),
            ),
            max_retries=6,
        )
        res = profiled_run(faults=faults)
        assert res.completed  # the partition healed
        assert res.stats.total_gave_up > 0  # and channels really gave up
        totals = breakdown_totals(res.phase_breakdown)
        assert totals["transport_recovery"] > 0
        # Recovery is carved out of the waiting buckets, never compute.
        clean = breakdown_totals(profiled_run().phase_breakdown)
        assert totals["compute"] == clean["compute"]

    def test_recovery_never_exceeds_op_duration(self):
        bus = EventBus()
        timeline = Timeline(bus, 1)
        bus.emit(
            "channel.giveup", 0, 0, 0, None,
            {"dst": 1, "parked": 2, "scenario": "s"},
        )
        # Window still open: a read op fully inside it converts wholly.
        bus.emit("op", 10, 50, 0, None, {"op": "read"})
        bd = phase_breakdown(timeline)
        buckets = bd["phases"][0]["node_ns"][0]
        assert buckets["transport_recovery"] == 50
        assert buckets["read_miss"] == 0


class TestRollbackLedger:
    """The two recovery rules of the recorder, on hand-built events."""

    def script(self):
        bus = EventBus()
        timeline = Timeline(bus, 2)
        bus.emit("phase", 0, 0, 0, None, {"index": 1, "label": "sweep"})
        bus.emit("op", 0, 100, 0, None, {"op": "compute", "idx": 0})
        bus.emit("op", 100, 50, 0, None, {"op": "read", "idx": 1})
        bus.emit(
            "channel.giveup", 120, 0, 1, None,
            {"dst": 0, "parked": 1, "scenario": "s"},
        )
        bus.emit("op", 0, 130, 1, None, {"op": "barrier", "idx": 0})
        # Crash: everyone restarts at t=400 from cursor 0; node 0 had
        # reached op 2, node 1 op 1.
        bus.emit(
            "recover.rollback", 400, 0, None, None,
            {"gen": 0, "resume": [0, 0], "reached": [2, 1]},
        )
        bus.emit("op", 400, 100, 0, None, {"op": "compute", "idx": 0})
        bus.emit("op", 500, 50, 0, None, {"op": "read", "idx": 1})
        bus.emit("op", 550, 30, 0, None, {"op": "write", "idx": 2})
        bus.emit("op", 400, 200, 1, None, {"op": "barrier", "idx": 0})
        bus.emit("op", 600, 10, 1, None, {"op": "barrier", "idx": 1})
        return timeline

    def test_outage_is_a_span_and_replayed_ops_are_redo(self):
        timeline = self.script()
        assert timeline.spans[0] == [
            (0, 100, "compute", 1),
            (100, 150, "read", 1),
            (150, 400, "outage", 1),
            (400, 500, "redo", 1),
            (500, 550, "redo", 1),
            (550, 580, "write", 1),
        ]
        # Node 1 never saw a phase marker: its spans, the outage included,
        # land in the synthetic startup phase.
        assert timeline.spans[1] == [
            (0, 130, "barrier", 0),
            (130, 400, "outage", 0),
            (400, 600, "redo", 0),
            (600, 610, "barrier", 0),
        ]
        assert timeline.labels == {1: "sweep", 0: "startup"}

    def test_rollback_closes_the_open_partition_window(self):
        timeline = self.script()
        # No channel.heal was published: the transport reset healed it.
        assert timeline.cuts == [[], [[120, 400]]]
        bd = phase_breakdown(timeline)
        assert bd["node_total_ns"] == [580, 610]
        assert [ph["index"] for ph in bd["phases"]] == [0, 1]
        startup, sweep = bd["phases"]
        assert sweep["node_ns"][0] == dict.fromkeys(BUCKETS, 0) | {
            "compute": 100, "read_miss": 50, "write_miss": 30,
            "recovery": 250 + 150,
        }
        # Pre-crash barrier [0, 130) overlaps the cut for 10 ns; the
        # post-restart one is past the window and stays barrier_wait.
        assert startup["node_ns"][1] == dict.fromkeys(BUCKETS, 0) | {
            "barrier_wait": 120 + 10, "transport_recovery": 10,
            "recovery": 270 + 200,
        }


class TestRendering:
    def test_render_breakdown_table(self):
        bd = profiled_run().phase_breakdown
        text = render_breakdown(bd)
        lines = text.splitlines()
        assert "phase" in lines[0]
        for b in BUCKETS:
            assert b[:12] in lines[0]
        assert lines[-1].startswith("all phases")
        # One row per phase + header + all-phases.
        assert len(lines) == len(bd["phases"]) + 2

    def test_render_truncates_long_runs(self):
        bd = profiled_run().phase_breakdown
        text = render_breakdown(bd, max_phases=2)
        assert "more phases" in text
