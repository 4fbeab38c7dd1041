"""One attribution matrix for both foldings of the timeline.

Per cell of ``attribution_matrix.CELLS`` the run's own
:class:`~repro.obs.Timeline` and the parent's two streaming subscribers
(``attribution_oracle``) listen to the same bus, and:

* **Differential** — ``phase_breakdown`` / ``critical_path`` equal the
  oracle's dicts, and hash to the digests pinned on the parent;
* **Exactness** — per node the buckets sum to ``node_total_ns`` and the
  slowest node's total is ``elapsed_ns`` (bar the one cell whose engine
  drain outlives its programs); the critical-path classes sum
  to ``elapsed_ns`` by class and by node — to the nanosecond, through
  heals, rollbacks and the two composed-fault cells;
* **Invisibility** — the observed run is ``ClusterStats``-equal to a
  bare one.
"""

import functools

import pytest

from repro.apps import APPS
from repro.obs import EventBus, Timeline, critical_path, phase_breakdown
from repro.runtime import run_shmem
from repro.tempest.config import ClusterConfig
from repro.tempest.faults import CrashScenario, FaultConfig, PartitionScenario
from tests import pins
from tests.obs.attribution_matrix import CELLS, digest, run_cell
from tests.obs.attribution_oracle import CriticalPathAnalyzer, PhaseProfiler

DIGESTS = pins.stored("attribution")

N_NODES = 8  # ClusterConfig()'s default, which every cell runs on


@functools.lru_cache(maxsize=None)
def observed(cell: str):
    """(result, oracle phase_breakdown, oracle critical_path) of one cell,
    the oracle subscribers riding the run's own bus."""
    bus = EventBus()
    profiler = PhaseProfiler(bus, N_NODES)
    analyzer = CriticalPathAnalyzer(bus, N_NODES)
    r = run_cell(cell, obs=bus)
    assert r.completed and len(r.stats.nodes) == N_NODES
    return r, profiler.breakdown(), analyzer.result(r.elapsed_ns)


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_foldings_match_oracle_and_parent_digests(cell):
    r, oracle_bd, oracle_cp = observed(cell)
    assert r.phase_breakdown == oracle_bd
    assert r.critical_path == oracle_cp
    assert [digest(r.phase_breakdown), digest(r.critical_path)] == DIGESTS[cell]
    assert [digest(oracle_bd), digest(oracle_cp)] == DIGESTS[cell]


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_both_foldings_are_exact(cell):
    r, _, _ = observed(cell)
    bd, cp = r.phase_breakdown, r.critical_path
    for n in range(bd["n_nodes"]):
        total = sum(sum(ph["node_ns"][n].values()) for ph in bd["phases"])
        assert total == bd["node_total_ns"][n]
    # A fault-free run ends when the engine drains, and a combining
    # buffer's flush timer outlives the last op: the one cell with trailing
    # non-op time (the critical path charges it to ``protocol``).
    trailing = r.elapsed_ns - max(bd["node_total_ns"])
    assert trailing > 0 if cell == "combine" else trailing == 0
    assert cp["elapsed_ns"] == r.elapsed_ns
    assert sum(cp["classes"].values()) == r.elapsed_ns
    assert sum(sum(nb.values()) for nb in cp["classes_by_node"]) == r.elapsed_ns


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_observed_run_is_stats_equal_to_a_bare_run(cell):
    r, _, _ = observed(cell)
    bare = run_cell(cell, profile_phases=False, critical_path=False)
    assert bare.phase_breakdown is None and bare.critical_path is None
    assert bare.stats == r.stats
    assert bare.elapsed_ns == r.elapsed_ns


def test_composed_fault_cells_exercise_both_carvers():
    """The two new cells really are heal x rollback compositions."""
    for cell in ("crash-in-partition", "crash-after-heal"):
        r, _, _ = observed(cell)
        assert r.stats.recovery_rollbacks == 1 and r.stats.total_gave_up > 0
        totals = {
            b: sum(ph["total_ns"][b] for ph in r.phase_breakdown["phases"])
            for b in ("transport_recovery", "recovery")
        }
        assert totals["transport_recovery"] > 0 and totals["recovery"] > 0


def test_profiled_critical_run_attaches_exactly_one_subscriber():
    bus = EventBus()
    r = run_cell("clean", obs=bus)
    assert len(bus._folds) == 1
    assert r.phase_breakdown is not None and r.critical_path is not None


def test_crash_outage_is_a_span_not_a_hole():
    """Every node's ledger abuts from 0 to its end — rollback included."""
    bus = EventBus()
    tl = Timeline(bus, N_NODES, lineage=True)
    r = run_cell("crash-in-partition", obs=bus)
    kinds = set()
    for spans in tl.spans:
        assert spans[0][0] == 0
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        kinds.update(s[2] for s in spans)
    assert {"outage", "redo"} <= kinds
    assert max(spans[-1][1] for spans in tl.spans) == r.elapsed_ns
    # A second recorder on the same bus folds to the run's own dicts.
    assert phase_breakdown(tl) == r.phase_breakdown
    assert critical_path(tl, r.elapsed_ns) == r.critical_path


def test_trailing_rollback_starts_the_walk_on_the_node_that_worked_longest():
    """Found by a randomized differential while porting: the crash lands
    once every node has replayed its last op, so every ledger *ends* in the
    outage, all at the restart instant == ``elapsed_ns``.  The walk starts
    on the node whose own work ended last, as the streaming analyzer did."""
    faults = FaultConfig(
        drop_prob=0.03, dup_prob=0.05, seed=3, max_retries=4,
        partitions=(
            PartitionScenario(
                "cut", frozenset({1}), t_start_ns=1_180_225, duration_ns=1_059_551
            ),
        ),
        crashes=(CrashScenario(node=3, t_ns=5_298_456, restart_delay_ns=0),),
        checkpoint_every=4,
    )
    bus = EventBus()
    profiler = PhaseProfiler(bus, 4)
    analyzer = CriticalPathAnalyzer(bus, 4)
    timeline = Timeline(bus, 4)
    r = run_shmem(
        APPS["jacobi"].program(n=32, iters=2), ClusterConfig(n_nodes=4, faults=faults),
        obs=bus, profile_phases=True, critical_path=True,
    )
    assert r.completed and r.stats.recovery_rollbacks == 1
    assert {spans[-1][1:3] for spans in timeline.spans} == {(r.elapsed_ns, "outage")}
    assert r.phase_breakdown == profiler.breakdown()
    assert r.critical_path == analyzer.result(r.elapsed_ns)
