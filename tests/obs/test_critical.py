"""Critical-path folding: exact-sum invariant, invisibility, what-if bounds.

The tentpole guarantees under test:

* **Exactness** — the critical-path decomposition sums to ``elapsed_ns``
  to the nanosecond, across the full contention stack (faults x combining
  x switch) and through crash + checkpoint + rollback recovery;
* **Invisibility** — threading causal lineage and attaching the recorder
  never changes a run: stats, elapsed time and numerics stay bitwise
  identical to an unobserved run;
* **What-if bounds** — zeroing one cost class reports exactly
  ``elapsed - classes[knob]``, never negative, and the barrier knob is
  the perfect-overlap bound;
* **Self-diff** — ``diff_breakdowns(r, r)`` is all-zero, and the class
  deltas of any diff sum exactly to the elapsed delta.
"""

import dataclasses

import numpy as np
import pytest

from repro.obs import COST_CLASSES, render_critical_path
from repro.runtime import run_shmem
from repro.serve.compare import diff_breakdowns, render_diff
from repro.tempest.config import ClusterConfig
from repro.tempest.faults import CrashScenario, FaultConfig
from tests.obs.attribution_matrix import CELLS
from tests.obs.test_attribution import observed
from tests.runtime.conftest import jacobi_program
from tests.tempest.test_protocol_fuzz import FAULT_MATRIX


def run_cp(profile=False, **kwargs):
    return run_shmem(
        jacobi_program(n=32, iters=2),
        ClusterConfig(),
        critical_path=True,
        profile_phases=profile,
        **kwargs,
    )


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_critical_path_sums_to_elapsed_exactly(cell):
    # The cell table, the oracle differential and the phase-side invariants
    # are tests/obs/test_attribution.py's; this reads the same cached run.
    r, _, _ = observed(cell)
    cp = r.critical_path
    assert cp["elapsed_ns"] == r.elapsed_ns
    # To the nanosecond, twice over: by class and by node.
    assert sum(cp["classes"].values()) == r.elapsed_ns
    assert sum(sum(nb.values()) for nb in cp["classes_by_node"]) == r.elapsed_ns
    assert set(cp["classes"]) == set(COST_CLASSES)
    assert all(v >= 0 for v in cp["classes"].values())
    if "crash" in cell:
        # The outage + re-execution is visible on the critical path.
        assert cp["classes"]["transport_recovery"] > 0


def test_lineage_and_analyzer_are_invisible():
    """Lineage-on run is ClusterStats- and numerics-identical to off."""
    prog = jacobi_program(n=32, iters=2)
    cfg = ClusterConfig()
    plain = run_shmem(prog, cfg)
    traced = run_shmem(prog, cfg, critical_path=True, profile_phases=True)
    assert plain.stats == traced.stats
    assert plain.elapsed_ns == traced.elapsed_ns
    for name in plain.arrays:
        assert np.array_equal(plain.arrays[name], traced.arrays[name]), name
    assert plain.scalars == traced.scalars
    assert plain.critical_path is None and traced.critical_path is not None


def test_whatif_bounds():
    r = run_cp(faults=FAULT_MATRIX["storm"])
    cp = r.critical_path
    for knob, cls in (
        ("barrier", "barrier_slack"),
        ("wire", "wire"),
        ("retransmit", "transport_recovery"),
    ):
        bound = cp["whatif"][knob]
        assert bound == cp["elapsed_ns"] - cp["classes"][cls]
        assert 0 <= bound <= cp["elapsed_ns"]
    text = render_critical_path(cp, whatif="barrier")
    assert "what-if barrier" in text and "saves at most" in text
    # Without a knob, every bound is rendered.
    assert render_critical_path(cp).count("what-if") == 3


def test_degraded_run_has_no_critical_path():
    """A never-restarting crash degrades; no exact decomposition exists."""
    r = run_shmem(
        jacobi_program(n=32, iters=2),
        ClusterConfig(),
        critical_path=True,
        faults=FaultConfig(crashes=(CrashScenario(node=2, t_ns=3_000_000),)),
    )
    assert not r.completed
    assert r.critical_path is None


class TestDiffBreakdowns:
    def test_self_diff_all_zero(self):
        r = run_cp(profile=True)
        d = diff_breakdowns(r, r)
        assert d["elapsed_ns"]["delta"] == 0
        assert all(v["delta"] == 0 for v in d["classes"].values())
        assert all(n["delta"] == 0 for n in d["nodes"])
        assert all(p["delta"] == 0 for p in d["phases"])
        assert "runs are identical" in render_diff(d)

    def test_class_deltas_sum_to_elapsed_delta(self):
        a = run_cp(profile=True)
        b = run_cp(profile=True, faults=FAULT_MATRIX["storm"])
        d = diff_breakdowns(a, b)
        delta = d["elapsed_ns"]["delta"]
        assert delta == b.elapsed_ns - a.elapsed_ns != 0
        assert sum(v["delta"] for v in d["classes"].values()) == delta
        assert sum(n["delta"] for n in d["nodes"]) == delta
        assert "attribution:" in render_diff(d)

    def test_unprofiled_views_come_back_none(self):
        a = run_cp()  # critical path only, no phase profiler
        d = diff_breakdowns(a, a)
        assert d["classes"] is not None
        assert d["phases"] is None

    def test_phases_align_on_their_own_index(self):
        """Regression: phases were paired by list position and the position
        was reported as ``index`` — ``phase 4 'copy'`` for the phase
        ``--profile-phases`` prints as ``5 copy``."""
        r = run_cp(profile=True)
        d = diff_breakdowns(r, r)
        assert [p["index"] for p in d["phases"]] == [
            p["index"] for p in r.phase_breakdown["phases"]
        ] == [1, 2, 3, 4, 5]
        assert [p["label"] for p in d["phases"]] == [
            p["label"] for p in r.phase_breakdown["phases"]
        ]

    def test_phase_on_one_side_only_is_not_mispaired(self):
        """Only run B has the synthetic ``startup`` phase 0: it diffs against
        nothing, and every real phase still meets its namesake."""
        a = run_cp(profile=True)
        startup = {
            "index": 0,
            "label": "startup",
            "node_ns": [],
            "total_ns": dict.fromkeys(a.phase_breakdown["buckets"], 0)
            | {"compute": 700},
        }
        b = dataclasses.replace(
            a,
            phase_breakdown={
                **a.phase_breakdown,
                "phases": [startup, *a.phase_breakdown["phases"]],
            },
        )
        for d, sign in ((diff_breakdowns(a, b), 1), (diff_breakdowns(b, a), -1)):
            assert [p["index"] for p in d["phases"]] == [0, 1, 2, 3, 4, 5]
            first, *rest = d["phases"]
            assert first["label"] == "startup"
            assert first["delta"] == sign * 700
            assert first["buckets"]["compute"]["delta"] == sign * 700
            assert all(p["delta"] == 0 for p in rest)
            assert "phase 0 'startup'" in render_diff(d)
