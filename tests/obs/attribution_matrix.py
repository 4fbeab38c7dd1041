"""The one cell table both time-attribution foldings are tested over.

Every cell replays jacobi (n=32 unless the cell says otherwise) x 2
iterations on the default 8-node cluster with ``profile_phases`` and
``critical_path`` on.  The ``attribution`` table of :mod:`tests.pins`
pins, per cell, a type-strict sha256 of each of the two result dicts, as
the streaming ``PhaseProfiler`` and ``CriticalPathAnalyzer`` (now the
oracle ``tests/obs/attribution_oracle.py``) produced them.
"""

from __future__ import annotations

import hashlib
import json

from repro.runtime import run_shmem
from repro.tempest.faults import CrashScenario, FaultConfig, PartitionScenario
from tests.runtime.conftest import cell_config, jacobi_program
from tests.tempest.test_protocol_fuzz import COMBINE_ON, FAULT_MATRIX, SWITCH_ON

#: Node 1 is cut off 0.2 ms in and the cut heals 2.5 ms later; channels
#: give up after six retries, so the heal is a real ``channel.heal``.
_CUT = PartitionScenario(
    "cut", frozenset({1}), t_start_ns=200_000, duration_ns=2_500_000
)


def _crash(t_ns: int, **faults) -> FaultConfig:
    """Node 2 fail-stops at ``t_ns`` and restarts 0.5 ms later; with
    per-barrier checkpoints the run rolls back and completes, so an exact
    decomposition exists (a degraded run has no critical path)."""
    return FaultConfig(
        checkpoint_every=1,
        crashes=(CrashScenario(node=2, t_ns=t_ns, restart_delay_ns=500_000),),
        **faults,
    )


#: run_shmem kwargs per matrix cell (``n`` goes to the program instead).
CELLS = {
    "clean": {},
    # n=64 is the smallest grid where the optimizer actually engages on
    # this cluster (at n=32 the plans are no-ops and "opt" == "clean").
    "opt": {"n": 64, "optimize": True, "rt_elim": True},
    "storm": {"faults": FAULT_MATRIX["storm"]},
    "combine": {"combine": COMBINE_ON},
    "switch": {"switch": SWITCH_ON},
    "storm+combine+switch": {
        "faults": FAULT_MATRIX["storm"],
        "combine": COMBINE_ON,
        "switch": SWITCH_ON,
    },
    "healed-partition": {
        "faults": FaultConfig(partitions=(_CUT,), max_retries=6),
    },
    "crash+rollback": {"optimize": True, "faults": _crash(3_000_000)},
    # Composed faults: the crash lands while the cut is open (the rollback
    # closes the give-up windows), and after it has healed.
    "crash-in-partition": {
        "faults": _crash(1_000_000, partitions=(_CUT,), max_retries=6),
    },
    "crash-after-heal": {
        "faults": _crash(4_000_000, partitions=(_CUT,), max_retries=6),
    },
}


def digest(obj) -> str:
    """sha256 over compact JSON: key order and ``1`` vs ``1.0`` vs ``true``
    all count, and a NumPy scalar (not JSON-serializable) raises."""
    return hashlib.sha256(
        json.dumps(obj, separators=(",", ":")).encode()
    ).hexdigest()


def run_cell(cell: str, **kwargs):
    opts = {"profile_phases": True, "critical_path": True, **CELLS[cell], **kwargs}
    return run_shmem(
        jacobi_program(n=opts.pop("n", 32), iters=2), cell_config(opts), **opts
    )


def record(cell: str) -> dict:
    r = run_cell(cell)
    assert r.completed, cell
    return {"phase_breakdown": r.phase_breakdown, "critical_path": r.critical_path}


def encode(record: dict) -> list[str]:
    return [digest(record["phase_breakdown"]), digest(record["critical_path"])]
