"""The one cell table both time-attribution foldings are tested over.

Every cell replays jacobi (n=32 unless the cell says otherwise) x 2
iterations on the default 8-node cluster with ``profile_phases`` and
``critical_path`` on.  ``DIGESTS`` pins, per cell, a type-strict sha256
of the two result dicts as the *parent* of PR 16 (commit 77a29f1: the
streaming ``PhaseProfiler`` and ``CriticalPathAnalyzer``) produced them,
recorded with

    PYTHONPATH=<parent>/src:. python -m tests.obs.attribution_matrix

before either class was touched.  Run the same command on any later
commit to print the table it produces now.

The ``switch`` and ``storm+combine+switch`` cells first ran a two-port
switch.  When the switch's port count stopped being settable (one
link-rate port per node is the only switch), both cells moved to that
switch and their digests were recorded again the same way, on the parent
of that change.
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

#: cell -> (sha256(phase_breakdown), sha256(critical_path)) on the parent.
DIGESTS: dict[str, tuple[str, str]] = {
    "clean": (
        "52d3dba470c6a0887968c176e832ddcfce15c1fdaca8a9963d42427b975f313f",
        "95a007f466b76a5f8fec8e7fab6e78906bf2cdce38263f683e8494cef0db0672",
    ),
    "opt": (
        "b40ad85b575bd22b5f4bc36bc6564c2da3ab034022071c15e701d0b4da472364",
        "5a9b497ae8c51881cf61c6b2cb9343f7ad022d96dc8a60c1dfc5125f4cfac76b",
    ),
    "storm": (
        "fab9f99ff3b8b2471088abfabc99eecffc9899bda1d8a40f9d3a7ba42e864460",
        "4babed2c443f22242e9f174b622471bf0f1626672d49a9865abc2c75d13c0e4e",
    ),
    "combine": (
        "52d3dba470c6a0887968c176e832ddcfce15c1fdaca8a9963d42427b975f313f",
        "5b110514ee8ce48669210ec442637766bda99592461d05de543908200f6f8190",
    ),
    "switch": (
        "c9bc28496d15cce33c4cf81aee8e0819905eb44a0aa83a9017e9270c618d247e",
        "5941590884756204ee6c22d082d686bc4f1abf87d26f32bec5b68e8e0e328833",
    ),
    "storm+combine+switch": (
        "8e9238bdb18ef5f1bbc61f835e819930a3ff9da0f81008643e283dbeb28cb94b",
        "5cfbeda073fa1299139fe22f0d4e21feadde28475e3b6cd294eda5a6cb9aaba7",
    ),
    "healed-partition": (
        "6b4347fdbbcefb84152dc55c40e80cbe96296153f06963c23b390c5c2a94be30",
        "a2114d7feb1fc04f876cf6ede4306ab21e6e4a8f4082bc41d9b0a3b365c9d083",
    ),
    "crash+rollback": (
        "c24666f3904bf55dd54fdc93aba38c6a29ce5d01719e07f5dc251174a5ddad67",
        "45f55cbd734275784fb9b8078d7f26e8fb76b15e982543b62721cb33e520d63d",
    ),
    "crash-in-partition": (
        "3c1948114f47d7292ec877ed23c75d55c1f6497d57b445dba23bdda4f21ded9f",
        "a092c564b8de69b01b39f9863fffdec7ae69bab7d1df9ec556946509fcff6ece",
    ),
    "crash-after-heal": (
        "75aa15ddd525da93a62ae0d36c2607c431513a60abb869f9a2f36235adb2548e",
        "c92fc3140a51c3f810833564522d25f6523a6239e5ba412b6ab84a10ffaf5c1b",
    ),
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


if __name__ == "__main__":
    print("DIGESTS: dict[str, tuple[str, str]] = {")
    for name in CELLS:
        r = run_cell(name)
        assert r.completed, name
        print(f'    "{name}": (')
        print(f'        "{digest(r.phase_breakdown)}",')
        print(f'        "{digest(r.critical_path)}",')
        print("    ),")
    print("}")
