"""The written Chrome trace, pinned byte for byte on payload shapes the
hostbench ``observed`` cell never publishes.

``observed`` replays a fault-free plan, so its trace holds only ints,
strings, bools and one enum.  These three runs cover the rest of what
``ChromeTraceExporter.write`` renders: frame lifecycles (a payload
``seq`` that the event's own ``seq`` overwrites), ``combine.flush``'s
list of ``MsgKind``, ``switch.traverse``, crash / checkpoint / recovery
and ``channel.*`` payloads, a label that needs JSON escaping and float
payloads.  ``DIGESTS`` are the sha256 of the files the dict-building
exporter (a record dict per event, then the C encoder) wrote for the
same runs, before the record pass rendered text itself.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.apps import shallow
from repro.obs import ChromeTraceExporter, EventBus
from repro.runtime import run_shmem
from repro.tempest import ClusterConfig, FaultConfig
from repro.tempest.config import CombineConfig, SwitchConfig
from repro.tempest.faults import CrashScenario
from tests.obs.test_chrome import make_bus_with_traffic


def _shallow_run(**kwargs) -> ChromeTraceExporter:
    bus = EventBus()
    exporter = ChromeTraceExporter(bus, n_nodes=4)
    result = run_shmem(
        shallow.build(rows=33, cols=17, iters=2), ClusterConfig(n_nodes=4),
        obs=bus, **kwargs,
    )
    assert result.completed
    return exporter


def lossy() -> ChromeTraceExporter:
    """Drops, duplicates and jitter under combining, switch ports and the
    adaptive retransmit timer."""
    return _shallow_run(
        faults=FaultConfig(
            drop_prob=0.02, dup_prob=0.01, jitter_ns=10_000, seed=3,
            adaptive_rto=True,
        ),
        combine=CombineConfig(enabled=True),
        switch=SwitchConfig(enabled=True),
    )


def crash() -> ChromeTraceExporter:
    """Node 2 fail-stops 15 ms in and the cluster rolls back to the last
    per-barrier checkpoint."""
    return _shallow_run(
        faults=FaultConfig(
            checkpoint_every=1,
            crashes=(CrashScenario(node=2, t_ns=15_000_000, restart_delay_ns=500_000),),
        ),
    )


def synthetic() -> ChromeTraceExporter:
    """The unit-test traffic plus a label that needs escaping (quote,
    backslash, non-ASCII, a control character) and float payloads."""
    bus, exporter = make_bus_with_traffic()
    bus.emit(
        "phase", 700, 0, 1, None,
        {"index": 2, "label": 'say "hi" \\ naïve ∂\U0001d400\n\t\x01'},
    )
    bus.emit(
        "ckpt.write", 12345, 678, None, 3,
        {"gen": 1, "bytes": 4096, "ratio": 0.1 + 0.2, "big": 1e16,
         "tiny": 1e-7, "neg": -2.5, "whole": 3.0},
    )
    return exporter


RUNS = {"lossy": lossy, "crash": crash, "synthetic": synthetic}

DIGESTS = {
    "lossy": "8c25f4f63511b53b6e4f391ba6f8d9ca19a79702795917a76c631192adede936",
    "crash": "a7ee8879077a4df2cfaba7eb052f62b2bd97509844e870c4018850cf6a2fcf72",
    "synthetic": "8858575182dff02b884f1f5e6a071156b7d4dde1c118e87b9e1db2d9c4639a3e",
}

#: kinds each run must publish for its pin to cover what it claims
COVERS = {
    "lossy": {
        "frame.send", "frame.drop", "frame.dup", "frame.retransmit",
        "frame.deliver", "frame.ack", "combine.flush", "switch.traverse",
    },
    "crash": {
        "crash.node", "ckpt.write", "recover.rollback", "recover.resume",
        "channel.giveup", "channel.dead",
    },
    "synthetic": {"phase", "ckpt.write", "msg.send"},
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_written_trace_bytes_are_pinned(run, tmp_path):
    exporter = RUNS[run]()
    assert COVERS[run] <= {ev.kind for ev in exporter.events}
    path = tmp_path / "t.json"
    exporter.write(path)
    data = path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == DIGESTS[run]
    assert exporter.to_json().encode() == data
