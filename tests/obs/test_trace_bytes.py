"""The written Chrome trace, pinned byte for byte on payload shapes the
hostbench ``observed`` cell never publishes.

``observed`` replays a fault-free plan, so its trace holds only ints,
strings, bools and one enum.  These three runs cover the rest of what
``ChromeTraceExporter.write`` renders: frame lifecycles (a payload
``seq`` that the event's own ``seq`` overwrites), ``combine.flush``'s
list of ``MsgKind``, ``switch.traverse``, crash / checkpoint / recovery
and ``channel.*`` payloads, a label that needs JSON escaping and float
payloads.  ``DIGESTS`` are the sha256 of the written files, the
``trace_bytes`` table of :mod:`tests.pins`.
"""

from __future__ import annotations

import hashlib
import pathlib
import tempfile

import pytest

from repro.apps import shallow
from repro.obs import ChromeTraceExporter, EventBus
from repro.runtime import run_shmem
from repro.tempest import ClusterConfig, FaultConfig
from repro.tempest.config import CombineConfig, SwitchConfig
from repro.tempest.faults import CrashScenario
from tests import pins
from tests.obs.test_chrome import make_bus_with_traffic


def _shallow_run(config: ClusterConfig) -> ChromeTraceExporter:
    bus = EventBus()
    exporter = ChromeTraceExporter(bus, n_nodes=4)
    result = run_shmem(shallow.build(rows=33, cols=17, iters=2), config, obs=bus)
    assert result.completed
    return exporter


#: drops, duplicates and jitter under combining, switch ports and the
#: adaptive retransmit timer
LOSSY = ClusterConfig(
    n_nodes=4,
    faults=FaultConfig(
        drop_prob=0.02, dup_prob=0.01, jitter_ns=10_000, seed=3,
        adaptive_rto=True,
    ),
    combine=CombineConfig(enabled=True),
    switch=SwitchConfig(enabled=True),
)
#: node 2 fail-stops 15 ms in and the cluster rolls back to the last
#: per-barrier checkpoint
CRASH = ClusterConfig(
    n_nodes=4,
    faults=FaultConfig(
        checkpoint_every=1,
        crashes=(CrashScenario(node=2, t_ns=15_000_000, restart_delay_ns=500_000),),
    ),
)


def lossy() -> ChromeTraceExporter:
    return _shallow_run(LOSSY)


def crash() -> ChromeTraceExporter:
    return _shallow_run(CRASH)


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
    bus.flush()
    return exporter


RUNS = {"lossy": lossy, "crash": crash, "synthetic": synthetic}

DIGESTS = pins.stored("trace_bytes")


def written(run: str) -> bytes:
    """The file ``ChromeTraceExporter.write`` writes for one run."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "t.json"
        RUNS[run]().write(path)
        return path.read_bytes()


def encode(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


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
    assert COVERS[run] <= {rec[0] for rec in exporter.events}
    path = tmp_path / "t.json"
    exporter.write(path)
    data = path.read_bytes()
    assert encode(data) == DIGESTS[run]
    assert exporter.to_json().encode() == data
