"""Ablation — completion time and repair traffic vs interconnect loss.

The paper assumes a reliable Myrinet; this bench quantifies what that
assumption is worth.  A drop-rate sweep (with mild duplication and jitter
riding along) runs jacobi and cg through the reliable transport and
reports completion time, retransmissions and duplicate suppressions.
Two properties should hold:

* graceful degradation — completion time grows with the drop rate but the
  runs stay correct (identical numerics, clean coherence audit);
* proportional repair cost — retransmissions scale with the drop rate,
  and disappear entirely on the perfect wire.
"""

import pytest

from benchmarks.conftest import print_table, run_matrix
from repro.tempest import Cluster, Distribution, MsgKind, SharedMemory
from repro.tempest.config import US, ClusterConfig
from repro.tempest.faults import FaultConfig

DROP_RATES = (0.0, 0.01, 0.05, 0.10)


def drop_config(drop: float) -> ClusterConfig | None:
    if drop == 0.0:
        return None  # the perfect wire: transport bypassed entirely
    return ClusterConfig(
        n_nodes=8,
        faults=FaultConfig(
            drop_prob=drop,
            dup_prob=drop / 2,
            jitter_ns=10 * US,
            seed=1997,
        ),
    )


@pytest.mark.parametrize("app", ["jacobi", "cg"])
def test_ablation_fault_rates(benchmark, app):
    def measure():
        # run_matrix checks every cell against the uniprocessor
        # reference: faults never change answers.
        results = run_matrix(
            [app], {drop: drop_config(drop) for drop in DROP_RATES}, optimize=True
        )[app]
        return [
            (drop, result.elapsed_ns, result.stats.reliability_summary())
            for drop, result in results.items()
        ]

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    clean_ns = rows[0][1]
    print_table(
        f"Ablation: interconnect loss rate ({app}, 8 nodes, opt, seed 1997)",
        ["drop %", "time ms", "slowdown", "retransmits", "drops", "dups"],
        [
            [
                f"{drop * 100:.0f}",
                f"{ns / 1e6:.1f}",
                f"{ns / clean_ns:.2f}x",
                rel["retransmits"],
                rel["drops"],
                rel["dups"],
            ]
            for drop, ns, rel in rows
        ],
    )
    by_rate = {r[0]: r for r in rows}
    # The perfect wire pays nothing for the reliability machinery.
    assert not any(by_rate[0.0][2].values())
    # Repair traffic scales with the loss rate...
    assert (
        by_rate[0.10][2]["retransmits"]
        > by_rate[0.01][2]["retransmits"]
        > 0
    )
    # ...and the runs degrade but complete: a lossy wire costs time, never
    # correctness (numerics asserted per-run above, audit ran in run_shmem).
    assert by_rate[0.10][1] > clean_ns


# --------------------------------------------------------------------- #
# adaptive vs fixed retransmission under bulk transfers
# --------------------------------------------------------------------- #
PAYLOADS = (512, 1024, 2048)      # up to max_payload_blocks * block_size
STREAM_FRAMES = 8


def bulk_stream_run(payload: int, adaptive: bool):
    """A stream of bulk data pushes (the optimizer's unit of transfer)
    over the reliable transport.  A 2048-byte payload serializes for
    ~103 us at 20 MB/s, so its ack round trip alone overruns the fixed
    120 us timer; the size-aware adaptive timer must not misfire."""
    config = ClusterConfig(
        n_nodes=2,
        faults=FaultConfig(jitter_ns=1, seed=0, adaptive_rto=adaptive),
    )
    mem = SharedMemory(config)
    mem.alloc("a", (32, 16), Distribution.block(config.n_nodes))
    cluster = Cluster(config, mem)
    delivered = []
    for i in range(STREAM_FRAMES):
        cluster.engine.call_after(
            i * 1_000 * US,
            cluster.network.send,
            0, 1, MsgKind.DATA, lambda i=i: delivered.append(i),
            config.handler_data_recv_ns, payload,
        )
    cluster.engine.run()
    assert delivered == list(range(STREAM_FRAMES))  # exactly-once, in order
    return cluster.stats


def test_ablation_adaptive_rto_bulk(benchmark):
    def measure():
        rows = []
        for payload in PAYLOADS:
            fixed = bulk_stream_run(payload, adaptive=False)
            adapt = bulk_stream_run(payload, adaptive=True)
            rows.append((payload, fixed.reliability_summary(),
                         adapt.reliability_summary()))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    print_table(
        f"Ablation: RTO under bulk serialization "
        f"({STREAM_FRAMES}-frame stream, 20 MB/s wire, fixed 120 us timer)",
        ["payload B", "fixed retrans", "fixed spurious",
         "adaptive retrans", "adaptive spurious"],
        [
            [p, f["retransmits"], f["spurious_retransmits"],
             a["retransmits"], a["spurious_retransmits"]]
            for p, f, a in rows
        ],
    )
    by_payload = {p: (f, a) for p, f, a in rows}
    # Small payloads fit inside the fixed timer: both modes stay quiet.
    f, a = by_payload[512]
    assert f["spurious_retransmits"] == a["spurious_retransmits"] == 0
    # At the bulk-transfer limit the fixed timer fires on every frame;
    # the adaptive timer, strictly fewer (none — nothing was ever lost).
    f, a = by_payload[2048]
    assert f["spurious_retransmits"] == STREAM_FRAMES
    assert a["spurious_retransmits"] < f["spurious_retransmits"]
    assert a["spurious_retransmits"] == a["retransmits"] == 0
