"""Table 1 — cluster configuration calibration.

The paper's platform numbers the model must land on:

* minimum roundtrip for a short (4 B) message  ~= 40 us
* network bandwidth                             = 20 MB/s
* read-miss processing, 128 B block, dual CPU  ~= 93 us

Each microbenchmark drives the *simulated* cluster and asserts the
calibrated figure within 5%.
"""

import pytest

from benchmarks.conftest import print_table
from repro.sim import Delay
from repro.tempest import Cluster, ClusterConfig, Distribution, SharedMemory
from repro.tempest.stats import MsgKind


def _two_node_cluster():
    cfg = ClusterConfig(n_nodes=2)
    mem = SharedMemory(cfg)
    arr = mem.alloc("a", (16, 2), Distribution.block(2))
    return Cluster(cfg, mem), arr


def measure_roundtrip() -> float:
    """Ping-pong a minimal message pair; returns one roundtrip in us."""
    cl, _ = _two_node_cluster()
    cfg = cl.config
    done = cl.engine.future("pong")

    def on_pong(_seq) -> None:
        done.resolve(cl.engine.now)

    def on_ping(_seq) -> None:
        # The replying side pays its send overhead inside the handler.
        cl.network.send(
            1, 0, MsgKind.ACK, on_pong, (), cfg.send_overhead_ns, payload_bytes=4
        )

    def pinger():
        yield cl.nodes[0].compute_cpu.serve(cfg.send_overhead_ns)
        cl.network.send(0, 1, MsgKind.ACK, on_ping, (), 0, payload_bytes=4)
        yield done

    start = cl.engine.now
    cl.engine.spawn(pinger())
    cl.engine.run()
    return (cl.engine.now - start) / 1000


def measure_read_miss() -> float:
    """Clean remote read miss (home holds the data), dual CPU, in us."""
    cl, arr = _two_node_cluster()
    block = arr.block_of_element((0, 0))  # homed at node 0

    def reader():
        yield from cl.read_blocks(1, [block])

    cl.engine.spawn(reader())
    cl.engine.run()
    return cl.engine.now / 1000


def measure_bandwidth_mb_s() -> float:
    """Effective bandwidth of a large compiler-push payload."""
    cfg = ClusterConfig(n_nodes=2, max_payload_blocks=512)
    mem = SharedMemory(cfg)
    arr = mem.alloc("a", (16, 4096), Distribution.block(2))  # 512 KB
    cl = Cluster(cfg, mem)
    blocks = list(arr.block_range())[: 2048]  # 256 KB worth
    nbytes = len(blocks) * cfg.block_size

    def sender():
        yield from cl.ext.mk_writable(0, blocks)
        start = cl.engine.now
        yield from cl.ext.send_blocks(0, blocks, 1, bulk=True)
        yield from cl.ext.ready_to_recv(1, len(blocks))
        return (nbytes, cl.engine.now - start)

    def receiver():
        yield from cl.ext.implicit_writable(1, blocks)

    recv = cl.engine.spawn(receiver())
    done = cl.engine.spawn(sender())
    cl.engine.run()
    nbytes, elapsed_ns = done.value
    return nbytes / (elapsed_ns / 1000) # bytes/us == MB/s


def test_table1_calibration(benchmark):
    def all_measurements():
        return (
            measure_roundtrip(),
            measure_read_miss(),
            measure_bandwidth_mb_s(),
        )

    rtt_us, miss_us, bw = benchmark.pedantic(all_measurements, rounds=1, iterations=1)
    print_table(
        "Table 1: cluster configuration (paper vs simulated)",
        ["metric", "paper", "simulated"],
        [
            ["roundtrip, 4B message (us)", 40, round(rtt_us, 1)],
            ["read miss, 128B block, dual cpu (us)", 93, round(miss_us, 1)],
            ["network bandwidth (MB/s)", 20, round(bw, 1)],
        ],
    )
    assert rtt_us == pytest.approx(40, rel=0.05)
    assert miss_us == pytest.approx(93, rel=0.05)
    # Effective bandwidth approaches the wire limit from below (headers,
    # per-message overheads).
    assert 15 < bw <= 20
