"""The message-passing comparator backend (pghpf-MP over Tempest messages).

The same access analysis drives a classic owner-computes message-passing
schedule: before each loop, owners send the exact non-owner sections
(element-precise, no block rounding) as point-to-point messages; receivers
block until their expected messages arrive.  No coherence protocol, no
access control, no barriers — exactly the paper's "directly porting the
PGI's message-passing run-time to use Tempest messages" comparator.

Non-owner writes invert: the writer computes privately and returns the
written section to its owner after the loop.
"""

from __future__ import annotations

from repro.hpf.ast import ParallelAssign, Program, Reduce
from repro.runtime.phases import (
    ProgramAnalysis,
    numerics,
    segment_geometry,
    walk_phases,
)
from repro.runtime.results import RunResult
from repro.runtime.traces import NodeTrace, replay
from repro.tempest.cluster import Cluster
from repro.tempest.config import ClusterConfig

__all__ = ["run_msgpass"]


def run_msgpass(program: Program, config: ClusterConfig | None = None) -> RunResult:
    config = config or ClusterConfig()
    # A shared segment is still laid out (the nodes' memories), but no
    # coherence traffic ever touches it — data moves by explicit messages.
    mem = segment_geometry(program.arrays.values(), config)
    record = numerics(program)
    analysis = ProgramAnalysis(program, config.n_nodes)
    traces = [NodeTrace(n) for n in range(config.n_nodes)]
    itemsize = 8
    total_msgs = 0
    total_bytes = 0

    for rec in walk_phases(program, analysis):
        if not isinstance(rec.stmt, ParallelAssign):
            for t in traces:
                t.compute(rec.compute_ns(t.node, config))
                if isinstance(rec.stmt, Reduce):
                    t.reduce(1)
            continue

        assert rec.inst is not None
        # Merge transfers per (src, dst); one packed message per pair.
        pre_bytes: dict[tuple[int, int], int] = {}
        post_bytes: dict[tuple[int, int], int] = {}
        for t in rec.inst.transfers:
            nbytes = t.section.count() * itemsize
            if t.kind == "read":
                key = (t.src, t.dst)
                pre_bytes[key] = pre_bytes.get(key, 0) + nbytes
            else:
                # Non-owner write: result returns writer -> owner post-loop.
                key = (t.dst, t.src)
                post_bytes[key] = post_bytes.get(key, 0) + nbytes

        _exchange(traces, pre_bytes, config)
        for t in traces:
            t.compute(rec.compute_ns(t.node, config))
        _exchange(traces, post_bytes, config)
        total_msgs += len(pre_bytes) + len(post_bytes)
        total_bytes += sum(pre_bytes.values()) + sum(post_bytes.values())

    cluster = Cluster(config, mem)
    stats = cluster.run({n: replay(cluster, n, traces[n].ops) for n in range(config.n_nodes)})
    return RunResult(
        program.name,
        "msgpass",
        stats.elapsed_ns,
        stats,
        dict(record.arrays),
        dict(record.scalars),
        {"mp_messages": total_msgs, "mp_bytes": total_bytes},
    )


def _exchange(
    traces: list[NodeTrace], nbytes_of: dict[tuple[int, int], int], config: ClusterConfig
) -> None:
    """One packed message per ``(src, dst)`` of ``nbytes_of``: each sender
    gathers its section into the pack buffer and sends; each receiver then
    waits for all of its messages and scatters them."""
    expected: dict[int, tuple[int, int]] = {}
    for (src, dst), nbytes in sorted(nbytes_of.items()):
        traces[src].compute(nbytes * config.mp_pack_ns_per_byte)
        traces[src].mp_send(dst, nbytes)
        count, rbytes = expected.get(dst, (0, 0))
        expected[dst] = (count + 1, rbytes + nbytes)
    for dst, (count, rbytes) in sorted(expected.items()):
        traces[dst].mp_recv(count)
        traces[dst].compute(rbytes * config.mp_pack_ns_per_byte)
