"""Per-node access traces and their replay on the cluster.

The functional pass reduces each phase to a short list of per-node *ops*
(plain tuples, chosen for replay speed — protocol-heavy runs replay
hundreds of thousands of them).  The replay generator interprets ops as
cluster process fragments; all timing, protocol state and contract
enforcement happens there.

Op vocabulary::

    ('phase',   index, label)          # zero-cost marker, observability only
    ('compute', ns)
    ('read',    blocks_ndarray, phase_no, context)
    ('write',   blocks_ndarray, phase_no)
    ('barrier',)
    ('reduce',  n_values)
    ('mkw',     blocks_tuple)
    ('iw',      blocks_tuple, memo_key_or_None)
    ('send',    blocks_tuple, dst, bulk)
    ('recv',    count)
    ('inv',     blocks_tuple)
    ('flush',   blocks_tuple, owner, bulk)
    ('mp_send', dst, nbytes)
    ('mp_recv', count)
    ('prefetch', blocks_tuple)
    ('selfinv', blocks_tuple)
"""

from __future__ import annotations

from typing import Any, Generator, Sequence

from repro.tempest.cluster import Cluster

__all__ = ["NodeTrace", "replay"]


class NodeTrace:
    """Accumulates one node's ops."""

    __slots__ = ("node", "ops")

    def __init__(self, node: int) -> None:
        self.node = node
        self.ops: list[tuple] = []

    # Convenience emitters keep trace-building code terse and typo-proof.
    def phase(self, index: int, label: str) -> None:
        """Mark the start of dynamic phase ``index`` (no simulated cost)."""
        self.ops.append(("phase", index, label))

    def compute(self, ns: int) -> None:
        if ns > 0:
            self.ops.append(("compute", int(ns)))

    def read(self, blocks, phase: int, context: str = "") -> None:
        if len(blocks):
            self.ops.append(("read", blocks, phase, context))

    def write(self, blocks, phase: int) -> None:
        if len(blocks):
            self.ops.append(("write", blocks, phase))

    def barrier(self) -> None:
        self.ops.append(("barrier",))

    def reduce(self, n_values: int = 1) -> None:
        self.ops.append(("reduce", n_values))

    def mkw(self, blocks: Sequence[int]) -> None:
        if blocks:
            self.ops.append(("mkw", tuple(blocks)))

    def iw(self, blocks: Sequence[int], memo_key=None) -> None:
        if blocks:
            self.ops.append(("iw", tuple(blocks), memo_key))

    def send(self, blocks: Sequence[int], dst: int, bulk: bool) -> None:
        if blocks:
            self.ops.append(("send", tuple(blocks), dst, bulk))

    def recv(self, count: int) -> None:
        if count:
            self.ops.append(("recv", count))

    def inv(self, blocks: Sequence[int]) -> None:
        if blocks:
            self.ops.append(("inv", tuple(blocks)))

    def flush(self, blocks: Sequence[int], owner: int, bulk: bool) -> None:
        if blocks:
            self.ops.append(("flush", tuple(blocks), owner, bulk))

    def prefetch(self, blocks) -> None:
        if len(blocks):
            self.ops.append(("prefetch", tuple(blocks)))

    def selfinv(self, blocks) -> None:
        if len(blocks):
            self.ops.append(("selfinv", tuple(blocks)))

    def mp_send(self, dst: int, nbytes: int) -> None:
        if nbytes:
            self.ops.append(("mp_send", dst, nbytes))

    def mp_recv(self, count: int) -> None:
        if count:
            self.ops.append(("mp_recv", count))

    def __len__(self) -> int:
        return len(self.ops)


def replay(
    cluster: Cluster, node: int, ops: list[tuple], start: int = 0
) -> Generator[Any, Any, None]:
    """Interpret a node's trace as a simulated process.

    With an observability bus attached to the cluster, each op additionally
    publishes an ``op`` span and ``phase`` markers publish ``phase``
    instants; neither schedules engine events nor consumes simulated time,
    so instrumented runs stay schedule-identical to plain ones.

    When ``cluster.replay_cursor`` is a list (crash/checkpoint runs), the
    generator records the index of the op it is executing there — the
    RecoveryManager snapshots those cursors at barrier checkpoints and
    resumes a rolled-back node via ``start``.  Cursor maintenance is plain
    list assignment (no engine events), so tracked runs stay
    schedule-identical too; ``op`` spans then carry an ``idx`` field so
    re-executed work is attributable in traces and profiles.
    """
    obs = cluster.obs
    cursor = cluster.replay_cursor
    if cursor is None and obs is None:
        # Fast path: the overwhelmingly common crash-free, unobserved case
        # (hundreds of thousands of ops per run).  The four dominant op
        # kinds dispatch straight to their cluster fragments — one
        # generator frame (and one delegation level per resume) cheaper
        # than going through _run_op.
        read_blocks = cluster.read_blocks
        write_blocks = cluster.write_blocks
        compute = cluster.compute
        enter_barrier = cluster.barrier_net.enter
        for op in ops:
            kind = op[0]
            if kind == "read":
                yield from read_blocks(node, op[1], context=op[3], phase=op[2])
            elif kind == "compute":
                yield from compute(node, op[1])
            elif kind == "write":
                yield from write_blocks(node, op[1], op[2])
            elif kind == "barrier":
                yield from enter_barrier(node)
            elif kind != "phase":
                yield from _run_op(cluster, node, op)
        return
    engine = cluster.engine
    for i in range(start, len(ops)):
        op = ops[i]
        if cursor is not None:
            cursor[node] = i
        kind = op[0]
        if kind == "phase":
            if obs is not None:
                obs.emit(
                    "phase", engine.now, 0, node, None,
                    {"index": op[1], "label": op[2]},
                )
            continue
        t0 = engine.now
        yield from _run_op(cluster, node, op)
        if obs is not None:
            dur = engine.now - t0
            if dur:
                obs.emit(
                    "op", t0, dur, node, None,
                    {"op": kind} if cursor is None else {"op": kind, "idx": i},
                )


def _run_op(cluster: Cluster, node: int, op: tuple) -> Generator[Any, Any, None]:
    """One trace op as a cluster process fragment."""
    kind = op[0]
    if kind == "compute":
        yield from cluster.compute(node, op[1])
    elif kind == "read":
        yield from cluster.read_blocks(node, op[1], context=op[3], phase=op[2])
    elif kind == "write":
        yield from cluster.write_blocks(node, op[1], op[2])
    elif kind == "barrier":
        yield from cluster.barrier(node)
    elif kind == "reduce":
        yield from cluster.reduce(node, op[1])
    elif kind == "mkw":
        yield from cluster.ext.mk_writable(node, op[1])
    elif kind == "iw":
        yield from cluster.ext.implicit_writable(node, op[1], memo_key=op[2])
    elif kind == "send":
        yield from cluster.ext.send_blocks(node, op[1], op[2], bulk=op[3])
    elif kind == "recv":
        yield from cluster.ext.ready_to_recv(node, op[1])
    elif kind == "inv":
        yield from cluster.ext.implicit_invalidate(node, op[1])
    elif kind == "flush":
        yield from cluster.ext.flush_and_invalidate(node, op[1], op[2], bulk=op[3])
    elif kind == "prefetch":
        yield from cluster.ext.prefetch(node, op[1])
    elif kind == "selfinv":
        yield from cluster.ext.self_invalidate(node, op[1])
    elif kind == "mp_send":
        yield from cluster.collectives.mp_send(node, op[1], op[2])
    elif kind == "mp_recv":
        yield from cluster.collectives.mp_recv(node, op[1])
    else:  # pragma: no cover
        raise ValueError(f"unknown trace op {op!r}")
