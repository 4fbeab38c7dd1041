"""Per-node access traces and their replay on the cluster.

The functional pass reduces each phase to a short list of per-node *ops*
(plain tuples).  The replay generator interprets ops as cluster process
fragments, through one loop and one table from op kind to fragment; all
timing, protocol state and contract enforcement happens there.  Replay is
not a hot layer: ops are 0.4-12% as many as the engine events they cause
(the benchmark's protocol-heavy workload replays 24,653 ops against
947,062 events, its observed shallow run 1,731 against 432,268, and an
optimized lu plan 21,921 against 181,488).

Op vocabulary (the call ops, ``mkw`` to ``selfinv``, are each spelled
once, by their :mod:`repro.core.calls` class's ``trace()``)::

    ('phase',   index, label)          # zero-cost marker, observability only
    ('compute', ns)
    ('read',    blocks_ndarray, phase_no, context)
    ('write',   blocks_ndarray, phase_no)
    ('barrier',)
    ('reduce',  n_values)
    ('mp_send', dst, nbytes)
    ('mp_recv', count)
    ('mkw',     blocks_tuple)
    ('iw',      blocks_tuple, memo_key_or_None)
    ('send',    blocks_tuple, dst, bulk)
    ('recv',    count)
    ('inv',     blocks_tuple)
    ('flush',   blocks_tuple, owner, bulk)
    ('prefetch', blocks_tuple)
    ('selfinv', blocks_tuple)
"""

from __future__ import annotations

from typing import Any, Callable, Generator

from repro.tempest.cluster import Cluster

__all__ = ["NodeTrace", "replay"]


class NodeTrace:
    """Accumulates one node's ops; a call op's comes from its ``trace()``."""

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

    def mp_send(self, dst: int, nbytes: int) -> None:
        if nbytes:
            self.ops.append(("mp_send", dst, nbytes))

    def mp_recv(self, count: int) -> None:
        if count:
            self.ops.append(("mp_recv", count))


def replay(
    cluster: Cluster, node: int, ops: list[tuple], start: int = 0
) -> Generator[Any, Any, None]:
    """Interpret a node's trace as a simulated process.

    One loop runs every op, from ``start`` on.  ``read`` calls
    ``Cluster.read_blocks`` itself, because its op order (blocks, phase,
    context) is not the method's parameter order; every other op runs as
    ``fragment(node, *op[1:])``, with the fragment looked up in one table
    built per call (:func:`_fragments`).  An op of any other kind raises
    ``ValueError``: plans come from a disk cache, so a bad op is outside
    input.

    With an observability bus attached to the cluster, each op additionally
    publishes an ``op`` span and ``phase`` markers publish ``phase``
    instants; neither schedules engine events nor consumes simulated time,
    so instrumented runs stay schedule-identical to plain ones.

    When the run can roll back (``cluster.recovery`` is set: the config
    has crash scenarios or a checkpoint interval), the generator records
    the index of the op it is executing in ``cluster.recovery.cursors`` —
    the RecoveryManager snapshots those cursors at barrier checkpoints and
    resumes a rolled-back node via ``start``.  Cursor maintenance is plain
    list assignment (no engine events), so such runs stay
    schedule-identical too; ``op`` spans then carry an ``idx`` field so
    re-executed work is attributable in traces and profiles.
    """
    obs = cluster.obs
    engine = cluster.engine
    recovery = cluster.recovery
    cursor = recovery.cursors if recovery is not None else None
    fragments = _fragments(cluster)
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
        if kind == "read":
            yield from cluster.read_blocks(node, op[1], context=op[3], phase=op[2])
        else:
            try:
                fragment = fragments[kind]
            except KeyError:
                raise ValueError(f"unknown trace op {op!r}") from None
            yield from fragment(node, *op[1:])
        if obs is not None:
            dur = engine.now - t0
            if dur:
                obs.emit(
                    "op", t0, dur, node, None,
                    {"op": kind} if cursor is None else {"op": kind, "idx": i},
                )


def _fragments(cluster: Cluster) -> dict[str, Callable[..., Generator[Any, Any, None]]]:
    """Op kind -> the cluster process fragment that runs it, called as
    ``fragment(node, *op[1:])``; ``phase`` and ``read`` are replay's own
    branches."""
    ext = cluster.ext
    collectives = cluster.collectives
    return {
        "compute": cluster.compute,
        "write": cluster.write_blocks,
        "barrier": cluster.barrier,
        "reduce": cluster.reduce,
        "mkw": ext.mk_writable,
        "iw": ext.implicit_writable,
        "send": ext.send_blocks,
        "recv": ext.ready_to_recv,
        "inv": ext.implicit_invalidate,
        "flush": ext.flush_and_invalidate,
        "prefetch": ext.prefetch,
        "selfinv": ext.self_invalidate,
        "mp_send": collectives.mp_send,
        "mp_recv": collectives.mp_recv,
    }
