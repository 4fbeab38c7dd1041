"""The compiler-control primitives — the paper's Section 4.2 contract.

These are the run-time calls the modified ``pghpf`` emits around parallel
loops.  Each is a process fragment charged to the calling node, with its
elapsed time accounted as *protocol call time* (part of the optimized
versions' communication time, per the paper's Table 3 note).

The call sequence for a non-owner **read** section (Figure 2)::

    owner:  mk_writable(blocks)          # bring blocks writable at owner
            --- barrier ---
    reader: implicit_writable(blocks)    # tags only; directory NOT updated
            --- barrier ---
    owner:  send(blocks, reader)         # tagged data messages
    reader: ready_to_recv(n)             # counting semaphore
            ... parallel loop runs, zero faults on these blocks ...
    reader: implicit_invalidate(blocks)  # restore the directory's world view
            --- barrier ---

For a non-owner **write** section the roles flip and the writer ends with
``flush_and_invalidate`` — data returns to the owner so the directory's
belief (exclusive at owner) is true again.

Contract checks are *enforced at run time*: a data message arriving at a
node whose tag is not ReadWrite, or a send of a stale copy, raises
:class:`ContractViolation` — these catch planner bugs in tests rather than
silently computing garbage.
"""

from __future__ import annotations

from typing import Any, Generator, Sequence

import numpy as np

from repro.sim import CountingSemaphore, Engine
from repro.tempest.access import AccessControl, AccessTag
from repro.tempest.config import ClusterConfig
from repro.tempest.directory import Directory
from repro.tempest.network import Network
from repro.tempest.node import Node
from repro.tempest.protocol import DefaultProtocol
from repro.tempest.stats import ClusterStats, MsgKind

__all__ = ["CompilerExtensions", "ContractViolation"]

_READWRITE = int(AccessTag.READWRITE)


class ContractViolation(AssertionError):
    """The compiler broke its contract with the protocol."""


def coalesce_runs(blocks: Sequence[int], max_run: int) -> list[tuple[int, int]]:
    """Group sorted block ids into maximal consecutive runs of <= max_run.

    Returns ``(start_block, count)`` pairs — the unit of one data message.
    With ``max_run=1`` every block travels alone (the non-bulk baseline).
    """
    runs: list[tuple[int, int]] = []
    if not blocks:
        return runs
    start = prev = blocks[0]
    count = 1
    for b in blocks[1:]:
        if b == prev + 1 and count < max_run:
            prev = b
            count += 1
        else:
            if b <= prev:
                raise ValueError("blocks must be strictly increasing")
            runs.append((start, count))
            start = prev = b
            count = 1
    runs.append((start, count))
    return runs


class CompilerExtensions:
    """Protocol-bypass primitives exposed to compiled code."""

    def __init__(
        self,
        engine: Engine,
        config: ClusterConfig,
        access: AccessControl,
        directory: Directory,
        network: Network,
        nodes: list[Node],
        protocol: DefaultProtocol,
        stats: ClusterStats,
    ) -> None:
        self.engine = engine
        self.config = config
        self.access = access
        self.directory = directory
        self.network = network
        self.nodes = nodes
        self.protocol = protocol
        self.stats = stats
        #: observability bus (see repro.obs); None keeps publishing free
        self.obs = None
        self.arrival_sema = [
            CountingSemaphore(engine, f"recv.n{i}") for i in range(config.n_nodes)
        ]
        # rt-elim memoization: per node, ranges already made implicit_writable.
        self._iw_memo: list[set[tuple[int, int]]] = [set() for _ in range(config.n_nodes)]

    # ------------------------------------------------------------------ #
    def _timed(self, node_id: int, op: str = ""):
        """Context helper: measure a call's elapsed time into call_ns."""
        start = self.engine.now

        def finish() -> None:
            self.nodes[node_id].stats.call_ns += self.engine.now - start
            if self.obs is not None:
                self.obs.emit(
                    "call", start, self.engine.now - start, node_id, None,
                    {"op": op},
                )

        return finish

    # ------------------------------------------------------------------ #
    # sender-side preparation
    # ------------------------------------------------------------------ #
    def mk_writable(self, node_id: int, blocks: Sequence[int]) -> Generator[Any, Any, None]:
        """Bring ``blocks`` writable at ``node_id``, pipelined.

        "The protocol interprets this call as if a write fault is incurred
        for all the blocks in the specified range, except in a pipelined
        fashion."  Transactions are launched back-to-back and the call
        returns once all grants arrive; afterwards the directory records the
        caller as exclusive owner of every block — the property step 2 of
        the contract relies on.
        """
        finish = self._timed(node_id, "mk_writable")
        node = self.nodes[node_id]
        yield self.config.call_overhead_ns
        launched = []
        for b in blocks:
            if (
                self.access.get(node_id, b) is AccessTag.READWRITE
                and self.directory.owner_of(b) == node_id
            ):
                continue  # already exclusive here
            grant = yield from self.protocol.write_block(node_id, b, count_fault=False)
            launched.append(grant)
        for grant in launched:
            yield grant
        # The grants were also parked in the pending set; they are resolved
        # now, so clear them to keep release fences cheap.
        node.pending = [f for f in node.pending if not f.resolved]
        finish()

    # ------------------------------------------------------------------ #
    # receiver-side preparation
    # ------------------------------------------------------------------ #
    def implicit_writable(
        self,
        node_id: int,
        blocks: Sequence[int] | range,
        memo_key: tuple[int, int] | None = None,
    ) -> Generator[Any, Any, None]:
        """Set tags to ReadWrite *without* telling the directory.

        After this call the directory's view of these blocks is deliberately
        wrong (Figure 2C); the compiler promises to ``implicit_invalidate``
        them after the loop.  With ``memo_key`` (run-time overhead
        elimination, Section 4.3) repeat calls on the same range degrade to
        a *test*: "at subsequent times the call need only do the test and
        nothing more".  The test repairs any tags the default protocol
        revoked in between (e.g. a home copy inline-invalidated by a
        write-ownership transaction) — the paper's "extra work required for
        dealing with overlapping ranges".
        """
        finish = self._timed(node_id, "implicit_writable")
        block_list = blocks if isinstance(blocks, range) else list(blocks)
        if memo_key is not None and memo_key in self._iw_memo[node_id]:
            # The test: one comparison over the node's tag row.
            idx = np.asarray(block_list, dtype=np.intp)
            lost = idx[self.access.rows[node_id][idx] != _READWRITE]
            if not len(lost):
                yield self.config.memoized_call_ns
                finish()
                return
            yield (
                self.config.memoized_call_ns
                + len(lost) * self.config.tag_change_per_block_ns
            )
            self.access.set_range(node_id, lost, AccessTag.READWRITE, implicit=True)
            finish()
            return
        n = len(block_list)
        yield self.config.call_overhead_ns + n * self.config.tag_change_per_block_ns
        self.access.set_range(node_id, block_list, AccessTag.READWRITE, implicit=True)
        if memo_key is not None:
            self._iw_memo[node_id].add(memo_key)
        finish()

    def ready_to_recv(self, node_id: int, n_blocks: int) -> Generator[Any, Any, None]:
        """Hold a counting semaphore until ``n_blocks`` have arrived."""
        finish = self._timed(node_id, "ready_to_recv")
        yield self.config.call_overhead_ns
        yield self.arrival_sema[node_id].wait_for(n_blocks)
        finish()

    # ------------------------------------------------------------------ #
    # the transfer itself
    # ------------------------------------------------------------------ #
    def send_blocks(
        self,
        node_id: int,
        blocks: Sequence[int],
        dst: int,
        bulk: bool = True,
    ) -> Generator[Any, Any, None]:
        """Ship ``blocks`` (sorted ids) to ``dst`` as tagged data messages.

        With ``bulk=True`` contiguous runs travel as one payload of up to
        ``max_payload_blocks`` blocks (the paper's bulk-transfer
        optimization); otherwise one message per block.
        """
        cfg = self.config
        finish = self._timed(node_id, "send_blocks")
        node = self.nodes[node_id]
        d = self.directory
        yield cfg.call_overhead_ns
        max_run = cfg.max_payload_blocks if bulk else 1
        copy_row = d.copy_version[node_id]
        global_v = d.global_version
        for start, count in coalesce_runs(list(blocks), max_run):
            run = range(start, start + count)
            stop = start + count
            # Vectorized staleness check over the contiguous run (one slice
            # compare instead of a per-block copy_is_current call).
            if not (copy_row[start:stop] >= global_v[start:stop]).all():
                for b in run:
                    if not d.copy_is_current(node_id, b):
                        raise ContractViolation(
                            f"node {node_id} sending stale copy of block {b} "
                            f"(copy v{int(d.copy_version[node_id, b])} < "
                            f"global v{int(d.global_version[b])})"
                        )
            yield node.compute_cpu.use(cfg.send_overhead_ns)
            handler_cost = (
                cfg.handler_data_recv_ns
                + (count - 1) * cfg.handler_data_recv_per_block_ns
            )
            self.network.send(
                node_id, dst, MsgKind.DATA, self._on_data, (dst, run),
                handler_cost, payload_bytes=count * cfg.block_size,
            )
        finish()

    def _on_data(self, dst: int, run: range, _seq) -> None:
        """Receiver handler for a compiler-pushed payload."""
        tags = self.access.rows[dst][run.start : run.stop]
        if not (tags == _READWRITE).all():
            for b in run:
                if self.access.get(dst, b) is not AccessTag.READWRITE:
                    raise ContractViolation(
                        f"data for block {b} arrived at node {dst} whose tag is "
                        f"{self.access.get(dst, b).name}; implicit_writable "
                        "must precede the transfer (missing barrier?)"
                    )
        self.directory.deliver_copy(dst, run)
        self.arrival_sema[dst].post(len(run))

    # ------------------------------------------------------------------ #
    # post-loop consistency restoration
    # ------------------------------------------------------------------ #
    def implicit_invalidate(
        self, node_id: int, blocks: Sequence[int] | range
    ) -> Generator[Any, Any, None]:
        """Drop the receiver's copies so the directory is right again."""
        finish = self._timed(node_id, "implicit_invalidate")
        n = len(blocks)
        yield self.config.call_overhead_ns + n * self.config.tag_change_per_block_ns
        self.access.set_range(node_id, blocks if isinstance(blocks, range) else list(blocks), AccessTag.INVALID)
        finish()

    def flush_and_invalidate(
        self,
        node_id: int,
        blocks: Sequence[int],
        owner: int,
        bulk: bool = True,
    ) -> Generator[Any, Any, None]:
        """Non-owner-write epilogue: return dirty blocks to the owner and
        invalidate locally, so "the owner has the only latest (writable)
        copy and the directory correctly reflects this"."""
        cfg = self.config
        finish = self._timed(node_id, "flush_and_invalidate")
        node = self.nodes[node_id]
        yield cfg.call_overhead_ns
        max_run = cfg.max_payload_blocks if bulk else 1
        for start, count in coalesce_runs(list(blocks), max_run):
            run = range(start, start + count)
            yield node.compute_cpu.use(cfg.send_overhead_ns)
            handler_cost = (
                cfg.handler_data_recv_ns
                + (count - 1) * cfg.handler_data_recv_per_block_ns
            )
            self.network.send(
                node_id, owner, MsgKind.FLUSH, self._on_flush, (owner, run),
                handler_cost, payload_bytes=count * cfg.block_size,
            )
        self.access.set_range(node_id, list(blocks), AccessTag.INVALID)
        finish()

    def _on_flush(self, owner: int, run: range, _seq) -> None:
        for b in run:
            if self.access.get(owner, b) is not AccessTag.READWRITE:
                raise ContractViolation(
                    f"flushed block {b} arrived at owner {owner} without "
                    "write permission; mk_writable must precede the loop"
                )
        self.directory.deliver_copy(owner, run)
        self.arrival_sema[owner].post(len(run))

    # ------------------------------------------------------------------ #
    # advisory primitives (paper Section 4.2: "These boundary cases could
    # also be optimized by advisory primitives, such as self-invalidate and
    # co-operative prefetch" — suggested there, built here)
    # ------------------------------------------------------------------ #
    def prefetch(self, node_id: int, blocks: Sequence[int]) -> Generator[Any, Any, None]:
        """Co-operative prefetch: launch read transactions for the invalid
        blocks among ``blocks`` and return without waiting.

        The transactions run through the *default* protocol (directory
        stays consistent — this is advisory, not compiler control).  A
        demand read that arrives while a prefetch is outstanding waits on
        it rather than re-issuing.
        """
        finish = self._timed(node_id, "prefetch")
        yield self.config.call_overhead_ns
        for b in blocks:
            if self.access.get(node_id, b) is AccessTag.INVALID:
                # Per-request issue cost charged inline; the transaction
                # itself completes asynchronously, overlapping what follows.
                yield self.config.send_overhead_ns
                self.protocol.start_prefetch(node_id, b)
        finish()

    def self_invalidate(self, node_id: int, blocks: Sequence[int]) -> Generator[Any, Any, None]:
        """Drop this node's read-only copies and notify the homes off the
        critical path, so future writers upgrade without an invalidation
        round trip (the advisory cousin of KSR's poststore family)."""
        cfg = self.config
        finish = self._timed(node_id, "self_invalidate")
        yield cfg.call_overhead_ns
        dropped_by_home: dict[int, list[int]] = {}
        for b in blocks:
            if self.access.get(node_id, b) is AccessTag.READONLY:
                self.access.set(node_id, b, AccessTag.INVALID)
                dropped_by_home.setdefault(self.directory.home_of(b), []).append(b)
        yield sum(len(v) for v in dropped_by_home.values()) * cfg.tag_change_per_block_ns
        for home, dropped in sorted(dropped_by_home.items()):
            if home == node_id:
                for b in dropped:
                    self.directory.clear_sharer(b, node_id)
                continue
            yield self.nodes[node_id].compute_cpu.use(cfg.send_overhead_ns)
            self.network.send(
                node_id, home, MsgKind.SELF_INV,
                self._on_notice, (tuple(dropped), node_id),
                cfg.handler_ack_ns + len(dropped) * cfg.tag_change_per_block_ns,
                combinable=True,
            )
        finish()

    def _on_notice(self, blocks: tuple, node_id: int, _seq) -> None:
        """SELF_INV handler at the home: forget the dropped copies."""
        for b in blocks:
            self.directory.clear_sharer(b, node_id)
