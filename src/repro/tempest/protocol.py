"""The default coherence protocol: eager-invalidate, release-consistent.

This is the paper's Section 3 / Figure 1(a) protocol, reproduced
message-for-message:

Read miss (data exclusive at a third node — the producer/consumer case)::

    requester --1 read-request-->  home
    home      --2 put-data-request--> exclusive owner
    owner     --3 put-data-response (data)--> home
    home      --4 read-response (data)--> requester

Write fault (readable copies outstanding)::

    writer    --5 write-request--> home
    home      --6 invalidation--> each sharer
    sharer    --7 acknowledgement--> home
    home      --8 write-grant--> writer

Write faults are *eager*: the faulting store proceeds immediately (the tag
flips to ReadWrite at fault time) and the ownership transaction completes in
the background; the grant future is parked in the node's pending set and
drained at release points.  Read misses block the compute thread.

Races on a block are serialized at its home with a per-block transaction
lock: a request arriving while another transaction is in flight queues and
starts when the lock frees — the standard software-DSM discipline, and it
keeps the model deadlock-free by construction.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Generator

from repro.sim import Engine, Future
from repro.tempest.access import AccessControl, AccessTag
from repro.tempest.config import ClusterConfig
from repro.tempest.directory import Directory, DirState

_EXCLUSIVE = int(DirState.EXCLUSIVE)
_READWRITE = int(AccessTag.READWRITE)
from repro.tempest.network import Network
from repro.tempest.node import Node
from repro.tempest.stats import ClusterStats, MsgKind

__all__ = ["DefaultProtocol", "ProtocolError"]


class ProtocolError(RuntimeError):
    """An impossible protocol state — indicates a model bug."""


class DefaultProtocol:
    """State machines for the default protocol over one cluster."""

    def __init__(
        self,
        engine: Engine,
        config: ClusterConfig,
        access: AccessControl,
        directory: Directory,
        network: Network,
        nodes: list[Node],
        stats: ClusterStats,
    ) -> None:
        self.engine = engine
        self.config = config
        self.access = access
        self.directory = directory
        self.network = network
        self.nodes = nodes
        self.stats = stats
        #: observability bus (see repro.obs); None keeps publishing free
        self.obs = None
        # Per-block home-side transaction lock: block -> queue of deferred
        # transaction starters (fn, args).  Presence of the key means
        # "locked".
        self._busy: dict[int, deque[tuple[Callable[..., None], tuple]]] = {}
        # Requester-side in-flight read transactions (for prefetch overlap):
        # (node, block) -> completion future.  A demand read that finds an
        # in-flight prefetch waits on it instead of issuing a duplicate.
        self._inflight: dict[tuple[int, int], Future] = {}
        # Lineage only (populated when a bus is attached): (node, block) ->
        # the in-flight transaction's root msg.send seq, so a miss.join can
        # chain to the fetch it piggybacked on.
        self._inflight_cause: dict[tuple[int, int], int] = {}
        # Observability only: (node, block) -> the stats fields a
        # still-incomplete transaction has already bumped.  A rollback
        # that orphans the transaction emits a compensating ``miss.abort``
        # from this record, so event-derived counters stay exactly equal
        # to ClusterStats even when a crash wipes in-flight misses.
        self._inflight_counted: dict[tuple[int, int], dict[str, int]] = {}

    # ------------------------------------------------------------------ #
    # transaction lock
    # ------------------------------------------------------------------ #
    def _lock(self, block: int, fn: Callable[..., None], *args) -> None:
        """Run ``fn(*args)`` holding ``block``'s lock, now or once it frees.

        Also the handler of READ_REQ and WRITE_REQ: sent with args
        ``(block, self._home_read | self._home_write, ...)``, the request's
        own seq lands last, as the transaction's ``cause``."""
        q = self._busy.get(block)
        if q is None:
            self._busy[block] = deque()
            fn(*args)
        else:
            q.append((fn, args))

    def _unlock(self, block: int) -> None:
        q = self._busy.get(block)
        if q is None:  # pragma: no cover
            raise ProtocolError(f"unlock of unlocked block {block}")
        if q:
            fn, args = q.popleft()
            fn(*args)  # hand the lock to the next queued transaction
        else:
            del self._busy[block]

    def _forget_inflight(self, key: tuple[int, int]) -> None:
        """A read transaction completed: its future resolves with the
        requester-side ``(node, block)`` key this callback clears."""
        self._inflight.pop(key, None)
        self._inflight_cause.pop(key, None)

    # ------------------------------------------------------------------ #
    # read miss (blocking)
    # ------------------------------------------------------------------ #
    def read_block(
        self, node_id: int, block: int, count_stats: bool = True
    ) -> Generator[Any, Any, None]:
        """Service a read miss for ``node_id`` on ``block``; blocks until
        the data is installed readable.

        An outstanding prefetch of the same block is joined rather than
        duplicated.  ``count_stats=False`` lets protocol variants reuse the
        fetch machinery under their own accounting.
        """
        cfg = self.config
        node = self.nodes[node_id]
        key = (node_id, block)
        obs = self.obs
        t0 = self.engine.now
        inflight = self._inflight.get(key)
        if inflight is not None:
            # Overlap with an outstanding (pre)fetch of the same block.
            if count_stats:
                node.stats.prefetch_waits += 1
                if obs is not None:
                    self._inflight_counted[key] = {"prefetch_waits": 1}
            joined = self._inflight_cause.get(key)
            yield inflight
            if obs is not None and count_stats:
                self._inflight_counted.pop(key, None)
                obs.emit(
                    "miss.join", t0, self.engine.now - t0, node_id, joined,
                    {"block": block},
                )
            return
        if count_stats:
            node.stats.read_misses += 1
            if obs is not None:
                self._inflight_counted[key] = {"read_misses": 1}
        yield cfg.fault_detect_ns

        home = self.directory.home_of(block)
        done = self.engine.future("rd")
        self._inflight[key] = done
        done.add_callback(self._forget_inflight)
        root = None
        if home != node_id:
            if count_stats:
                node.stats.remote_read_misses += 1
                if obs is not None:
                    self._inflight_counted[key]["remote_read_misses"] = 1
            yield node.compute_cpu.use(cfg.send_overhead_ns)
            root = self.network.send(
                node_id, home, MsgKind.READ_REQ,
                self._lock, (block, self._home_read, block, node_id, done),
                cfg.handler_request_ns,
            )
        else:
            # Local miss at the home: only possible when the data is
            # exclusive at a remote node (otherwise the home's tag is valid).
            self._lock(block, self._home_read, block, node_id, done)
        if obs is not None and root is not None:
            self._inflight_cause[key] = root
        yield done
        if obs is not None and count_stats:
            self._inflight_counted.pop(key, None)
            obs.emit(
                "miss.read", t0, self.engine.now - t0, node_id, root,
                {"block": block, "home": home, "remote": home != node_id},
            )

    # ------------------------------------------------------------------ #
    # phase-level write hook (the executor delegates whole write batches
    # so protocol variants can implement their own write semantics)
    # ------------------------------------------------------------------ #
    def write_phase(self, node_id: int, blocks, phase: int) -> Generator[Any, Any, None]:
        """Perform a phase's write accesses under this protocol.

        Invalidate semantics: versions bump first (stores land in memory
        immediately under the eager multiple-writer discipline), then each
        non-writable block takes an eager ownership fault.
        """
        self.directory.record_write(node_id, blocks, phase)
        tags = self.access.rows[node_id][blocks]
        fault_mask = tags != _READWRITE
        if not fault_mask.any():
            return  # every block already writable — the common steady state
        for b in blocks[fault_mask].tolist():
            # Re-check: an earlier fault's transaction may have raced.
            if not self.access.writable(node_id, b):
                yield from self.write_block(node_id, b)

    def start_prefetch(self, node_id: int, block: int) -> Future | None:
        """Issue a co-operative prefetch for ``block``; returns its
        completion future, or None when one is already outstanding.

        Registration is synchronous (the in-flight entry exists the moment
        this returns), so a demand read arriving at the same instant joins
        the transaction instead of duplicating it; the per-message costs
        are charged asynchronously on the issuing node's compute CPU.
        """
        key = (node_id, block)
        if key in self._inflight:
            return None
        cfg = self.config
        node = self.nodes[node_id]
        node.stats.prefetches += 1
        home = self.directory.home_of(block)
        pf_seq = None
        if self.obs is not None:
            pf_seq = self.obs.emit(
                "miss.prefetch", self.engine.now, 0, node_id, None,
                {"block": block, "home": home},
            )
        done = self.engine.future(f"pf.b{block}.n{node_id}")
        self._inflight[key] = done
        done.add_callback(self._forget_inflight)

        # The caller (ext.prefetch) charges the issue overhead inline, so
        # the request leaves immediately and the transaction overlaps the
        # computation that follows — the whole point of the prefetch.
        if home != node_id:
            root = self.network.send(
                node_id, home, MsgKind.READ_REQ,
                self._lock, (block, self._home_read, block, node_id, done),
                cfg.handler_request_ns, parent=pf_seq,
            )
            if root is not None:
                self._inflight_cause[key] = root
        else:
            self._lock(block, self._home_read, block, node_id, done)
        return done

    def _home_read(
        self, block: int, requester: int, done: Future, cause=None
    ) -> None:
        """Runs at the home with the block lock held."""
        d = self.directory
        home = d.home_of(block)
        state = d.state[block]
        cfg = self.config

        if state == _EXCLUSIVE and d.owner[block] != requester:
            owner = d.owner[block]
            if owner == home:
                # The home itself holds the exclusive copy: its handler
                # reads local memory directly — no self-messages.
                self.access.set(home, block, AccessTag.READONLY)
                d.add_sharer(block, home)
                self._finish_read(block, requester, done, cause)
                return
            # 2. put-data-request to the exclusive owner.
            self.network.send(
                home, owner, MsgKind.PUT_REQ,
                self._owner_put, (block, owner, requester, done),
                cfg.handler_request_ns, parent=cause,
            )
            return
        if state == _EXCLUSIVE:  # pragma: no cover - impossible
            raise ProtocolError(
                f"node {requester} read-faulted on block {block} it owns exclusively"
            )
        # Home memory is current (Idle or Shared): reply directly.
        self._finish_read(block, requester, done, cause)

    def _owner_put(
        self, block: int, owner: int, requester: int, done: Future, cause
    ) -> None:
        """PUT_REQ handler: the exclusive owner downgrades and returns the
        data to the home."""
        cfg = self.config
        self.access.set(owner, block, AccessTag.READONLY)
        # 3. put-data-response carries the block back to the home.
        self.network.send(
            owner, self.directory.home_of(block), MsgKind.PUT_RESP,
            self._put_at_home, (block, owner, requester, done),
            cfg.handler_response_ns, payload_bytes=cfg.block_size, parent=cause,
        )

    def _put_at_home(
        self, block: int, owner: int, requester: int, done: Future, cause
    ) -> None:
        """PUT_RESP handler (read recall): the home installs the current
        data, its own copy becomes valid, and the read completes."""
        d = self.directory
        home = d.home_of(block)
        d.deliver_copy_one(home, block)
        if not self.access.readable(home, block):
            self.access.set(home, block, AccessTag.READONLY)
        d.add_sharer(block, owner)
        self._finish_read(block, requester, done, cause)

    def _finish_read(
        self, block: int, requester: int, done: Future, cause=None
    ) -> None:
        """Home sends (or locally installs) the read response."""
        d = self.directory
        home = d.home_of(block)
        cfg = self.config
        if requester == home:
            d.add_sharer(block, requester)
            self.access.set(requester, block, AccessTag.READONLY)
            d.deliver_copy_one(requester, block)
            self._unlock(block)
            self.engine.call_now(done.resolve, (requester, block))
            return
        d.add_sharer(block, requester)
        # Granting a shared copy downgrades the home itself.
        if self.access.writable(home, block):
            self.access.set(home, block, AccessTag.READONLY)
        d.add_sharer(block, home)
        # 4. read-response with the data.  Submitted *before* releasing the
        # block lock: a queued write transaction starts synchronously at
        # unlock, and its invalidation must enter the FIFO link behind this
        # response, or the requester would install a copy the directory
        # already believes invalidated.
        self.network.send(
            home, requester, MsgKind.READ_RESP,
            self._read_resp, (block, requester, done),
            cfg.handler_response_ns, payload_bytes=cfg.block_size, parent=cause,
        )
        self._unlock(block)

    def _read_resp(self, block: int, requester: int, done: Future, _seq) -> None:
        """READ_RESP handler: install the copy readable, wake the reader."""
        self.access.set(requester, block, AccessTag.READONLY)
        self.directory.deliver_copy_one(requester, block)
        done.resolve((requester, block))

    # ------------------------------------------------------------------ #
    # write fault (eager, non-blocking)
    # ------------------------------------------------------------------ #
    def write_block(
        self, node_id: int, block: int, count_fault: bool = True
    ) -> Generator[Any, Any, Future]:
        """Take write ownership of ``block`` for ``node_id``.

        The store proceeds immediately (tag flips to ReadWrite); the
        returned future resolves when ownership is granted, and is also
        parked in the node's pending set so release fences see it.

        ``count_fault=False`` is used by the compiler's ``mk_writable``
        primitive, which reuses this transaction but must not count as a
        demand miss.
        """
        cfg = self.config
        node = self.nodes[node_id]
        obs = self.obs
        t0 = self.engine.now
        if count_fault:
            node.stats.write_faults += 1
            if obs is not None:
                self._inflight_counted[(node_id, block)] = {"write_faults": 1}
            yield cfg.fault_detect_ns

        self.access.set(node_id, block, AccessTag.READWRITE)
        grant = self.engine.future("wr")
        node.post_pending(grant)

        home = self.directory.home_of(block)
        root = None
        if home != node_id:
            yield node.compute_cpu.use(cfg.send_overhead_ns)
            root = self.network.send(
                node_id, home, MsgKind.WRITE_REQ,
                self._lock, (block, self._home_write, block, node_id, grant),
                cfg.handler_request_ns,
            )
        else:
            self._lock(block, self._home_write, block, node_id, grant)
        if obs is not None and count_fault:
            # Covers the inline portion of the fault (detection + request
            # send); the ownership transaction itself completes in the
            # background and resolves ``grant``.
            self._inflight_counted.pop((node_id, block), None)
            obs.emit(
                "miss.write", t0, self.engine.now - t0, node_id, root,
                {"block": block, "home": home},
            )
        return grant

    def _home_write(
        self, block: int, writer: int, grant: Future, cause=None
    ) -> None:
        """Home-side write transaction, lock held."""
        d = self.directory
        cfg = self.config
        home = d.home_of(block)
        state = d.state[block]

        if state == _EXCLUSIVE:
            owner = d.owner[block]
            if owner == writer:
                self._finish_write(block, writer, grant, cause)
                return
            # Recall: invalidate the owner; it flushes the data home.
            self.network.send(
                home, owner, MsgKind.INV,
                self._recall_at_owner, (block, owner, writer, grant),
                cfg.handler_invalidate_ns, combinable=True, parent=cause,
            )
            return

        # The home's own readable copy dies inline (no self-messages needed).
        if home != writer:
            self.access.set(home, block, AccessTag.INVALID)
        mask = d.sharers[block] & ~(1 << writer | 1 << home)
        if not mask:
            self._finish_write(block, writer, grant, cause)
            return
        # One count shared by every invalidation's ack; the last one in
        # completes the write.
        remaining = [mask.bit_count()]
        while mask:
            # 6. invalidation to each sharer, in ascending node order.
            low = mask & -mask
            mask ^= low
            s = low.bit_length() - 1
            self.network.send(
                home, s, MsgKind.INV,
                self._on_inv, (block, s, writer, grant, remaining),
                cfg.handler_invalidate_ns, combinable=True, parent=cause,
            )

    def _recall_at_owner(
        self, block: int, owner: int, writer: int, grant: Future, cause
    ) -> None:
        """INV handler at an exclusive owner: drop the copy and flush the
        data home."""
        cfg = self.config
        self.access.set(owner, block, AccessTag.INVALID)
        self.network.send(
            owner, self.directory.home_of(block), MsgKind.PUT_RESP,
            self._flush_at_home, (block, writer, grant),
            cfg.handler_response_ns, payload_bytes=cfg.block_size, parent=cause,
        )

    def _flush_at_home(self, block: int, writer: int, grant: Future, cause) -> None:
        """PUT_RESP handler (write recall): the home takes the data back."""
        d = self.directory
        d.deliver_copy_one(d.home_of(block), block)
        self._finish_write(block, writer, grant, cause)

    def _on_inv(
        self, block: int, sharer: int, writer: int, grant: Future,
        remaining: list, cause,
    ) -> None:
        """INV handler at a sharer: drop the copy, acknowledge."""
        self.access.set(sharer, block, AccessTag.INVALID)
        # 7. acknowledgement back to the home.
        self.network.send(
            sharer, self.directory.home_of(block), MsgKind.ACK,
            self._on_ack, (block, writer, grant, remaining),
            self.config.handler_ack_ns, combinable=True, parent=cause,
        )

    def _on_ack(
        self, block: int, writer: int, grant: Future, remaining: list, cause
    ) -> None:
        """ACK handler at the home: the last ack completes the write."""
        remaining[0] -= 1
        if remaining[0] == 0:
            self._finish_write(block, writer, grant, cause)

    def _finish_write(
        self, block: int, writer: int, grant: Future, cause=None
    ) -> None:
        d = self.directory
        cfg = self.config
        home = d.home_of(block)
        d.set_exclusive(block, writer)
        if home != writer:
            self.access.set(home, block, AccessTag.INVALID)
            # 8. write-grant (with data), submitted before the unlock so a
            # queued transaction's messages cannot overtake it on the link.
            self.network.send(
                home, writer, MsgKind.GRANT,
                self._grant_at_writer, (block, writer, grant),
                cfg.handler_response_ns, payload_bytes=cfg.block_size,
                parent=cause,
            )
            self._unlock(block)
        else:
            self.access.set(writer, block, AccessTag.READWRITE)
            d.deliver_copy_one(writer, block)
            self._unlock(block)
            self.engine.call_now(grant.resolve, None)

    def _grant_at_writer(self, block: int, writer: int, grant: Future, _seq) -> None:
        """GRANT handler.  The writer may have had no copy at all; the
        grant carries the current data so partial-block stores merge
        correctly.  It also (re)installs write permission: a racing
        writer's invalidation may have wiped the tag set eagerly at fault
        time while this transaction was queued at the home."""
        self.access.set(writer, block, AccessTag.READWRITE)
        self.directory.deliver_copy_one(writer, block)
        grant.resolve(None)
