"""A write-update protocol variant.

The paper's Section 3 notes that "general update-based protocols have
analogous problems" to invalidation protocols; Tempest's whole premise is
that the protocol is user-level code, so this module provides the obvious
alternative default for comparison (``bench_ablation_protocol``).

Semantics
---------
* Blocks are only ever ``IDLE`` (home copy only) or ``SHARED`` (the home
  plus cached copies); there is no exclusive state.
* A read miss fetches from the home — which is *always current* — and
  registers the reader as a sharer.
* A write first acquires a local copy if needed (a write-allocate fetch,
  counted as a write fault), then pushes an UPDATE message carrying the
  block to every other sharer and to the home.  Updates are eager: the
  writer collects UPDATE_ACKs at the next release point, not inline.

The well-known trade: producer→consumer data moves in a single data-bearing
message (what the paper's compiler achieves *selectively*), but every write
to ever-shared data updates all historical sharers whether or not they will
read again — the "useless update" pathology that made invalidation the
default everywhere.  Self-invalidate (``repro.tempest.extensions``) is the
classic mitigation.

Compiler-control extensions assume invalidation semantics (exclusive
ownership); the executor refuses ``optimize=True`` under this protocol.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.tempest.access import AccessTag
from repro.tempest.protocol import DefaultProtocol
from repro.tempest.stats import MsgKind

__all__ = ["UpdateProtocol"]


class UpdateProtocol(DefaultProtocol):
    """Write-update, release-consistent protocol over the same directory."""

    # The read path is inherited: without exclusive states, `_home_read`
    # only ever takes its Idle/Shared branch, where the home is current.

    def write_block(self, node_id: int, block: int, count_fault: bool = True):
        raise NotImplementedError(
            "the update protocol has no ownership transactions; "
            "compiler extensions require the invalidate protocol"
        )

    def write_phase(self, node_id: int, blocks, phase: int) -> Generator[Any, Any, None]:
        cfg = self.config
        node = self.nodes[node_id]
        d = self.directory
        d.record_write(node_id, blocks, phase)

        obs = self.obs
        tags = self.access.rows[node_id][blocks]
        missing = blocks[tags < int(AccessTag.READONLY)]
        for b in missing.tolist():
            # Write-allocate: fetch the current copy (blocking), counted as
            # a write fault rather than a read miss.
            if not self.access.readable(node_id, b):
                node.stats.write_faults += 1
                t0 = self.engine.now
                yield cfg.fault_detect_ns
                yield from self.read_block(node_id, b, count_stats=False)
                if obs is not None:
                    obs.emit(
                        "miss.write", t0, self.engine.now - t0, node_id, None,
                        {"block": b, "home": d.home_of(b)},
                    )
            self.access.set(node_id, b, AccessTag.READWRITE)
        held = blocks[tags >= int(AccessTag.READONLY)]
        if held.size:
            self.access.set_range(node_id, held, AccessTag.READWRITE)

        # Push the new data to every other holder; the home always gets a
        # copy so cold readers fetch current data from it.  Each block's
        # sharer mask is read when the loop reaches it: the loop yields
        # between blocks, and handlers may change the masks meanwhile.
        sharers = d.sharers
        writer_bit = 1 << node_id
        for b in blocks.tolist():
            targets = (sharers[b] | 1 << d.home_of(b)) & ~writer_bit
            # The writer is a holder the directory must track, so a later
            # writer's updates reach it.
            d.add_sharer(b, node_id)
            if not targets:
                continue  # private data: free, like a local cache hit
            ack = self.engine.future(f"upd.b{b}.n{node_id}")
            # One count shared by every update's ack.
            remaining = [targets.bit_count()]
            node.post_pending(ack)
            yield node.compute_cpu.use(cfg.send_overhead_ns)
            while targets:
                # Ascending node order: lowest set bit first.
                low = targets & -targets
                targets ^= low
                dst = low.bit_length() - 1
                self.network.send(
                    node_id, dst, MsgKind.UPDATE,
                    self._on_update, (b, node_id, dst, ack, remaining),
                    cfg.handler_response_ns, payload_bytes=cfg.block_size,
                )

    def _on_update(
        self, block: int, writer: int, dst: int, ack, remaining: list, _seq
    ) -> None:
        """UPDATE handler: install the new data (a dropped copy still
        acks; the next read simply refetches) and acknowledge."""
        if self.access.get(dst, block) is not AccessTag.INVALID:
            self.directory.deliver_copy_one(dst, block)
        self.network.send(
            dst, writer, MsgKind.UPDATE_ACK,
            self._on_update_ack, (ack, remaining),
            self.config.handler_ack_ns, combinable=True,
        )

    @staticmethod
    def _on_update_ack(ack, remaining: list, _seq) -> None:
        """UPDATE_ACK handler at the writer: the last ack resolves."""
        remaining[0] -= 1
        if remaining[0] == 0:
            ack.resolve(None)
