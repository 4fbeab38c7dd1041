"""Building the per-loop communication plan — the paper's Figure 2.

Given a loop's instantiated access information (:class:`LoopInstance`), the
planner emits the call schedule:

====== =================================================================
stage  ops
====== =================================================================
pre[0]  ``mk_writable`` at every sender (owners of transferred sections)
        --- barrier ---
pre[1]  ``implicit_writable`` at every receiver
        --- barrier ---
pre[2]  ``send_blocks`` at senders; ``ready_to_recv`` at receivers
        (no barrier: the receive semaphore is the synchronization)
loop    executes with zero faults on controlled blocks
post[0] ``implicit_invalidate`` at read-receivers;
        ``flush_and_invalidate`` at non-owner writers;
        ``ready_to_recv`` at flush targets
        --- (the loop-end barrier restores global consistency) ---
====== =================================================================

Only blocks *fully inside* the transferred section are taken under control
(``shmem_limits``); boundary blocks fall back to the default protocol, so
the plan also reports them (they show up as residual misses — the paper's
"edge cases ... that we omit by our shmem_limits call").

Options (the paper's Section 4.3 knobs, evaluated in Figure 4):

``bulk``     coalesce contiguous blocks into multi-block payloads
``rt_elim``  run-time overhead elimination: drop ``mk_writable`` + its
             barrier, memoize ``implicit_writable``, drop
             ``implicit_invalidate``.  Legal only under the whole-program
             assumptions (strictly owner-computes => no write transfers);
             the planner refuses otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.access import LoopInstance
from repro.core.blocks import BlockMemo
from repro.core.calls import (
    CallOp,
    FlushBlocks,
    ImplicitInvalidate,
    ImplicitWritable,
    MkWritable,
    Prefetch,
    ReadyToRecv,
    SelfInvalidate,
    SendBlocks,
)
from repro.tempest.memory import SharedMemory

__all__ = ["CommPlan", "PlanError", "plan_loop"]


class PlanError(ValueError):
    """The requested plan options are illegal for this loop."""


@dataclass
class CommPlan:
    """The planned calls around one parallel loop instance."""

    # Stages; a barrier separates consecutive pre stages.
    pre: list[list[CallOp]] = field(default_factory=list)
    post: list[list[CallOp]] = field(default_factory=list)
    #: blocks under compiler control, per receiving node (for the checker)
    controlled: dict[int, np.ndarray] = field(default_factory=dict)
    #: boundary blocks left to the default protocol, per receiving node
    boundary: dict[int, np.ndarray] = field(default_factory=dict)
    rt_elim: bool = False
    bulk: bool = True

    @property
    def is_empty(self) -> bool:
        return not any(self.pre) and not any(self.post)

    def total_controlled_blocks(self) -> int:
        return int(sum(len(b) for b in self.controlled.values()))


def _absent(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mask over ``a``: True where the block is not in ``b``.  Block arrays
    are sorted and unique (``shmem_limits`` builds them so, masking keeps
    it), which makes this a binary search; ``b`` is non-empty."""
    return b[np.minimum(np.searchsorted(b, a), len(b) - 1)] != a


def _merge_blocks(per_key: dict, key, blocks: np.ndarray) -> None:
    if len(blocks) == 0:
        return
    prev = per_key.get(key)
    if prev is not None:
        new = blocks[_absent(blocks, prev)]
        if len(new) == 0:
            return
        blocks = np.concatenate((prev, new))
        blocks.sort(kind="stable")  # two sorted runs: one merge pass
    per_key[key] = blocks


def plan_loop(
    inst: LoopInstance,
    memory: SharedMemory,
    bulk: bool = True,
    rt_elim: bool = False,
    advisory: str | bool = False,
    memo: BlockMemo | None = None,
) -> CommPlan:
    """Build the communication plan for one instantiated loop.

    ``advisory`` additionally covers the *boundary* blocks (which stay with
    the default protocol) with advisory primitives — the paper's
    suggested-but-unexplored optimization for pronounced edge effects:

    * ``"prefetch"`` — co-operative prefetch before the loop only;
    * ``"full"`` — prefetch plus post-loop self-invalidate.

    Measurement note (see bench_ablation_advisory): self-invalidate trades
    the producer's invalidation round trip for a refetch of the block every
    iteration, which loses whenever the boundary data is stable across
    loops — prefetch-only is the safer default.

    ``memo`` shares block arrays with the caller's other consumers of the
    same phase (see :class:`~repro.core.blocks.BlockMemo`).
    """
    if memo is None:
        memo = BlockMemo(memory.arrays)
    plan = CommPlan(rt_elim=rt_elim, bulk=bulk)
    advisory_per_dst: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------ #
    # Resolve transfers to controllable block ranges.
    #
    # Read transfers are merged per *receiver*: the paper subsets the whole
    # non-owner section a(m:n) to block boundaries, then "designates owners
    # to send the relevant blocks".  A block whose elements straddle two
    # owners is assigned to the owner of its first element — legal because
    # that owner's mk_writable recalls every other copy, leaving it with
    # the merged current data (Section 4.2 step 1).  This matters for codes
    # like cg whose per-owner vector chunks are smaller than a block.
    #
    # Write transfers stay per (owner, writer) pair: the flush must return
    # each block to a single owner.
    # ------------------------------------------------------------------ #
    send_pairs: dict[tuple[int, int], np.ndarray] = {}       # read data pushes
    write_pairs: dict[tuple[int, int], np.ndarray] = {}      # owner->writer preloads
    boundary_per_dst: dict[int, np.ndarray] = {}

    has_write_transfers = False
    for t in inst.write_transfers:
        inner, edge = memo.limits(t.array, t.section)
        _merge_blocks(boundary_per_dst, t.dst, edge)
        if len(inner):
            has_write_transfers = True
            _merge_blocks(write_pairs, (t.src, t.dst), inner)

    # Read side: subset each receiver's *whole* non-owner section (not the
    # per-owner pieces) so that multi-owner sections keep their full
    # block-aligned core, then pick one sender per block.
    for dst in range(inst.n_procs):
        for aname, sec in inst.non_owner_reads[dst]:
            arr = memory.arrays[aname]
            inner, edge = memo.limits(aname, sec)
            _merge_blocks(boundary_per_dst, dst, edge)
            if advisory and len(edge):
                owners = arr.owners_of_blocks(edge)
                _merge_blocks(advisory_per_dst, dst, edge[owners != dst])
            if len(inner) == 0:
                continue
            if rt_elim:
                # The rt-elim whole-program assumptions require senders to
                # retain exclusive ownership; a block straddling two owners
                # cannot satisfy that (the co-owner's writes would wipe the
                # memoized receiver tags).  Leave such blocks to the
                # default protocol.
                single = arr.single_owner_blocks(inner)
                _merge_blocks(boundary_per_dst, dst, inner[~single])
                inner = inner[single]
                if len(inner) == 0:
                    continue
            senders = arr.owners_of_blocks(inner)
            for sender in np.unique(senders):
                blocks = inner[senders == sender]
                if sender == dst:
                    # The receiver itself owns the block's first element
                    # (its tail shares the block): default protocol.
                    _merge_blocks(boundary_per_dst, dst, blocks)
                else:
                    _merge_blocks(send_pairs, (int(sender), dst), blocks)

    if rt_elim and has_write_transfers:
        raise PlanError(
            "run-time overhead elimination assumes strictly owner-computes "
            "(no non-owner writes); this loop has write transfers"
        )

    if not send_pairs and not write_pairs:
        plan.boundary = boundary_per_dst
        _append_advisory(plan, advisory_per_dst, advisory)
        return plan

    # ------------------------------------------------------------------ #
    # Stage: mk_writable at senders (merged over all their destinations).
    # ------------------------------------------------------------------ #
    sender_blocks: dict[int, np.ndarray] = {}
    for (src, _dst), blocks in list(send_pairs.items()) + list(write_pairs.items()):
        _merge_blocks(sender_blocks, src, blocks)

    if not rt_elim:
        plan.pre.append(
            [
                MkWritable(node, tuple(blocks.tolist()))
                for node, blocks in sorted(sender_blocks.items())
            ]
        )

    # ------------------------------------------------------------------ #
    # Stage: implicit_writable at receivers.
    # ------------------------------------------------------------------ #
    recv_blocks: dict[int, np.ndarray] = {}
    for (_src, dst), blocks in list(send_pairs.items()) + list(write_pairs.items()):
        _merge_blocks(recv_blocks, dst, blocks)

    iw_stage: list[CallOp] = []
    for node, blocks in sorted(recv_blocks.items()):
        t = tuple(blocks.tolist())
        memo = (t[0], len(t)) if rt_elim else None
        iw_stage.append(ImplicitWritable(node, t, memo))
    plan.pre.append(iw_stage)

    # ------------------------------------------------------------------ #
    # Stage: sends + ready_to_recv.
    # ------------------------------------------------------------------ #
    xfer_stage: list[CallOp] = []
    expected: dict[int, int] = {}
    for (src, dst), blocks in sorted(send_pairs.items()):
        xfer_stage.append(SendBlocks(src, tuple(blocks.tolist()), dst, bulk, "read"))
        expected[dst] = expected.get(dst, 0) + len(blocks)
    for (src, dst), blocks in sorted(write_pairs.items()):
        xfer_stage.append(SendBlocks(src, tuple(blocks.tolist()), dst, bulk, "write"))
        expected[dst] = expected.get(dst, 0) + len(blocks)
    for node, count in sorted(expected.items()):
        xfer_stage.append(ReadyToRecv(node, count))
    plan.pre.append(xfer_stage)

    # ------------------------------------------------------------------ #
    # Post stage: invalidate read copies; flush non-owner writes home.
    # ------------------------------------------------------------------ #
    post: list[CallOp] = []
    if not rt_elim:
        read_recv: dict[int, np.ndarray] = {}
        for (_src, dst), blocks in send_pairs.items():
            _merge_blocks(read_recv, dst, blocks)
        for node, blocks in sorted(read_recv.items()):
            post.append(ImplicitInvalidate(node, tuple(blocks.tolist())))
    flush_expected: dict[int, int] = {}
    for (owner, writer), blocks in sorted(write_pairs.items()):
        post.append(FlushBlocks(writer, tuple(blocks.tolist()), owner, bulk))
        flush_expected[owner] = flush_expected.get(owner, 0) + len(blocks)
    for node, count in sorted(flush_expected.items()):
        post.append(ReadyToRecv(node, count))
    if post:
        plan.post.append(post)

    plan.controlled = recv_blocks
    # A block can land in both sets when overlapping sections of different
    # halo offsets cover it differently (fully by one, partially by
    # another).  Compiler control wins: the push keeps the receiver
    # current, so the block needs no default-protocol handling.
    plan.boundary = {
        dst: (
            edge[_absent(edge, recv_blocks[dst])]
            if dst in recv_blocks
            else edge
        )
        for dst, edge in boundary_per_dst.items()
    }
    if advisory:
        advisory_per_dst = {
            dst: (
                blocks[_absent(blocks, recv_blocks[dst])]
                if dst in recv_blocks
                else blocks
            )
            for dst, blocks in advisory_per_dst.items()
        }
        advisory_per_dst = {d: b for d, b in advisory_per_dst.items() if len(b)}
    _append_advisory(plan, advisory_per_dst, advisory)
    return plan


def _append_advisory(
    plan: CommPlan, advisory_per_dst: dict, mode: str | bool
) -> None:
    """Cover boundary blocks with prefetch (and optionally self-inv)."""
    if not advisory_per_dst:
        return
    if not plan.pre:
        plan.pre.append([])
    for node, blocks in sorted(advisory_per_dst.items()):
        plan.pre[-1].append(Prefetch(node, tuple(blocks.tolist())))
    if mode == "full":
        if not plan.post:
            plan.post.append([])
        for node, blocks in sorted(advisory_per_dst.items()):
            plan.post[-1].append(SelfInvalidate(node, tuple(blocks.tolist())))
