"""Static verification of the compiler/protocol contract.

The run-time extensions already enforce the contract dynamically (a data
message arriving at an unprepared node raises), but planner bugs are far
cheaper to catch *before* simulation.  ``check_plan`` validates a
:class:`~repro.core.planner.CommPlan` against the rules of paper
Section 4.2:

1. every ``SendBlocks`` has a matching ``ImplicitWritable`` at the
   destination in an *earlier* stage (a barrier lies between stages), or
   the destination retains control from a previous plan (PRE mode);
2. every ``SendBlocks``/``FlushBlocks`` source prepared the blocks with
   ``MkWritable`` (or the plan declares the rt-elim whole-program
   assumptions);
3. receivers post ``ready_to_recv`` for exactly the number of blocks sent
   to them;
4. after the loop, every read-controlled block is invalidated
   (``ImplicitInvalidate``) unless rt-elim or PRE retention applies, and
   every write-controlled block is flushed to its owner;
5. ``MkWritable``/``ImplicitWritable`` never target the same block at two
   nodes in the same stage in conflicting roles.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.calls import (
    FlushBlocks,
    ImplicitInvalidate,
    ImplicitWritable,
    MkWritable,
    ReadyToRecv,
    SendBlocks,
)
from repro.core.planner import CommPlan

__all__ = ["ContractError", "check_plan"]


class ContractError(AssertionError):
    """A plan violates the compiler/protocol contract."""


def check_plan(
    plan: CommPlan,
    retained: dict[int, Iterable[int]] | None = None,
) -> None:
    """Raise :class:`ContractError` on any contract violation.

    ``retained`` maps node -> blocks still under that node's control from
    earlier plans (the PRE case); sends to retained blocks need no fresh
    ``implicit_writable``.
    """
    retained = {n: set(b) for n, b in (retained or {}).items()}

    # Collect per-stage facts.
    prepared_recv: dict[int, set[int]] = {n: set(b) for n, b in retained.items()}
    prepared_send: dict[int, set[int]] = {}
    stage_of_iw: dict[int, int] = {}
    sends: list[tuple[int, SendBlocks]] = []
    recv_counts: dict[int, int] = {}

    for stage_idx, stage in enumerate(plan.pre):
        writer: dict[int, int] = {}  # rule 5: block -> its mk_writable node
        for op in stage:
            if isinstance(op, MkWritable):
                for b in op.blocks:
                    writer.setdefault(b, op.node)
        for op in stage if writer else ():
            if isinstance(op, (MkWritable, ImplicitWritable)):
                clash = [b for b in op.blocks if writer.get(b, op.node) != op.node]
                if clash:
                    raise ContractError(
                        f"stage {stage_idx}: {type(op).__name__} at node {op.node} on "
                        f"blocks {clash[:4]} that node {writer[clash[0]]} makes writable"
                    )
        for op in stage:
            if isinstance(op, MkWritable):
                prepared_send.setdefault(op.node, set()).update(op.blocks)
                stage_of_iw.setdefault(op.node, stage_idx)
            elif isinstance(op, ImplicitWritable):
                prepared_recv.setdefault(op.node, set()).update(op.blocks)
                stage_of_iw[op.node] = stage_idx
            elif isinstance(op, SendBlocks):
                sends.append((stage_idx, op))
            elif isinstance(op, ReadyToRecv):
                recv_counts[op.node] = recv_counts.get(op.node, 0) + op.count

    # Rule 1 + barrier ordering: receiver prepared in a strictly earlier
    # stage than the send (stages are barrier-separated).
    sent_to: dict[int, int] = {}
    for stage_idx, send in sends:
        missing = set(send.blocks) - prepared_recv.get(send.dst, set())
        if missing:
            raise ContractError(
                f"send {send.node}->{send.dst}: blocks {sorted(missing)[:4]} "
                "were never made implicit_writable at the destination"
            )
        iw_stage = stage_of_iw.get(send.dst)
        fresh = set(send.blocks) - {
            b for b in send.blocks if b in retained.get(send.dst, set())
        }
        if fresh and iw_stage is not None and iw_stage >= stage_idx:
            raise ContractError(
                f"send {send.node}->{send.dst} in stage {stage_idx} is not "
                f"barrier-separated from implicit_writable in stage {iw_stage}"
            )
        # Rule 2.
        if not plan.rt_elim:
            missing_src = set(send.blocks) - prepared_send.get(send.node, set())
            if missing_src:
                raise ContractError(
                    f"sender {send.node} never ran mk_writable on blocks "
                    f"{sorted(missing_src)[:4]}"
                )
        sent_to[send.dst] = sent_to.get(send.dst, 0) + len(send.blocks)

    # Rule 3.
    for dst, n_sent in sent_to.items():
        if recv_counts.get(dst, 0) != n_sent:
            raise ContractError(
                f"node {dst} expects {recv_counts.get(dst, 0)} blocks but "
                f"{n_sent} are sent to it"
            )
    for dst, n_recv in recv_counts.items():
        if sent_to.get(dst, 0) != n_recv:
            raise ContractError(
                f"node {dst} waits for {n_recv} blocks but only "
                f"{sent_to.get(dst, 0)} are sent"
            )

    # Rule 4: post-loop restoration.
    if not plan.rt_elim:
        invalidated: dict[int, set[int]] = {}
        flushed: dict[int, set[int]] = {}
        for stage in plan.post:
            for op in stage:
                if isinstance(op, ImplicitInvalidate):
                    invalidated.setdefault(op.node, set()).update(op.blocks)
                elif isinstance(op, FlushBlocks):
                    flushed.setdefault(op.node, set()).update(op.blocks)
        for _stage_idx, send in sends:
            keep = retained.get(send.dst, set())
            uncovered = (
                set(send.blocks)
                - invalidated.get(send.dst, set())
                - flushed.get(send.dst, set())
                - keep
            )
            if uncovered:
                raise ContractError(
                    f"node {send.dst} never restores consistency on blocks "
                    f"{sorted(uncovered)[:4]} (missing implicit_invalidate/flush)"
                )
