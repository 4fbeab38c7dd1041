"""A cluster node: compute processor, protocol processor, pending writes.

Dual-CPU configuration (the paper's default): protocol handlers execute on a
dedicated second HyperSPARC, so remote requests do not steal compute cycles.
Single-CPU configuration: the *same* FIFO resource serves both computation
and protocol handlers, and every handler additionally pays an interrupt
entry cost — this is what makes the single-CPU runs "somewhat slower" and
gives the optimizations proportionately more headroom (paper Section 6).

Release consistency: write faults are *eager* — the faulting store proceeds
immediately while the ownership transaction runs in the background.  The
node keeps the set of outstanding transactions and drains it at release
points (barriers), per "at synchronization points, a node waits for all
pending transactions to complete".
"""

from __future__ import annotations

from typing import Any, Callable, Generator

from repro.sim import Engine, Future, Resource, SimulationError
from repro.tempest.config import ClusterConfig
from repro.tempest.stats import NodeStats

__all__ = ["Node"]


class Node:
    """State and processors of one cluster node."""

    __slots__ = (
        "node_id",
        "engine",
        "config",
        "stats",
        "compute_cpu",
        "protocol_cpu",
        "pending",
        "alive",
        "incarnation",
        "_handler_extra_ns",
    )

    def __init__(
        self, node_id: int, engine: Engine, config: ClusterConfig, stats: NodeStats
    ) -> None:
        self.node_id = node_id
        self.engine = engine
        self.config = config
        self.stats = stats
        self.compute_cpu = Resource(engine, f"n{node_id}.cpu")
        if config.dual_cpu:
            self.protocol_cpu = Resource(engine, f"n{node_id}.pcpu")
        else:
            self.protocol_cpu = self.compute_cpu
        self.pending: list[Future] = []
        # Fail-stop state: a crashed node stops accepting handlers, and
        # the incarnation counter (bumped at each crash) invalidates every
        # handler effect already queued on its protocol CPU — a restarted
        # node never replays a pre-crash handler.
        self.alive = True
        self.incarnation = 0
        # Per-handler surcharge: the interrupt entry cost on a shared CPU.
        self._handler_extra_ns = 0 if config.dual_cpu else config.interrupt_overhead_ns

    # ------------------------------------------------------------------ #
    # protocol handler execution
    # ------------------------------------------------------------------ #
    def run_handler(
        self, cost_ns: int, fn: Callable[..., None], args: tuple, seq
    ) -> None:
        """Execute a message handler: occupy the protocol CPU for its cost,
        then apply its effects as ``fn(*args, seq)``.

        Effects apply at occupancy *completion* so that a handler's state
        changes are not visible while it is still queued behind earlier
        handlers — the FIFO resource gives us Tempest's one-handler-at-a-time
        semantics for free.
        """
        if not self.alive:
            return  # fail-stopped: the handler vanishes with the node
        # Resource.then on the protocol CPU, written out: one per message.
        duration = cost_ns + self._handler_extra_ns
        if duration < 0:
            raise SimulationError(f"negative service time {duration}")
        cpu = self.protocol_cpu
        engine = self.engine
        start = cpu._free_at
        now = engine.now
        if start < now:
            start = now
        finish = start + duration
        cpu._free_at = finish
        cpu.busy_ns += duration
        cpu.jobs += 1
        engine.call_chain(
            finish, self._apply_handler, fn, args, seq, self.incarnation
        )

    def _apply_handler(
        self, fn: Callable[..., None], args: tuple, seq, inc: int
    ) -> None:
        """Apply a handler's effects unless the node crashed since queueing."""
        if self.incarnation == inc:
            fn(*args, seq)

    # ------------------------------------------------------------------ #
    # compute-side process fragments
    # ------------------------------------------------------------------ #
    def compute(self, ns: int) -> Generator[Any, Any, None]:
        """Charge ``ns`` of computation to the compute CPU.

        Under the single-CPU configuration this naturally contends with
        protocol handlers through the shared FIFO resource.
        """
        if ns <= 0:
            return
        start = self.engine.now
        if self.config.dual_cpu:
            yield self.compute_cpu.use(ns)
        else:
            # Slice the computation so protocol handlers (which share this
            # CPU) interleave with bounded latency instead of waiting for
            # the whole computation to finish.
            quantum = self.config.compute_quantum_ns
            remaining = ns
            while remaining > 0:
                slice_ns = min(quantum, remaining)
                yield self.compute_cpu.use(slice_ns)
                remaining -= slice_ns
        self.stats.compute_ns += ns
        # Queueing behind protocol handlers shows up as stall, not compute.
        overrun = (self.engine.now - start) - ns
        if overrun > 0:
            self.stats.stall_ns += overrun

    def post_pending(self, fut: Future) -> None:
        """Register an outstanding (eager) write transaction."""
        self.pending.append(fut)

    def drain_pending(self) -> Generator[Any, Any, None]:
        """Release fence: wait for all outstanding write transactions."""
        start = self.engine.now
        pending, self.pending = self.pending, []
        for fut in pending:
            yield fut
        self.stats.stall_ns += self.engine.now - start

    def __repr__(self) -> str:  # pragma: no cover
        return f"Node({self.node_id}, pending={len(self.pending)})"
