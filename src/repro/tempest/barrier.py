"""Centralized message-based barrier with release-consistency fences.

Entering a barrier first drains the node's pending eager-write transactions
(the release fence: "at synchronization points, a node waits for all pending
transactions to complete"), then sends an arrival message to the manager
node.  Once all nodes have arrived, the manager broadcasts release messages.
All messages flow through the simulated network, so barrier cost reflects
real handler occupancy and contention — with 8 nodes a barrier costs on the
order of 2(N-1) short messages plus manager handler serialization, a few
hundred microseconds, in line with the platform the paper measures.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.sim import Engine, Future
from repro.tempest.config import ClusterConfig
from repro.tempest.network import Network
from repro.tempest.node import Node
from repro.tempest.stats import MsgKind

__all__ = ["Barrier"]


class Barrier:
    """Reusable cluster-wide barrier (generation counted per node)."""

    def __init__(
        self,
        engine: Engine,
        config: ClusterConfig,
        network: Network,
        nodes: list[Node],
    ) -> None:
        self.engine = engine
        self.config = config
        self.network = network
        self.nodes = nodes
        self.manager = 0  # collects arrivals, broadcasts releases
        #: observability bus (see repro.obs); None keeps publishing free
        self.obs = None
        self._node_gen = [0] * config.n_nodes
        self._arrivals: dict[int, int] = {}
        self._release: dict[tuple[int, int], Future] = {}
        self.barriers_completed = 0
        # Lineage only (populated when a bus is attached): the seq of a
        # generation's last barrier.arrive event (parent of its
        # barrier.release), and the release msg.send seq per (gen, dst) so
        # each node's barrier span can name its own release delivery.
        self._arrive_seq: dict[int, int] = {}
        self._release_msg: dict[tuple[int, int], int] = {}
        # Invoked with the completed-barrier ordinal at the all-arrived
        # instant — every node has drained its release fence and none has
        # resumed, so the protocol is globally quiescent.  The cluster uses
        # it to run the coherence auditor per barrier.
        self.on_complete = None
        # Checkpoint hook, same instant, separate slot so the auditor and
        # the RecoveryManager compose.  Returns the modeled snapshot-write
        # cost in ns; a nonzero cost defers the release broadcast by that
        # long (every node pays the checkpoint together, preserving the
        # consistent cut).  None or a zero return keeps the schedule
        # byte-identical to a checkpoint-free run.
        self.on_checkpoint = None

    def snapshot(self) -> int:
        """The checkpoint cut: the barriers completed (at a checkpoint, each node's generation)."""
        return self.barriers_completed

    def restore(self, completed: int) -> None:
        """Back to a cut; no arrival, release or lineage record is left over."""
        self.barriers_completed = completed
        self._node_gen = [completed] * len(self._node_gen)
        self._arrivals.clear()
        self._release.clear()
        self._arrive_seq.clear()
        self._release_msg.clear()

    def enter(self, node_id: int) -> Generator[Any, Any, None]:
        """Process fragment: release fence, arrive, wait for release."""
        node = self.nodes[node_id]
        gen = self._node_gen[node_id]
        self._node_gen[node_id] += 1
        start = self.engine.now

        yield from node.drain_pending()
        fence_ns = self.engine.now - start
        # drain_pending charged the fence to stall; barrier accounting below
        # covers the remainder, so avoid double-counting.
        bar_start = self.engine.now

        release = self.engine.future(f"bar{gen}.n{node_id}")
        self._release[(gen, node_id)] = release

        # Arrival message: sender-side overhead on the compute CPU.
        yield node.compute_cpu.use(self.config.send_overhead_ns)
        self.network.send(
            node_id, self.manager, MsgKind.BARRIER_ARRIVE,
            self._on_arrival, (gen, node_id, self.engine.now),
            self.config.handler_ack_ns, combinable=True,
        )
        yield release
        del self._release[(gen, node_id)]
        node.stats.barrier_ns += self.engine.now - bar_start
        if self.obs is not None:
            # The span covers the whole barrier as the node experiences it:
            # release fence (drain) + arrival + wait for release.
            self.obs.emit(
                "barrier", start, self.engine.now - start, node_id, None,
                {"gen": gen, "fence_ns": fence_ns,
                 "release_msg": self._release_msg.pop((gen, node_id), None)},
            )

    # ------------------------------------------------------------------ #
    def _on_arrival(self, gen: int, src: int, sent_ns: int, cause) -> None:
        """BARRIER_ARRIVE handler at the manager; ``src``, ``sent_ns`` and
        the arrival's own seq feed the lineage record only."""
        count = self._arrivals.get(gen, 0) + 1
        last = count >= self.config.n_nodes
        if self.obs is not None:
            seq = self.obs.emit(
                "barrier.arrive", self.engine.now, 0, self.manager, cause,
                {"gen": gen, "src": src, "sent_ns": sent_ns, "count": count,
                 "last": last},
            )
            if last:
                self._arrive_seq[gen] = seq
        if not last:
            self._arrivals[gen] = count
            return
        self._arrivals.pop(gen, None)
        self.barriers_completed += 1
        if self.on_complete is not None:
            self.on_complete(self.barriers_completed)
        if self.on_checkpoint is not None:
            cost = self.on_checkpoint(self.barriers_completed)
            if cost:
                self.engine.call_after(cost, self._broadcast_release, gen)
                return
        self._broadcast_release(gen)

    def _broadcast_release(self, gen: int) -> None:
        if not self.nodes[self.manager].alive:
            return  # the manager fail-stopped inside the checkpoint window
        rel_seq = None
        if self.obs is not None:
            rel_seq = self.obs.emit(
                "barrier.release", self.engine.now, 0, self.manager,
                self._arrive_seq.pop(gen, None), {"gen": gen},
            )
        for dst in range(self.config.n_nodes):
            seq = self.network.send(
                self.manager, dst, MsgKind.BARRIER_RELEASE,
                self._on_release, (gen, dst),
                self.config.handler_ack_ns, combinable=True, parent=rel_seq,
            )
            if seq is not None:
                self._release_msg[(gen, dst)] = seq

    def _on_release(self, gen: int, node_id: int, _seq) -> None:
        fut = self._release.get((gen, node_id))
        if fut is None:  # pragma: no cover - protocol invariant
            raise RuntimeError(
                f"barrier release for ({gen}, {node_id}) with no waiter"
            )
        fut.resolve(None)
