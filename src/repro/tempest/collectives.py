"""Collective operations: reductions and point-to-point message passing.

The applications use SUM reductions ("efficiently implemented using
low-level messages" — the paper on *grav*), and the message-passing
comparator backend needs matched send/receive over the same network.  Both
live here, outside the coherence protocol: they use raw Tempest messages.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.sim import CountingSemaphore, Engine, Future
from repro.tempest.config import ClusterConfig
from repro.tempest.network import Network
from repro.tempest.node import Node
from repro.tempest.stats import MsgKind

__all__ = ["Collectives"]


class Collectives:
    """Reduction + message-passing services over the cluster network."""

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
        self.root = 0  # central reductions combine here
        #: observability bus (see repro.obs); None keeps publishing free
        self.obs = None
        self._node_gen = [0] * config.n_nodes
        self._arrivals: dict[int, int] = {}
        self._result: dict[tuple[int, int], Future] = {}
        self._tree_semas: dict[tuple[int, int], CountingSemaphore] = {}
        # Message passing: per-receiver semaphore counting arrived messages.
        self._mp_sema = [
            CountingSemaphore(engine, f"mp.n{i}") for i in range(config.n_nodes)
        ]

    def snapshot(self) -> tuple[list[int], list[int]]:
        """The checkpoint cut: the per-node generations and the mp counts."""
        return list(self._node_gen), [s.snapshot() for s in self._mp_sema]

    def restore(self, cut: tuple[list[int], list[int]]) -> None:
        """Back to a cut; no reduction is left in progress."""
        node_gen, mp_counts = cut
        self._node_gen = list(node_gen)
        for sema, count in zip(self._mp_sema, mp_counts):
            sema.restore(count)
        self._arrivals.clear()
        self._result.clear()
        self._tree_semas.clear()

    # ------------------------------------------------------------------ #
    # global SUM-style reduction (combine at root, broadcast result)
    # ------------------------------------------------------------------ #
    def reduce(self, node_id: int, n_values: int = 1) -> Generator[Any, Any, None]:
        """All-reduce of ``n_values`` doubles; every node must call it.

        Algorithm per ``config.reduce_algorithm``: ``"central"`` (combine
        at the root, broadcast — 2 hops, root handler serializes N
        contributions) or ``"tree"`` (binomial combine + mirrored
        broadcast — 2·log2(N) hops, no serialization hot-spot).
        """
        cfg = self.config
        node = self.nodes[node_id]
        start = self.engine.now
        gen = self._node_gen[node_id]
        self._node_gen[node_id] += 1
        payload = 8 * n_values
        contrib = None

        if cfg.reduce_algorithm == "tree":
            yield from self._tree_reduce(node_id, gen, payload)
        else:
            result = self.engine.future(f"reduce{gen}.n{node_id}")
            self._result[(gen, node_id)] = result
            yield node.compute_cpu.use(cfg.send_overhead_ns)
            contrib = self.network.send(
                node_id, self.root, MsgKind.REDUCE,
                self._on_contribution, (gen, payload),
                cfg.handler_request_ns, payload_bytes=payload,
            )
            yield result
            del self._result[(gen, node_id)]
        node.stats.reduce_ns += self.engine.now - start
        if self.obs is not None:
            self.obs.emit(
                "reduce", start, self.engine.now - start, node_id, contrib,
                {"gen": gen, "n_values": n_values},
            )

    # ------------------------------------------------------------------ #
    # binomial tree all-reduce
    # ------------------------------------------------------------------ #
    def _children(self, node_id: int) -> list[int]:
        """Binomial-tree children of ``node_id`` (rooted at 0)."""
        n = self.config.n_nodes
        low = node_id & -node_id if node_id else n  # lowest set bit (root: all)
        out = []
        span = 1
        while span < low and node_id + span < n:
            out.append(node_id + span)
            span <<= 1
        return out

    def _tree_sema(self, gen: int, node_id: int) -> CountingSemaphore:
        key = (gen, node_id)
        sema = self._tree_semas.get(key)
        if sema is None:
            sema = self._tree_semas[key] = CountingSemaphore(
                self.engine, f"tree{gen}.n{node_id}"
            )
        return sema

    def _tree_reduce(self, node_id: int, gen: int, payload: int):
        cfg = self.config
        node = self.nodes[node_id]
        children = self._children(node_id)
        # Combine: wait for every child's partial, then send up.
        if children:
            yield self._tree_sema(gen, node_id).wait_for(len(children))
        if node_id != 0:
            parent = node_id - (node_id & -node_id)
            yield node.compute_cpu.use(cfg.send_overhead_ns)
            self.network.send(
                node_id, parent, MsgKind.REDUCE,
                self._on_partial, (gen, parent),
                cfg.handler_ack_ns, payload_bytes=payload,
            )
            # Await the result coming back down.
            down = self.engine.future(f"tree{gen}.down.n{node_id}")
            self._result[(gen, node_id)] = down
            yield down
            del self._result[(gen, node_id)]
        # Broadcast: forward the result to every child.
        for child in children:
            yield node.compute_cpu.use(cfg.send_overhead_ns)
            self.network.send(
                node_id, child, MsgKind.REDUCE_RESULT,
                self._on_result, (gen, child),
                cfg.handler_ack_ns, payload_bytes=payload,
            )
        self._tree_semas.pop((gen, node_id), None)

    def _on_partial(self, gen: int, node_id: int, _seq) -> None:
        """Tree REDUCE handler: one child's partial reached ``node_id``."""
        self._tree_sema(gen, node_id).post()

    def _on_contribution(self, gen: int, payload: int, cause) -> None:
        """Central REDUCE handler at the root; the contribution's own seq
        is the parent of the result broadcast the last one triggers."""
        count = self._arrivals.get(gen, 0) + 1
        if count < self.config.n_nodes:
            self._arrivals[gen] = count
            return
        self._arrivals.pop(gen, None)
        for dst in range(self.config.n_nodes):
            self.network.send(
                self.root, dst, MsgKind.REDUCE_RESULT,
                self._on_result, (gen, dst),
                self.config.handler_response_ns, payload_bytes=payload,
                parent=cause,
            )

    def _on_result(self, gen: int, node_id: int, _seq) -> None:
        self._result[(gen, node_id)].resolve(None)

    # ------------------------------------------------------------------ #
    # message passing (for the pghpf-MP comparator backend)
    # ------------------------------------------------------------------ #
    def mp_send(self, src: int, dst: int, nbytes: int) -> Generator[Any, Any, None]:
        """Asynchronous send of ``nbytes`` of section data to ``dst``.

        Only the sender-side per-message overhead lands on the compute CPU;
        transport runs in the background and the waiting cost shows up at
        the matching :meth:`mp_recv`.
        """
        cfg = self.config
        node = self.nodes[src]
        yield node.compute_cpu.use(cfg.send_overhead_ns)
        self.network.send(
            src, dst, MsgKind.MP_DATA, self._on_mp_data, (dst,),
            cfg.handler_data_recv_ns, payload_bytes=nbytes,
        )

    def _on_mp_data(self, dst: int, _seq) -> None:
        self._mp_sema[dst].post(1)

    def mp_recv(self, node_id: int, n_messages: int) -> Generator[Any, Any, None]:
        """Block until ``n_messages`` sends addressed here have arrived."""
        node = self.nodes[node_id]
        start = self.engine.now
        yield self._mp_sema[node_id].wait_for(n_messages)
        node.stats.stall_ns += self.engine.now - start
