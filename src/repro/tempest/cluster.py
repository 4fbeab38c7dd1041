"""The assembled cluster: the facade executors program against.

A :class:`Cluster` wires together one simulation engine, the shared segment
geometry, access control, directory, network, per-node CPUs, the default
protocol, the compiler-control extensions, barriers and collectives.  Node
programs are generator processes that call the fragment methods below with
``yield from``.

Typical shape of a node program::

    def program(node_id):
        yield from cluster.write_blocks(node_id, my_blocks, phase=1)
        yield from cluster.barrier(node_id)
        yield from cluster.read_blocks(node_id, neighbour_blocks)
        yield from cluster.compute(node_id, work_ns)
        yield from cluster.barrier(node_id)

    cluster.run({n: program(n) for n in range(cluster.n_nodes)})
"""

from __future__ import annotations

from typing import Any, Generator, Iterable, Mapping

import numpy as np

from repro.sim import Engine, SimulationError
from repro.tempest.access import AccessControl, AccessTag
from repro.tempest.audit import audit_coherence, audit_violations
from repro.tempest.barrier import Barrier
from repro.tempest.collectives import Collectives
from repro.tempest.config import ClusterConfig
from repro.tempest.directory import Directory
from repro.tempest.extensions import CompilerExtensions
from repro.tempest.memory import SharedMemory
from repro.tempest.network import Network
from repro.tempest.node import Node
from repro.tempest.protocol import DefaultProtocol
from repro.tempest.protocol_update import UpdateProtocol
from repro.tempest.stats import ClusterStats

__all__ = ["Cluster"]

_READONLY = int(AccessTag.READONLY)
_READWRITE = int(AccessTag.READWRITE)


class Cluster:
    """One simulated Tempest cluster over a finalized shared segment."""

    #: selectable default protocols (Tempest: the protocol is user code)
    PROTOCOLS = {"invalidate": DefaultProtocol, "update": UpdateProtocol}

    def __init__(
        self,
        config: ClusterConfig,
        memory: SharedMemory,
        protocol: str = "invalidate",
        obs=None,
    ) -> None:
        if memory.config is not config and memory.config != config:
            raise ValueError("memory was laid out under a different config")
        if protocol not in self.PROTOCOLS:
            raise ValueError(
                f"unknown protocol {protocol!r}; choose from {sorted(self.PROTOCOLS)}"
            )
        self.protocol_name = protocol
        self.config = config
        self.memory = memory
        self.engine = Engine()
        self.stats = ClusterStats.for_nodes(config.n_nodes)
        self.nodes = [
            Node(i, self.engine, config, self.stats[i]) for i in range(config.n_nodes)
        ]
        self.network = Network(self.engine, config, self.stats, self.nodes)

        homes = np.repeat(
            np.asarray(memory._page_homes, dtype=np.int32), config.blocks_per_page
        )
        self.directory = Directory(config.n_nodes, memory.n_blocks, homes)
        self.access = AccessControl(config.n_nodes, memory.n_blocks)
        # Each home starts with the (only) writable copy of its blocks.
        self.access._tags[homes, np.arange(memory.n_blocks)] = _READWRITE

        self.protocol = self.PROTOCOLS[protocol](
            self.engine, config, self.access, self.directory, self.network, self.nodes
        )
        self.ext = CompilerExtensions(
            self.engine,
            config,
            self.access,
            self.directory,
            self.network,
            self.nodes,
            self.protocol,
            self.stats,
        )
        self.barrier_net = Barrier(self.engine, config, self.network, self.nodes)
        self.collectives = Collectives(self.engine, config, self.network, self.nodes)
        #: every component with a checkpoint cut, in the order a rollback restores them
        self.components = (self.access, self.directory, self.barrier_net, self.collectives,
                           self.ext, self.protocol, self.network, *self.nodes)
        #: the observability bus (repro.obs.EventBus) or None.  Publishing
        #: sites guard on their component's ``obs`` being non-None, so a
        #: cluster without a bus constructs no event objects at all.
        self.obs = None
        #: the RecoveryManager for runs with crash scenarios / checkpoints,
        #: created by :meth:`run`; it owns the per-node replay cursors
        #: (``recovery.cursors``), so None also means a replay keeps none.
        self.recovery = None
        if obs is not None:
            self.attach_bus(obs)

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def attach_bus(self, bus):
        """Point every publishing component at ``bus`` (an EventBus).

        Attaching a bus never perturbs the simulation: events are emitted
        synchronously at existing accounting sites and no engine events are
        scheduled, so schedules, stats and numerics stay byte-identical to
        a run without one.
        """
        self.obs = bus
        for component in (self.network, self.network.transport, self.protocol,
                          self.ext, self.barrier_net, self.collectives):
            if component is not None:
                component.obs = bus
        return bus

    def ensure_bus(self):
        """Return the attached bus, creating and attaching one if absent."""
        if self.obs is None:
            from repro.obs import EventBus

            self.attach_bus(EventBus())
        return self.obs

    # ------------------------------------------------------------------ #
    @property
    def n_nodes(self) -> int:
        return self.config.n_nodes

    # ------------------------------------------------------------------ #
    # process fragments
    # ------------------------------------------------------------------ #
    def compute(self, node_id: int, ns: int) -> Generator[Any, Any, None]:
        yield from self.nodes[node_id].compute(int(ns))

    def read_blocks(
        self,
        node_id: int,
        blocks: Iterable[int],
        context: str = "",
        phase: int | None = None,
    ) -> Generator[Any, Any, None]:
        """Perform (first-touch) read accesses to ``blocks``.

        Hits are free (the fine-grain tag check is in the access-control
        hardware); each miss blocks the compute thread for a full protocol
        transaction.  All hit copies are validated against the version
        tracker — a stale hit means the protocol or the compiler's contract
        is broken, and raises immediately.  ``phase`` tolerates legal
        same-phase write/read overlap (see Directory.validate_reads_bulk).
        """
        arr = np.asarray(blocks, dtype=np.int64)
        if arr.size == 0:
            return
        # Vectorized hit/miss split on the tag table (hot path: stencil
        # loops touch thousands of blocks per phase, nearly all hits).
        tags = self.access.rows[node_id][arr]
        miss_mask = tags < _READONLY
        if not miss_mask.any():
            # All hits: validate the whole batch and fall straight through
            # (no index-array slicing, no stall accounting).
            self.directory.validate_reads_bulk(node_id, arr, context, phase)
            return
        hits = arr[~miss_mask]
        if hits.size:
            self.directory.validate_reads_bulk(node_id, hits, context, phase)
        missing = arr[miss_mask]
        start = self.engine.now
        for b in missing.tolist():
            yield from self.protocol.read_block(node_id, b)
        self.stats[node_id].stall_ns += self.engine.now - start

    def write_blocks(
        self, node_id: int, blocks: Iterable[int], phase: int
    ) -> Generator[Any, Any, None]:
        """Perform write accesses to ``blocks`` at logical time ``phase``.

        Faults are eager: each non-writable block costs the inline fault +
        request-send time, but the store proceeds; grants drain at the next
        release point.
        """
        arr = np.asarray(blocks, dtype=np.int64)
        if arr.size == 0:
            return
        yield from self.protocol.write_phase(node_id, arr, phase)

    def barrier(self, node_id: int) -> Generator[Any, Any, None]:
        yield from self.barrier_net.enter(node_id)

    def reduce(self, node_id: int, n_values: int = 1) -> Generator[Any, Any, None]:
        yield from self.collectives.reduce(node_id, n_values)

    # ------------------------------------------------------------------ #
    # verification
    # ------------------------------------------------------------------ #
    def audit(self, context: str = "") -> int:
        """Cross-check directory, tags and versions; raise on violation.

        See :func:`repro.tempest.audit.audit_coherence` for the invariants.
        Returns the number of blocks checked.
        """
        return audit_coherence(
            self.directory, self.access, context or f"protocol={self.protocol_name}"
        )

    # ------------------------------------------------------------------ #
    # driving the simulation
    # ------------------------------------------------------------------ #
    def run(
        self,
        programs: Mapping[int, Generator[Any, Any, Any]],
        audit: bool = False,
        audit_each_barrier: bool = False,
        program_factory=None,
    ) -> ClusterStats:
        """Run one generator program per node to completion.

        ``audit`` runs the coherence auditor once at the end of the run;
        ``audit_each_barrier`` additionally runs it at every global
        barrier's all-arrived instant (a quiescent point — release fences
        drained, nobody resumed).

        The run ends when the event queue drains (docs/faults.md, "How a
        run ends").  This method alone decides whether a run can roll
        back: a config with crash scenarios gets a ``RecoveryManager``,
        which owns the replay cursors.  If it says ``rollback_due()``, it
        rolls back and goes on: ``program_factory(node_id,
        resume_cursor)`` (the runtime passes one) respawns each program.  A stuck run is *degraded* when a
        channel gave up or a node is dead: ``completed=False``, counters
        up to that point and a ``failure`` report (the give-up count and
        the partition events stay in their own fields).  Any other stuck run
        raises :class:`~repro.sim.SimulationError`.
        """
        if set(programs) != set(range(self.n_nodes)):
            raise ValueError(
                f"need exactly one program per node; got {sorted(programs)}"
            )
        fc = self.config.faults
        if fc.crashes:
            from repro.tempest.recovery import RecoveryManager

            self.recovery = RecoveryManager(self, program_factory)
        if audit_each_barrier:
            self.barrier_net.on_complete = lambda n: self.audit(
                f"barrier {n}, protocol={self.protocol_name}"
            )
        guards = [
            self.engine.spawn(programs[n], label=f"node{n}") for n in range(self.n_nodes)
        ]
        finish_ns = [0] * self.n_nodes
        faults_on = fc.enabled

        def watch_finishes(gs):
            # Under fault injection, armed retransmit timers keep popping
            # (as no-ops) after the last node finishes and would inflate
            # ``engine.now``; take completion as the last program's finish.
            for i, g in enumerate(gs):
                g.add_callback(
                    lambda _v, i=i: finish_ns.__setitem__(i, self.engine.now)
                )

        if faults_on:
            watch_finishes(guards)
        if self.recovery is not None:
            self.recovery.install(guards)
        try:
            self.engine.run()
            while self.recovery is not None and self.recovery.rollback_due():
                # The queue is drained: no stale timer or handler effect
                # survives into the restored world.  Roll back and rerun.
                guards = self.recovery.perform_rollback()
                watch_finishes(guards)
                self.engine.run()
        finally:
            # However the run ends, its consumers see every event.
            if self.obs is not None:
                self.obs.flush()
        self.stats.events_dispatched = self.engine.events_dispatched
        self.stats.max_queue_depth = self.engine.max_queue_depth
        stuck = [f.label for f in guards if not f.resolved]
        if stuck:
            crashed = self.recovery.dead_nodes() if self.recovery is not None else []
            if not (self.stats.total_gave_up or crashed):
                # No give-up and nobody dead: a real bug (e.g. a node stuck
                # at a barrier nobody else reached).  Keep the loud failure.
                raise SimulationError(
                    f"deadlock: processes never finished: {stuck}"
                )
            # Degraded: a partition never healed or a crash was not rolled
            # back.  The stats keep everything accumulated up to that point.
            self.stats.completed = False
            self.stats.elapsed_ns = self.engine.now
            self.stats.failure = self._failure_report(stuck, crashed)
            return self.stats
        self.stats.elapsed_ns = max(finish_ns) if faults_on else self.engine.now
        if audit:
            context = f"end of run, protocol={self.protocol_name}"
            if any(e.get("healed") for e in self.stats.partition_events):
                # Channels gave up mid-run but a healing scenario drained
                # them; the audit now re-proves coherence post-heal.
                context = f"post-heal {context}"
            self.audit(context)
        return self.stats

    def _failure_report(self, stuck: list[str], crashed: list[int]) -> dict:
        """Describe a degraded run: who is stuck, which channels gave up,
        which nodes are unreachable, and what residual coherence damage the
        surviving nodes can see."""
        transport = self.network.transport
        channels = transport.partitioned_channels()
        now = self.engine.now
        unreachable = sorted(
            {
                n
                for s in self.config.faults.partitions
                if s.active_at(now)
                for n in s.nodes
            }
        )
        if not unreachable:
            # Organic give-up (no scenario): the far ends of the dead
            # channels are the effectively unreachable nodes.
            unreachable = sorted({c["dst"] for c in channels})
        unreachable = sorted(set(unreachable) | set(crashed))
        residual = audit_violations(
            self.directory,
            self.access,
            skip_nodes=frozenset(unreachable),
        )
        return {
            "stuck": stuck,
            "partitioned_channels": channels,
            "parked_frames": transport.parked_frames,
            "unreachable_nodes": unreachable,
            "crashed_nodes": crashed,
            "residual_violations": residual,
        }
