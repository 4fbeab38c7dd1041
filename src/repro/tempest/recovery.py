"""Node fail-stop survival: crash injection, checkpoints, rollback-recovery.

Failure model
-------------
A :class:`~repro.tempest.faults.CrashScenario` fail-stops one node at an
absolute simulated instant: the node's program is cancelled, its queued
protocol handlers are invalidated (incarnation bump), and every frame to or
from it silently vanishes in the transport.  Peers hold **no oracle** — they
learn of the death the way a real cluster does, through silence: the
transport's per-channel keepalive probes (and any regular retransmit
traffic) exhaust ``max_retries`` and the channel gives up, which this
manager observes through the ``on_give_up`` hook and surfaces as a
``channel.dead`` event.  Keepalives are the only events that re-arm
themselves, so this manager alone decides when they stop, by the rule
docs/faults.md states in "How a run ends".

Checkpoints and recovery
------------------------
Every ``checkpoint_every`` barriers, at the all-arrived instant (a globally
consistent cut), the manager records each node's trace-replay cursor and
the ``snapshot()`` of every component in ``Cluster.components``;
docs/faults.md lists what each cut holds.  The modeled write cost defers
the barrier's release broadcast; a zero cost keeps the schedule
byte-identical.  Once the event queue drains with every dead node detected
and restarting, the cluster rolls back: the clock advances to the restart
instant, the transport starts a fresh epoch, every component is restored
from its cut, and fresh replay generators resume every node from its cursor.
The numerics are computed before the run, so a recovered run's answers are
byte-identical to a crash-free run's by construction: what recovery buys
is *completion* (with its cost under ``recovery_*`` stats) instead of the
degraded ``completed=False`` contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, TYPE_CHECKING

from repro.sim import Future
from repro.tempest.faults import CrashScenario

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tempest.cluster import Cluster

__all__ = ["Checkpoint", "RecoveryManager"]

#: a program factory maps (node_id, resume_cursor) -> generator
ProgramFactory = Callable[[int, int], Generator[Any, Any, Any]]


@dataclass
class Checkpoint:
    """A barrier-consistent cut: the replay cursors and one ``snapshot()``
    (a copy) per component of ``Cluster.components``, in order.  The clock,
    stats and RNG streams are deliberately not in it: time only moves
    forward, stats keep accumulating across a rollback (re-execution is
    real work), and determinism comes from the replayed schedule."""

    barrier_gen: int                    #: barriers completed at the cut
    cursors: list[int]                  #: per-node resume op index
    cuts: list[Any]                     #: per-component snapshots


class RecoveryManager:
    """Orchestrates crash injection, detection, checkpointing and rollback.

    Constructed by :meth:`Cluster.run` whenever the fault config carries
    crash scenarios (which engage the transport it drives).  Holds no
    engine events of its own beyond the one-shot crash timers; detection
    is driven entirely by the transport's organic give-up machinery.  It
    owns the per-node replay cursors (``cursors``): trace replays write
    them, checkpoints copy them and rollback resets them.
    """

    def __init__(self, cluster: "Cluster", program_factory: ProgramFactory | None) -> None:
        self.cluster = cluster
        self.engine = cluster.engine
        self.program_factory = program_factory
        self.faults = cluster.config.faults
        #: per-node index of the trace op each replay is executing; the
        #: replays write it, checkpoints copy it, rollback resumes from it
        self.cursors = [0] * cluster.n_nodes
        #: node_id -> CrashScenario for currently-dead nodes
        self._dead: dict[int, CrashScenario] = {}
        #: node_id -> mutable crash record (aliased into stats.crash_events)
        self._recs: dict[int, dict] = {}
        self._last_checkpoint: Checkpoint | None = None
        self._guards: list[Future] = []
        self._finished = 0

    # ------------------------------------------------------------------ #
    # wiring
    # ------------------------------------------------------------------ #
    def install(self, guards: list[Future]) -> None:
        """Arm crash timers, hook detection + checkpointing, start probes."""
        cluster = self.cluster
        for scen in self.faults.crashes:
            self.engine.call_at(scen.t_ns, self._crash, scen)
        if self.faults.checkpoint_every > 0:
            cluster.barrier_net.on_checkpoint = self._on_barrier
        self.watch(guards)
        transport = cluster.network.transport
        transport.on_give_up = self._on_give_up
        transport.start_monitoring()

    def watch(self, guards: list[Future]) -> None:
        """Track a (re)spawned program set so probes stop at completion.

        Without this, live-live keepalives re-arm forever and the event
        queue never drains on a crash-free (or post-recovery) run.
        """
        self._guards = guards
        self._finished = 0
        for g in guards:
            g.add_callback(self._on_finish)

    def _on_finish(self, _value: Any) -> None:
        self._finished += 1
        if self._finished == self.cluster.n_nodes:
            # rule (i): every program finished
            self.cluster.network.transport.probing = False

    # ------------------------------------------------------------------ #
    # crash injection
    # ------------------------------------------------------------------ #
    def _crash(self, scen: CrashScenario) -> None:
        node = self.cluster.nodes[scen.node]
        node.alive = False
        node.incarnation += 1
        node.pending.clear()
        self.cluster.network.transport.mark_dead(scen.node)
        self._guards[scen.node].cancel()
        rec = {
            "node": scen.node,
            "t_ns": self.engine.now,
            "detected_t_ns": None,
            "restart_t_ns": None,
            "recovered": False,
        }
        self.cluster.stats.crash_events.append(rec)
        self._dead[scen.node] = scen
        self._recs[scen.node] = rec
        obs = self.cluster.obs
        if obs is not None:
            obs.emit(
                "crash.node", self.engine.now, 0, scen.node, None,
                {"restarts": scen.restarts},
            )
        self._settle()

    # ------------------------------------------------------------------ #
    # detection (transport give-up hook)
    # ------------------------------------------------------------------ #
    def _on_give_up(self, src: int, dst: int) -> None:
        if dst in self._dead:
            rec = self._recs[dst]
            first_detection = rec["detected_t_ns"] is None
            if first_detection:
                rec["detected_t_ns"] = self.engine.now
            obs = self.cluster.obs
            if obs is not None:
                obs.emit(
                    "channel.dead", self.engine.now, 0, None, None,
                    {"src": src, "dst": dst, "first": first_detection},
                )
        self._settle()

    def _settle(self) -> None:
        """Rule (ii): stop probing once every crash has fired and every
        dead node is detected or cut off for good from every live node."""
        if len(self._recs) < len(self.faults.crashes):
            return  # a crash is still to come: probes must be there to see it
        transport = self.cluster.network.transport
        live = [n for n in range(self.cluster.n_nodes) if n not in self._dead]
        if all(
            self._recs[d]["detected_t_ns"] is not None
            or not any(transport.reachable(n, d) for n in live)
            for d in self._dead
        ):
            transport.probing = False

    def rollback_due(self) -> bool:
        """Whether the drained run rolls back: a checkpoint and a program
        factory exist, and every dead node restarts and was detected."""
        return (
            self._last_checkpoint is not None
            and self.program_factory is not None
            and bool(self._dead)
            and all(
                s.restarts and self._recs[n]["detected_t_ns"] is not None
                for n, s in self._dead.items()
            )
        )

    def dead_nodes(self) -> list[int]:
        return sorted(self._dead)

    # ------------------------------------------------------------------ #
    # checkpointing (barrier all-arrived hook)
    # ------------------------------------------------------------------ #
    def _on_barrier(self, ordinal: int) -> int:
        """Snapshot at barrier ``ordinal``; return the modeled write cost."""
        if ordinal % self.faults.checkpoint_every != 0:
            return 0
        if self.program_factory is None:
            # Programs are not trace replays: there is nothing to resume
            # from, so checkpointing is a silent no-op (degraded contract
            # still applies on a crash).
            return 0
        cluster = self.cluster
        nbytes = cluster.memory.checkpoint_bytes()
        # The barrier op is accounted complete by the restored generation
        # counters; resume at the op after it.
        self._last_checkpoint = Checkpoint(
            ordinal, [c + 1 for c in self.cursors], [c.snapshot() for c in cluster.components]
        )
        stats = cluster.stats
        stats.recovery_checkpoints += 1
        stats.recovery_checkpoint_bytes += nbytes
        cost = nbytes * self.faults.checkpoint_cost_ns_per_kb // 1024
        obs = cluster.obs
        if obs is not None:
            obs.emit(
                "ckpt.write", self.engine.now, cost, None, None,
                {"gen": ordinal, "nbytes": nbytes},
            )
        return cost

    # ------------------------------------------------------------------ #
    # rollback-recovery (called by Cluster.run at the drained queue)
    # ------------------------------------------------------------------ #
    def perform_rollback(self) -> list[Future]:
        """Restore the last checkpoint and respawn every program.

        The event queue is empty when this runs (Cluster.run only calls it
        after ``engine.run()`` returns), so there are no stale timers,
        link jobs or handler completions to race against — restoring state
        wholesale is safe.  Returns the fresh program guards.
        """
        cluster = self.cluster
        ck = self._last_checkpoint
        assert ck is not None
        engine = self.engine
        stats = cluster.stats

        # Where each node had gotten to, for the observability record.
        reached = list(self.cursors)
        revived = sorted(self._dead)

        # Advance the clock to the instant every crashed node is back up.
        restart_t = engine.now
        for node_id, scen in self._dead.items():
            rec = self._recs[node_id]
            t = rec["t_ns"] + (scen.restart_delay_ns or 0)
            rec["restart_t_ns"] = t
            rec["recovered"] = True
            stats.recovery_ns += t - rec["t_ns"]
            restart_t = max(restart_t, t)
        engine.now = max(engine.now, restart_t)

        # Revive.  Incarnations stay bumped: any handler effect queued
        # before the crash stays invalidated forever.
        transport = cluster.network.transport
        for node_id in list(self._dead):
            cluster.nodes[node_id].alive = True
            transport.mark_alive(node_id)

        # Transport epoch reset: all channels and ack buffers dropped,
        # fresh sequence spaces, keepalives on again.
        transport.reset()

        # Every component back to its cut.  The protocol's restore emits a
        # compensating miss.abort record per transaction it drops.
        for component, cut in zip(cluster.components, ck.cuts):
            component.restore(cut)

        # Cancel surviving programs (their state is pre-rollback) and
        # respawn everyone from the checkpointed cursors.
        for g in self._guards:
            if not g.resolved and not g.cancelled:
                g.cancel()
        self.cursors = list(ck.cursors)
        factory = self.program_factory
        assert factory is not None
        guards = [
            engine.spawn(factory(n, ck.cursors[n]), label=f"node{n}")
            for n in range(cluster.n_nodes)
        ]
        self.watch(guards)

        stats.recovery_rollbacks += 1
        obs = cluster.obs
        if obs is not None:
            obs.emit(
                "recover.rollback", engine.now, 0, None, None,
                {"gen": ck.barrier_gen, "resume": list(ck.cursors),
                 "reached": reached},
            )
            for node_id in revived:
                rec = self._recs[node_id]
                obs.emit(
                    "recover.resume", engine.now, 0, node_id, None,
                    {"restart_t_ns": rec["restart_t_ns"]},
                )
        self._dead.clear()
        return guards
