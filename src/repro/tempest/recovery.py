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
``channel.dead`` event.

Checkpoints
-----------
Barrier completion is a globally consistent cut: every node has drained its
release fence and none has resumed, so there are no in-flight protocol
transactions to reason about.  Every ``checkpoint_every`` barriers the
manager snapshots the coherence state (access tags, directory arrays),
synchronization generation counters, and each node's trace-replay cursor.
The modeled write cost (segment bytes x ``checkpoint_cost_ns_per_kb``)
defers the barrier's release broadcast, so checkpointing visibly costs
simulated time; a zero cost keeps the schedule byte-identical.

Recovery
--------
Once the event heap drains with a detected crash outstanding, and every
dead node's scenario restarts, and a checkpoint exists, the cluster rolls
back: simulated time advances to the restart instant, the transport resets
(fresh channel epochs, cleared parked/ack state), the snapshot is restored,
surviving programs are cancelled, and fresh replay generators resume every
node from its checkpointed cursor.  The numerics are computed host-side
before the run, so a recovered run's final answers are byte-identical to a
crash-free run by construction — what recovery buys is *completion* (and
honest accounting of its cost under ``recovery_*`` stats) instead of the
degraded ``completed=False`` contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, TYPE_CHECKING

import numpy as np

from repro.sim import Future
from repro.tempest.faults import CrashScenario

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tempest.cluster import Cluster

__all__ = ["Checkpoint", "RecoveryManager"]

#: a program factory maps (node_id, resume_cursor) -> generator
ProgramFactory = Callable[[int, int], Generator[Any, Any, Any]]


@dataclass
class Checkpoint:
    """A barrier-consistent snapshot of everything rollback must restore.

    NumPy fields are defensive copies; nothing aliases live cluster state.
    The engine clock, statistics and RNG streams are deliberately *not*
    part of the cut — time only moves forward, stats keep accumulating
    across a rollback (re-execution is real work), and determinism comes
    from the replayed operation schedule, not from rewinding randomness.
    """

    barrier_gen: int                    #: barriers completed at the cut
    cursors: list[int]                  #: per-node resume op index
    tags: np.ndarray
    implicit: np.ndarray
    dir_state: np.ndarray
    dir_owner: np.ndarray
    dir_sharers: np.ndarray
    dir_gver: np.ndarray
    dir_pver: np.ndarray
    dir_cver: np.ndarray
    coll_gen: list[int] = field(default_factory=list)
    arrival_counts: list[int] = field(default_factory=list)
    iw_memo: list[set] = field(default_factory=list)
    mp_counts: list[int] = field(default_factory=list)


class RecoveryManager:
    """Orchestrates crash injection, detection, checkpointing and rollback.

    Constructed by :meth:`Cluster.run` whenever the fault config carries
    crash scenarios or a checkpoint interval.  Holds no engine events of
    its own beyond the one-shot crash timers; detection is driven entirely
    by the transport's organic give-up machinery.
    """

    def __init__(self, cluster: "Cluster", program_factory: ProgramFactory | None) -> None:
        self.cluster = cluster
        self.engine = cluster.engine
        self.program_factory = program_factory
        self.faults = cluster.config.faults
        #: node_id -> CrashScenario for currently-dead nodes
        self._dead: dict[int, CrashScenario] = {}
        #: node_id -> mutable crash record (aliased into stats.crash_events)
        self._recs: dict[int, dict] = {}
        self._last_checkpoint: Checkpoint | None = None
        self._guards: list[Future] = []
        self._finished = 0
        #: set once a detected crash is recoverable; Cluster.run polls it
        #: each time the event heap drains.
        self.pending_recovery = False

    # ------------------------------------------------------------------ #
    # wiring
    # ------------------------------------------------------------------ #
    def install(self, guards: list[Future]) -> None:
        """Arm crash timers, hook detection + checkpointing, start probes."""
        cluster = self.cluster
        transport = cluster.network.transport
        for scen in self.faults.crashes:
            self.engine.call_at(scen.t_ns, self._crash, scen)
        if transport is not None:
            transport.on_give_up = self._on_give_up
        if self.faults.checkpoint_every > 0:
            cluster.barrier_net.on_checkpoint = self._on_barrier
        self.watch(guards)
        if transport is not None:
            transport.start_monitoring()

    def watch(self, guards: list[Future]) -> None:
        """Track a (re)spawned program set so probes stop at completion.

        Without this, live-live keepalives re-arm forever and the event
        heap never drains on a crash-free (or post-recovery) run.
        """
        self._guards = guards
        self._finished = 0
        for g in guards:
            g.add_callback(self._on_finish)

    def _on_finish(self, _value: Any) -> None:
        self._finished += 1
        if self._finished == self.cluster.n_nodes:
            transport = self.cluster.network.transport
            if transport is not None:
                transport.suspend_monitoring()

    # ------------------------------------------------------------------ #
    # crash injection
    # ------------------------------------------------------------------ #
    def _crash(self, scen: CrashScenario) -> None:
        node = self.cluster.nodes[scen.node]
        if not node.alive:  # pragma: no cover - config forbids duplicates
            return
        node.alive = False
        node.incarnation += 1
        node.pending.clear()
        transport = self.cluster.network.transport
        if transport is not None:
            transport.mark_dead(scen.node)
        if scen.node < len(self._guards):
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

    # ------------------------------------------------------------------ #
    # detection (transport give-up hook)
    # ------------------------------------------------------------------ #
    def _on_give_up(self, src: int, dst: int) -> None:
        if dst not in self._dead:
            return  # an ordinary partition give-up; not ours
        rec = self._recs[dst]
        first_detection = rec["detected_t_ns"] is None
        if first_detection:
            rec["detected_t_ns"] = self.engine.now
            transport = self.cluster.network.transport
            if transport is not None:
                # One death proven is enough; stop probing so the heap can
                # drain.  Remaining survivor->dead channels still give up
                # organically off their own outstanding traffic.
                transport.suspend_monitoring()
        obs = self.cluster.obs
        if obs is not None:
            obs.emit(
                "channel.dead", self.engine.now, 0, None, None,
                {"src": src, "dst": dst, "first": first_detection},
            )
        if self._can_recover():
            self.pending_recovery = True

    def _can_recover(self) -> bool:
        """Recovery needs a checkpoint, a way to respawn programs, and
        *every* dead node to be restarting — rolling back while a
        never-restart node stays dead would re-crash forever."""
        return (
            self._last_checkpoint is not None
            and self.program_factory is not None
            and bool(self._dead)
            and all(s.restarts for s in self._dead.values())
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
        cluster = self.cluster
        cursors = cluster.replay_cursor
        if cursors is None:
            # Programs are not trace replays: there is nothing to resume
            # from, so checkpointing is a silent no-op (degraded contract
            # still applies on a crash).
            return 0
        access = cluster.access
        d = cluster.directory
        coll = cluster.collectives
        ext = cluster.ext
        nbytes = cluster.memory.checkpoint_bytes()
        ck = Checkpoint(
            barrier_gen=ordinal,
            # The barrier op is accounted complete by the restored
            # generation counters; resume at the op after it.
            cursors=[c + 1 for c in cursors],
            tags=access._tags.copy(),
            implicit=access._implicit.copy(),
            dir_state=d.state.copy(),
            dir_owner=d.owner.copy(),
            dir_sharers=d.sharers.copy(),
            dir_gver=d.global_version.copy(),
            dir_pver=d.prev_version.copy(),
            dir_cver=d.copy_version.copy(),
            coll_gen=list(coll._node_gen),
            arrival_counts=[s.count for s in ext.arrival_sema],
            iw_memo=[set(m) for m in ext._iw_memo],
            mp_counts=[s.count for s in coll._mp_sema],
        )
        self._last_checkpoint = ck
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
    # rollback-recovery (called by Cluster.run at heap drain)
    # ------------------------------------------------------------------ #
    def perform_rollback(self) -> list[Future]:
        """Restore the last checkpoint and respawn every program.

        The event heap is empty when this runs (Cluster.run only calls it
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
        reached = list(cluster.replay_cursor) if cluster.replay_cursor else []
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
            if transport is not None:
                transport.mark_alive(node_id)

        # Transport epoch reset: all channels and ack buffers dropped,
        # fresh sequence spaces, monitoring restarted.
        if transport is not None:
            transport.reset()

        # Coherence state back to the cut.
        cluster.access._tags[:] = ck.tags
        cluster.access._implicit[:] = ck.implicit
        d = cluster.directory
        d.state[:] = ck.dir_state
        d.owner[:] = ck.dir_owner
        d.sharers[:] = ck.dir_sharers
        d.global_version[:] = ck.dir_gver
        d.prev_version[:] = ck.dir_pver
        d.copy_version[:] = ck.dir_cver

        # Synchronization services back to the cut.
        bar = cluster.barrier_net
        bar._node_gen = [ck.barrier_gen] * cluster.n_nodes
        bar.barriers_completed = ck.barrier_gen
        bar._arrivals.clear()
        bar._release.clear()
        coll = cluster.collectives
        coll._node_gen = list(ck.coll_gen)
        coll._arrivals.clear()
        coll._result.clear()
        coll._tree_semas.clear()
        for sema, count in zip(coll._mp_sema, ck.mp_counts):
            sema.count = count
            sema._waiter = None
            sema._threshold = None
        ext = cluster.ext
        for sema, count in zip(ext.arrival_sema, ck.arrival_counts):
            sema.count = count
            sema._waiter = None
            sema._threshold = None
        for memo, saved in zip(ext._iw_memo, ck.iw_memo):
            memo.clear()
            memo.update(saved)

        # In-progress transactions are orphaned with their generators.
        # Each one already bumped stats counters that will never see their
        # completion event; compensating miss.abort events keep the
        # event-derived counters exactly equal to ClusterStats.
        obs = cluster.obs
        if obs is not None:
            for (node_id, block), counted in sorted(
                cluster.protocol._inflight_counted.items()
            ):
                obs.emit(
                    "miss.abort", engine.now, 0, node_id, None,
                    {"block": block, **counted},
                )
        cluster.protocol._busy.clear()
        cluster.protocol._inflight.clear()
        cluster.protocol._inflight_cause.clear()
        cluster.protocol._inflight_counted.clear()
        for node in cluster.nodes:
            node.pending.clear()
        net = cluster.network
        if getattr(net, "_pending", None) is not None:
            for per_dst in net._pending:
                per_dst.clear()
            for per_dst in net._last_ctl:
                per_dst.clear()

        # Cancel surviving programs (their state is pre-rollback) and
        # respawn everyone from the checkpointed cursors.
        for g in self._guards:
            if not g.resolved and not g.cancelled:
                g.cancel()
        cluster.replay_cursor = list(ck.cursors)
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
        self.pending_recovery = False
        return guards
