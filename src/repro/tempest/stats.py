"""Miss, message and time accounting.

The paper's evaluation (Table 3, Figures 3-4) is entirely in terms of

* per-node **miss counts** (read misses + write faults handled by the
  default protocol),
* **communication time** — "time spent waiting for servicing misses and for
  synchronization", plus, in the optimized versions, "time spent in various
  protocol calls", and
* **compute time**.

``NodeStats`` tracks exactly those categories; ``ClusterStats`` aggregates.

Every counter is declared **once**, with :func:`counter`: its default
plus, as field metadata, the bus event that re-derives it, the name of its
summed-over-nodes ``total_*`` property and its key in a ``*_summary()``
group.  ``COUNTERS`` is that table: the ``total_*`` properties and the
group summaries here are generated from it, ``obs.MetricsRegistry`` builds
its event fold and ``diff`` from it, and ``tests/test_docs.py`` pins the
table in docs/observability.md to it.  Increment sites stay bare
``stats.x += 1`` attribute adds.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field, fields

__all__ = ["COUNTERS", "MsgKind", "NodeStats", "PortStats", "ClusterStats", "counter"]


def counter(event=None, arg=None, *, keyed=False, total=None, summary=None, scale=1):
    """A counter field that carries its own derivation and aggregates.

    ``event`` is the bus event kind that re-derives the counter: ``+= 1``
    per event, or ``+= args[arg]`` when ``arg`` is named — a flag
    (``remote``, ``spurious``, ``backoff``) adds 0/1, an amount (``size``,
    ``wait_ns``, ``nbytes``) itself.  A ``keyed`` counter is a ``Counter``
    bumped at key ``args[arg]``, once per element of a list payload
    (``combine.flush``'s ``kinds``).  ``event=None``: no event re-derives
    it.  ``total`` names the ``ClusterStats`` property summing a per-node
    counter over the nodes; ``summary="group.key"`` puts that total (or a
    cluster-level counter itself), divided by ``scale`` (``1e6``: ns in,
    ms out), into ``ClusterStats.<group>_summary()``.
    """
    spec = dict(event=event, arg=arg, keyed=keyed, total=total,
                summary=summary, scale=scale)
    if keyed:
        return field(default_factory=Counter, metadata=spec)
    return field(default=0, metadata=spec)


class MsgKind(enum.Enum):
    # Members are singletons, so identity hashing is sound — and it skips
    # ``Enum.__hash__``'s name lookup on every Counter update (the message
    # counters are bumped once per simulated message).
    __hash__ = object.__hash__

    READ_REQ = "read_req"
    READ_RESP = "read_resp"
    PUT_REQ = "put_req"            # home asks exclusive owner for the data
    PUT_RESP = "put_resp"
    WRITE_REQ = "write_req"
    INV = "inv"
    ACK = "ack"
    GRANT = "grant"
    DATA = "data"                  # compiler-pushed block payload
    FLUSH = "flush"                # non-owner-write data returned to owner
    BARRIER_ARRIVE = "barrier_arrive"
    BARRIER_RELEASE = "barrier_release"
    REDUCE = "reduce"
    REDUCE_RESULT = "reduce_result"
    MP_DATA = "mp_data"            # message-passing backend payload
    SELF_INV = "self_inv"          # advisory self-invalidate notice to home
    UPDATE = "update"              # write-update protocol: new data to sharers
    UPDATE_ACK = "update_ack"
    COMBINED = "combined"          # several control frames in one message


#: Messages that belong to the default coherence protocol (Figure 1a).
COHERENCE_KINDS = frozenset(
    {
        MsgKind.READ_REQ,
        MsgKind.READ_RESP,
        MsgKind.PUT_REQ,
        MsgKind.PUT_RESP,
        MsgKind.WRITE_REQ,
        MsgKind.INV,
        MsgKind.ACK,
        MsgKind.GRANT,
        MsgKind.UPDATE,
        MsgKind.UPDATE_ACK,
    }
)


@dataclass
class NodeStats:
    """Counters for one node.  All times in nanoseconds."""

    node: int
    read_misses: int = counter("miss.read")
    write_faults: int = counter("miss.write")
    remote_read_misses: int = counter("miss.read", "remote")  # needing the network
    prefetches: int = counter("miss.prefetch")  # advisory co-operative prefetches issued
    prefetch_waits: int = counter("miss.join")  # demand reads that overlapped a prefetch
    messages: Counter = counter(                # MsgKind -> count
        "msg.send", "msg", keyed=True, total="total_messages")
    bytes_sent: int = counter("msg.send", "size", total="total_bytes")
    # The time counters name no event: each is the measured length of a
    # wait the simulator brackets itself (one read phase's stall spans many
    # ``miss.read`` events, compute overrun lands in ``stall_ns``), so no
    # payload carries the increment.  Their cross-check is the timeline's
    # exact tiling (``obs/profile.py``), not ``MetricsRegistry``.
    compute_ns: int = counter()
    stall_ns: int = counter()      # blocked on read misses / pending-write drain
    barrier_ns: int = counter()    # waiting at barriers
    call_ns: int = counter()       # executing compiler-control runtime calls
    reduce_ns: int = counter()     # collective reductions

    # --- reliable-transport accounting (fault injection only) --------- #
    # All zero on a perfect wire.  Drops are charged to the node whose
    # frame (or ack) was lost; dups count duplicate deliveries suppressed
    # by the receiver's dedup; retransmits/backoffs are sender-side.
    net_drops: int = counter(
        "frame.drop", total="total_drops", summary="reliability.drops")
    net_dups: int = counter(
        "frame.dup", total="total_dups", summary="reliability.dups")
    net_retransmits: int = counter(
        "frame.retransmit", total="total_retransmits", summary="reliability.retransmits")
    net_backoffs: int = counter(
        "frame.retransmit", "backoff", total="total_backoffs", summary="reliability.backoffs")
    # Retransmits fired while a copy of the frame (or its ack) was still
    # en route — i.e. the timer was simply too short.  The simulator is
    # omniscient, so this is ground truth, not a heuristic.
    net_spurious_retransmits: int = counter(
        "frame.retransmit", "spurious", total="total_spurious_retransmits",
        summary="reliability.spurious_retransmits")
    # Channels from this node that exhausted max_retries and parked their
    # unacked frames instead of aborting the run (one count per give-up
    # event, not per parked frame).
    net_gave_up: int = counter(
        "channel.giveup", total="total_gave_up", summary="reliability.gave_up")

    # --- message-combining accounting (CombineConfig only) ------------- #
    # msgs_combined counts, per original kind, the control messages that
    # travelled inside a combined frame instead of alone; combine_flushes
    # counts the combined frames this node put on the wire.
    msgs_combined: Counter = counter(
        "combine.flush", "kinds", keyed=True, total="total_msgs_combined",
        summary="combining.msgs_combined")
    combine_flushes: int = counter(
        "combine.flush", total="total_combine_flushes", summary="combining.combine_flushes")

    # --- shared-switch accounting (SwitchConfig only) ------------------ #
    # All zero on the link-only model.  switch_frames counts this node's
    # frames routed through the switch fabric; switch_wait_ns is the
    # contention delay those frames accumulated queueing for their output
    # port (zero when the port was idle on arrival).
    switch_frames: int = counter(
        "switch.traverse", total="total_switch_frames", summary="switch.switch_frames")
    switch_wait_ns: int = counter(
        "switch.traverse", "wait_ns", total="total_switch_wait_ns",
        summary="switch.switch_wait_ms", scale=1e6)

    @property
    def misses(self) -> int:
        return self.read_misses + self.write_faults

    @property
    def comm_ns(self) -> int:
        """The paper's 'communication time' for this node."""
        return self.stall_ns + self.barrier_ns + self.call_ns + self.reduce_ns

@dataclass
class PortStats:
    """Counters for one switch output port (SwitchConfig only).

    ``wait_ns`` is the contention delay accumulated by frames queueing for
    this port; ``max_depth`` is the deepest the port's queue ever got
    (frames accepted but not yet forwarded, including the one in service).
    Their event is charged to its payload's ``port``, not to its node, and
    ``max_depth`` folds by ``max``, not ``+=``.
    """

    port: int
    frames: int = counter("switch.traverse")
    busy_ns: int = counter("switch.traverse", "forward_ns")
    wait_ns: int = counter("switch.traverse", "wait_ns")
    max_depth: int = counter("switch.traverse", "depth")


@dataclass
class ClusterStats:
    """Aggregate view over all nodes plus the run's wall-clock."""

    nodes: list[NodeStats]
    elapsed_ns: int = 0
    #: engine events dispatched by the run (simulator wall-clock proxy)
    events_dispatched: int = 0
    #: high-water mark of the engine's pending-event count — a cheap storm
    #: detector (retransmit storms, broadcast bursts) without a trace
    max_queue_depth: int = 0
    #: per-port switch counters; empty unless the switch model is enabled
    ports: list[PortStats] = field(default_factory=list)
    #: False when the run finished *degraded*: at least one channel gave up
    #: and never healed, so some programs did not run to completion.  The
    #: counters above then cover the work done up to the give-up point.
    completed: bool = True
    #: one record per channel give-up:
    #: {"t_ns", "src", "dst", "parked", "scenario", "healed"} — "scenario"
    #: is the PartitionScenario name (None for organic loss), "healed" is
    #: filled in when the channel later drains its parked frames.
    partition_events: list[dict] = field(default_factory=list)
    #: failure report for a degraded run (None when completed): stuck
    #: programs, partitioned channels, parked-frame counts, unreachable
    #: nodes, residual coherence violations on the surviving nodes.
    failure: dict | None = None

    # --- fail-stop / rollback-recovery accounting (CrashScenario only) - #
    #: barrier-consistent snapshots written (re-executed barriers after a
    #: rollback re-checkpoint, so this can exceed barriers/K)
    recovery_checkpoints: int = counter("ckpt.write", summary="recovery.checkpoints")
    #: modeled bytes captured across all checkpoint writes
    recovery_checkpoint_bytes: int = counter(
        "ckpt.write", "nbytes", summary="recovery.checkpoint_mbytes", scale=1e6)
    #: rollbacks performed (one per recovered crash)
    recovery_rollbacks: int = counter("recover.rollback", summary="recovery.rollbacks")
    #: simulated time lost to outages: crash instant -> restart instant,
    #: summed over recovered crashes (re-execution time is visible in the
    #: profiler's ``recovery`` bucket instead); re-derived as
    #: ``restart_t_ns`` minus the instant of the node's ``crash.node``
    recovery_ns: int = counter(
        "recover.resume", "restart_t_ns", summary="recovery.recovery_ms", scale=1e6)
    #: one record per CrashScenario that fired:
    #: {"node", "t_ns", "detected_t_ns", "restart_t_ns", "recovered"} —
    #: detection/restart stay None for an undetected or never-restarting
    #: crash, "recovered" flips True when the rollback completed.
    crash_events: list[dict] = field(default_factory=list)

    @classmethod
    def for_nodes(cls, n: int) -> "ClusterStats":
        return cls(nodes=[NodeStats(i) for i in range(n)])

    def __getitem__(self, node: int) -> NodeStats:
        return self.nodes[node]

    # -------------------------- aggregates ---------------------------- #
    # ``total_messages``, ``total_bytes``, ``total_drops`` and the other
    # single-counter sums over the nodes are not spelled out here: each is
    # generated below the class from its counter's ``total=`` declaration.
    @property
    def total_misses(self) -> int:
        return sum(s.misses for s in self.nodes)

    @property
    def avg_misses_per_node(self) -> float:
        return self.total_misses / len(self.nodes)

    def messages_by_kind(self) -> Counter:
        total: Counter = Counter()
        for s in self.nodes:
            total.update(s.messages)
        return total

    @property
    def avg_compute_ns(self) -> float:
        return sum(s.compute_ns for s in self.nodes) / len(self.nodes)

    @property
    def avg_comm_ns(self) -> float:
        return sum(s.comm_ns for s in self.nodes) / len(self.nodes)

    def _group(self, group: str) -> dict:
        """The counters declared into one summary group, in declaration
        order: each one's total over the nodes (a cluster-level counter
        itself), divided by its scale."""
        out = {}
        for _, f in COUNTERS:
            m = f.metadata
            in_group, _, key = (m["summary"] or "").partition(".")
            if in_group == group:
                value = getattr(self, m["total"] or f.name)
                out[key] = value if m["scale"] == 1 else value / m["scale"]
        return out

    def reliability_summary(self) -> dict:
        """The reliable-transport counters as a flat dict."""
        return self._group("reliability")

    def combining_summary(self) -> dict:
        """Message-combining counters as a flat dict (zero when disabled)."""
        return self._group("combining")

    @property
    def max_port_depth(self) -> int:
        return max((p.max_depth for p in self.ports), default=0)

    def switch_summary(self) -> dict:
        """Shared-switch contention counters (all zero when disabled)."""
        return {**self._group("switch"), "max_port_depth": self.max_port_depth}

    def recovery_summary(self) -> dict:
        """Crash/checkpoint/rollback counters (all zero without crashes)."""
        return {"crashes": len(self.crash_events), **self._group("recovery")}

    # ----------------------- engine aggregates ------------------------ #
    @property
    def events_per_ms(self) -> float:
        """Engine events dispatched per simulated millisecond."""
        if self.elapsed_ns <= 0:
            return 0.0
        return self.events_dispatched / (self.elapsed_ns / 1e6)

    def engine_summary(self) -> dict:
        """Event-loop rate counters (degenerate event storms show up as
        outliers here long before anyone opens a trace)."""
        return {
            "events_k": self.events_dispatched / 1e3,
            "events_per_ms": self.events_per_ms,
            "max_queue_depth": self.max_queue_depth,
        }

    def summary(self) -> dict:
        """Flat dict for harness tables."""
        out = {
            "elapsed_ms": self.elapsed_ns / 1e6,
            "compute_ms": self.avg_compute_ns / 1e6,
            "comm_ms": self.avg_comm_ns / 1e6,
            "misses": self.total_misses,
            "misses_per_node_k": self.avg_misses_per_node / 1e3,
            "messages": self.total_messages,
            "mbytes": self.total_bytes / 1e6,
        }
        # Only surfaced when the run actually exercised the reliable
        # transport, the combining layer or the switch, keeping default
        # tables identical to the seed's.
        for group in (
            self.reliability_summary(), self.combining_summary(), self.switch_summary()
        ):
            if any(group.values()):
                out.update(group)
        # Synthetic stats objects (unit tests, hand-built tables) never ran
        # an engine; skip the rate keys so their summaries stay minimal.
        if self.events_dispatched:
            out.update(self.engine_summary())
        # Degraded runs / partition give-ups surface only when they happen,
        # keeping healthy tables identical to the seed's.
        if self.partition_events:
            out["partition_events"] = len(self.partition_events)
        if self.crash_events or self.recovery_checkpoints:
            out.update(self.recovery_summary())
        if not self.completed:
            out["completed"] = False
        return out


#: Every declared counter as ``(owning dataclass, field)``, in declaration
#: order — the one table the aggregates above, ``MetricsRegistry`` and the
#: docs are read from.
COUNTERS = tuple(
    (cls, f)
    for cls in (NodeStats, PortStats, ClusterStats)
    for f in fields(cls)
    if "event" in f.metadata
)


def _total(name: str, keyed: bool) -> property:
    """``ClusterStats.total_*``: one counter summed over the nodes (a
    keyed counter over its kinds too)."""
    if keyed:
        return property(lambda self: sum(sum(getattr(s, name).values()) for s in self.nodes))
    return property(lambda self: sum(getattr(s, name) for s in self.nodes))


for _cls, _f in COUNTERS:
    if _f.metadata["total"]:
        setattr(ClusterStats, _f.metadata["total"], _total(_f.name, _f.metadata["keyed"]))
