"""Miss, message and time accounting.

The paper's evaluation (Table 3, Figures 3-4) is entirely in terms of

* per-node **miss counts** (read misses + write faults handled by the
  default protocol),
* **communication time** — "time spent waiting for servicing misses and for
  synchronization", plus, in the optimized versions, "time spent in various
  protocol calls", and
* **compute time**.

``NodeStats`` tracks exactly those categories; ``ClusterStats`` aggregates.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field

__all__ = ["MsgKind", "NodeStats", "PortStats", "ClusterStats"]


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
    read_misses: int = 0
    write_faults: int = 0
    remote_read_misses: int = 0   # subset of read_misses needing the network
    prefetches: int = 0           # advisory co-operative prefetches issued
    prefetch_waits: int = 0       # demand reads that overlapped a prefetch
    messages: Counter = field(default_factory=Counter)   # MsgKind -> count
    bytes_sent: int = 0
    compute_ns: int = 0
    stall_ns: int = 0      # blocked on read misses / pending-write drain
    barrier_ns: int = 0    # waiting at barriers
    call_ns: int = 0       # executing compiler-control runtime calls
    reduce_ns: int = 0     # collective reductions

    # --- reliable-transport accounting (fault injection only) --------- #
    # All zero on a perfect wire.  Drops are charged to the node whose
    # frame (or ack) was lost; dups count duplicate deliveries suppressed
    # by the receiver's dedup; retransmits/backoffs are sender-side.
    net_drops: int = 0
    net_dups: int = 0
    net_retransmits: int = 0
    net_backoffs: int = 0
    # Retransmits fired while a copy of the frame (or its ack) was still
    # en route — i.e. the timer was simply too short.  The simulator is
    # omniscient, so this is ground truth, not a heuristic.
    net_spurious_retransmits: int = 0
    # Channels from this node that exhausted max_retries and parked their
    # unacked frames instead of aborting the run (one count per give-up
    # event, not per parked frame).
    net_gave_up: int = 0

    # --- message-combining accounting (CombineConfig only) ------------- #
    # msgs_combined counts, per original kind, the control messages that
    # travelled inside a combined frame instead of alone; combine_flushes
    # counts the combined frames this node put on the wire.
    msgs_combined: Counter = field(default_factory=Counter)
    combine_flushes: int = 0

    # --- shared-switch accounting (SwitchConfig only) ------------------ #
    # All zero on the link-only model.  switch_frames counts this node's
    # frames routed through the switch fabric; switch_wait_ns is the
    # contention delay those frames accumulated queueing for their output
    # port (zero when the port was idle on arrival).
    switch_frames: int = 0
    switch_wait_ns: int = 0

    def count_message(self, kind: MsgKind, size_bytes: int) -> None:
        self.messages[kind] += 1
        self.bytes_sent += size_bytes

    @property
    def misses(self) -> int:
        return self.read_misses + self.write_faults

    @property
    def comm_ns(self) -> int:
        """The paper's 'communication time' for this node."""
        return self.stall_ns + self.barrier_ns + self.call_ns + self.reduce_ns

    @property
    def coherence_messages(self) -> int:
        return sum(n for k, n in self.messages.items() if k in COHERENCE_KINDS)


@dataclass
class PortStats:
    """Counters for one switch output port (SwitchConfig only).

    ``wait_ns`` is the contention delay accumulated by frames queueing for
    this port; ``max_depth`` is the deepest the port's queue ever got
    (frames accepted but not yet forwarded, including the one in service).
    """

    port: int
    frames: int = 0
    busy_ns: int = 0
    wait_ns: int = 0
    max_depth: int = 0


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
    recovery_checkpoints: int = 0
    #: modeled bytes captured across all checkpoint writes
    recovery_checkpoint_bytes: int = 0
    #: rollbacks performed (one per recovered crash)
    recovery_rollbacks: int = 0
    #: simulated time lost to outages: crash instant -> restart instant,
    #: summed over recovered crashes (re-execution time is visible in the
    #: profiler's ``recovery`` bucket instead)
    recovery_ns: int = 0
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
    @property
    def total_misses(self) -> int:
        return sum(s.misses for s in self.nodes)

    @property
    def avg_misses_per_node(self) -> float:
        return self.total_misses / len(self.nodes)

    @property
    def total_messages(self) -> int:
        return sum(sum(s.messages.values()) for s in self.nodes)

    def messages_by_kind(self) -> Counter:
        total: Counter = Counter()
        for s in self.nodes:
            total.update(s.messages)
        return total

    @property
    def total_bytes(self) -> int:
        return sum(s.bytes_sent for s in self.nodes)

    @property
    def avg_compute_ns(self) -> float:
        return sum(s.compute_ns for s in self.nodes) / len(self.nodes)

    @property
    def avg_comm_ns(self) -> float:
        return sum(s.comm_ns for s in self.nodes) / len(self.nodes)

    @property
    def max_comm_ns(self) -> int:
        return max(s.comm_ns for s in self.nodes)

    # --------------------- reliability aggregates --------------------- #
    @property
    def total_drops(self) -> int:
        return sum(s.net_drops for s in self.nodes)

    @property
    def total_dups(self) -> int:
        return sum(s.net_dups for s in self.nodes)

    @property
    def total_retransmits(self) -> int:
        return sum(s.net_retransmits for s in self.nodes)

    @property
    def total_backoffs(self) -> int:
        return sum(s.net_backoffs for s in self.nodes)

    @property
    def total_spurious_retransmits(self) -> int:
        return sum(s.net_spurious_retransmits for s in self.nodes)

    @property
    def total_gave_up(self) -> int:
        return sum(s.net_gave_up for s in self.nodes)

    def reliability_summary(self) -> dict:
        """The reliable-transport counters as a flat dict."""
        return {
            "drops": self.total_drops,
            "dups": self.total_dups,
            "retransmits": self.total_retransmits,
            "backoffs": self.total_backoffs,
            "spurious_retransmits": self.total_spurious_retransmits,
            "gave_up": self.total_gave_up,
        }

    # --------------------- combining aggregates ----------------------- #
    @property
    def total_msgs_combined(self) -> int:
        return sum(sum(s.msgs_combined.values()) for s in self.nodes)

    @property
    def total_combine_flushes(self) -> int:
        return sum(s.combine_flushes for s in self.nodes)

    def msgs_combined_by_kind(self) -> Counter:
        total: Counter = Counter()
        for s in self.nodes:
            total.update(s.msgs_combined)
        return total

    def combining_summary(self) -> dict:
        """Message-combining counters as a flat dict (zero when disabled)."""
        return {
            "msgs_combined": self.total_msgs_combined,
            "combine_flushes": self.total_combine_flushes,
        }

    # ----------------------- switch aggregates ------------------------ #
    @property
    def total_switch_frames(self) -> int:
        return sum(s.switch_frames for s in self.nodes)

    @property
    def total_switch_wait_ns(self) -> int:
        return sum(s.switch_wait_ns for s in self.nodes)

    @property
    def max_port_depth(self) -> int:
        return max((p.max_depth for p in self.ports), default=0)

    def switch_summary(self) -> dict:
        """Shared-switch contention counters (all zero when disabled)."""
        return {
            "switch_frames": self.total_switch_frames,
            "switch_wait_ms": self.total_switch_wait_ns / 1e6,
            "max_port_depth": self.max_port_depth,
        }

    # ----------------------- recovery aggregates ----------------------- #
    def recovery_summary(self) -> dict:
        """Crash/checkpoint/rollback counters (all zero without crashes)."""
        return {
            "crashes": len(self.crash_events),
            "checkpoints": self.recovery_checkpoints,
            "checkpoint_mbytes": self.recovery_checkpoint_bytes / 1e6,
            "rollbacks": self.recovery_rollbacks,
            "recovery_ms": self.recovery_ns / 1e6,
        }

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
        # transport (or the combining layer), keeping default tables
        # identical to the seed's.
        rel = self.reliability_summary()
        if any(rel.values()):
            out.update(rel)
        comb = self.combining_summary()
        if any(comb.values()):
            out.update(comb)
        sw = self.switch_summary()
        if any(sw.values()):
            out.update(sw)
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
