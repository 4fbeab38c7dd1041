"""Reliable, exactly-once, in-order delivery over an unreliable wire.

The protocol stack (``protocol.py``, ``protocol_update.py``,
``extensions.py``, ``barrier.py``) was written against a perfect network:
every handler runs exactly once, and messages between one (src, dst) pair
never reorder — the FIFO link plus fixed latency guarantee it, and protocol
correctness leans on it (e.g. a read-response must not be overtaken by the
invalidation queued behind it).  When :class:`~repro.tempest.faults.
FaultConfig` makes the wire lossy, this module restores both guarantees:

* **sequence numbers** per (src, dst) channel, assigned at send time;
* **acks + timeout retransmit** with capped exponential backoff (timeouts
  are plain engine delays, so everything stays deterministic);
* **receiver-side dedup and reordering**: a frame older than the delivery
  cursor (or already buffered) is acked and discarded; out-of-order frames
  buffer until the gap fills, so handlers fire in send order.

Retransmission timing
---------------------
By default the ack timeout is the fixed ``retransmit_timeout_ns`` (~3 short
-message RTTs).  That timer is blind to queueing: a burst of bulk payloads
serializes for hundreds of microseconds on one link, the ack comes back
late, and the timer fires a *spurious* retransmit — the frame (or its ack)
was still en route.  With ``FaultConfig.adaptive_rto`` each channel keeps a
Jacobson-style estimator instead: SRTT/RTTVAR smoothed from ack round trips
of non-retransmitted frames (Karn's rule), RTO = SRTT + 4·RTTVAR clamped to
``[rto_min_ns, rto_max_ns]``.  The adaptive timer is also *size-aware*:
each frame's own deterministic serialization time rides on top of the RTO
(and is excluded from samples), so bulk payloads never trip a timeout
learned from short control frames.  Queueing backlog — on the sender's own
link, or (with :class:`~repro.tempest.config.SwitchConfig`) cross-traffic
contention at a shared switch port, which both frames and acks traverse —
then inflates the RTO via SRTT/RTTVAR and the spurious-retransmit class
disappears; the simulator
counts the ground truth in ``net_spurious_retransmits`` (a retransmit armed
while a copy of the frame, or its ack, was still in play on the wire).

Per-link profiles and partitions
--------------------------------
Fault draws resolve through a per-link *profile* at draw time: links listed
in ``FaultConfig.link_faults`` get their own
:class:`~repro.tempest.faults.LinkFaultConfig` overrides **and their own
seeded RNG stream** (derived from ``(seed, src, dst)``), every other link
shares the uniform config and the transport's single stream — so adding a
profile to one link never perturbs the draw sequence, and therefore the
schedule, of any other link, and a config with no overrides is
byte-identical to the uniform-only transport.
:class:`~repro.tempest.faults.PartitionScenario` windows consume no
randomness: a frame (or ack) whose endpoints straddle an active partition
is cut deterministically the moment it leaves its sender's link.

Give-up and recovery
--------------------
A frame that exhausts ``max_retries`` no longer aborts the simulation.
Its channel transitions to ``PARTITIONED``: every unacked frame is *parked*
(in sequence order), later sends on the channel park immediately without
touching the wire, and the give-up is recorded in
``NodeStats.net_gave_up`` plus one ``ClusterStats.partition_events`` entry.
If the responsible partition scenario heals, the channel schedules a heal
at the window's close, re-transmits the parked frames in order (receiver
dedup absorbs any that were delivered before the give-up) and the run
completes normally.  If no scenario heals — a permanent partition, or
organic loss with no scenario at all — the parked frames arm no timers, the
event heap drains, and the cluster finishes *degraded* (see
``Cluster.run``) instead of raising.

Transport acks are header-only control frames below the protocol layer:
they occupy the ack sender's link (serialization is real) and can
themselves be dropped or jittered — a lost ack is repaired by the data
frame's retransmission and the receiver's dedup.  An ack normally goes
straight to :meth:`Network.traverse` as a one-frame ack, the same link hop
a data frame takes.  With message combining
(:class:`~repro.tempest.config.CombineConfig`), acks queued behind a busy
link coalesce into one combined ack frame carrying several sequence
numbers — one header, one drop/jitter draw.  Acks never appear in the
per-kind message counters; reliability costs are tracked separately as
``net_drops`` / ``net_dups`` / ``net_retransmits`` / ``net_backoffs`` /
``net_spurious_retransmits`` in :class:`~repro.tempest.stats.NodeStats`.

Retransmit timers are *coalesced*: instead of one engine event per wire
copy, each (src, dst) channel arms a single timer on the earliest deadline
over its unacked frames (every frame still records its own exact
``deadline_ns``, so retransmits fire at precisely the same instants the
per-frame design produced — TCP does the same thing for the same reason).
A fire processes every due frame, recomputes the earliest remaining
deadline and re-arms; the live timer count is O(channels), not O(frames).

Liveness and fail-stop detection
--------------------------------
When :class:`~repro.tempest.faults.CrashScenario` entries are configured,
the channel timer doubles as a *keepalive*: a channel idle past
``FaultConfig.heartbeat_interval_ns`` sends a header-only probe frame
(negative sequence number, acked-and-discarded by the receiver, never
delivered or counted as a protocol message).  Probes ride the ordinary
unacked/retransmit machinery, so a fail-stopped peer — whose arriving
frames and acks simply vanish — is detected with *no oracle*: the probe
(or any data frame) exhausts ``max_retries``, the channel parks, and the
``on_give_up`` hook lets the recovery layer recognize the dead endpoint.
After the first detection (or once every program finished) monitoring is
suspended so the event heap can drain.  Crash-free configs never probe,
never pre-create channels, and keep their exact event schedules.

The transport exists only while faults are enabled; fault-free clusters
never construct one, so their event schedules are untouched.
"""

from __future__ import annotations

import random
from operator import attrgetter
from typing import Callable

from repro.tempest.faults import FaultConfig
from repro.tempest.stats import MsgKind

__all__ = ["ReliableTransport", "OPEN", "PARTITIONED", "HEARTBEAT"]

#: channel states
OPEN = "open"
PARTITIONED = "partitioned"

#: frame-kind sentinel for keepalive probes — a transport-internal control
#: frame like the ack, deliberately *not* a MsgKind: probes never reach the
#: protocol layer and never appear in per-kind message counters
HEARTBEAT = "heartbeat"

_deadline = attrgetter("deadline_ns")


class _LinkProfile:
    """Effective fault parameters plus the RNG stream for one link.

    The uniform profile wraps the transport's shared stream; each link
    with a :class:`~repro.tempest.faults.LinkFaultConfig` override gets a
    private stream so its draws never shift any other link's sequence.
    """

    __slots__ = ("drop_prob", "dup_prob", "jitter_ns", "stall_prob",
                 "stall_ns", "rng")

    def __init__(
        self,
        drop_prob: float,
        dup_prob: float,
        jitter_ns: int,
        stall_prob: float,
        stall_ns: int,
        rng: random.Random,
    ) -> None:
        self.drop_prob = drop_prob
        self.dup_prob = dup_prob
        self.jitter_ns = jitter_ns
        self.stall_prob = stall_prob
        self.stall_ns = stall_ns
        self.rng = rng


class _Frame:
    """One transport frame: a protocol message plus reliability state."""

    __slots__ = (
        "seq", "src", "dst", "kind", "size",
        "handler", "args", "handler_cost_ns", "retries", "timeout_ns",
        "sent_at_ns", "pending_acks", "deadline_ns",
        "parent", "first_send_seq",
    )

    def __init__(
        self,
        seq: int,
        src: int,
        dst: int,
        kind: MsgKind,
        size: int,
        handler: Callable[..., None] | None,
        args: tuple,
        handler_cost_ns: int,
        timeout_ns: int,
        sent_at_ns: int,
        parent=None,
    ) -> None:
        self.seq = seq
        self.src = src
        self.dst = dst
        self.kind = kind
        self.size = size
        # The protocol message, delivered as handler(*args, parent).
        self.handler = handler
        self.args = args
        self.handler_cost_ns = handler_cost_ns
        self.retries = 0
        self.timeout_ns = timeout_ns
        self.sent_at_ns = sent_at_ns
        # Lineage: the originating msg.send event seq (also the seq the
        # handler receives), and the seq of this frame's first
        # frame.send event — the anchor every later
        # retransmit/accept/deliver/ack event points back to (kept across
        # heals so the whole repair chain shares one root).
        self.parent = parent
        self.first_send_seq = None
        # Wire copies still in play: one per copy submitted to the link
        # (decremented when the drop draw kills the copy, or its ack).
        # Nonzero at retransmit time == the retransmit was spurious — a
        # copy or its ack was still queued, serializing, or propagating.
        self.pending_acks = 0
        # Absolute instant the current ack timeout expires; maintained at
        # every (re)transmit so the channel's single coalesced timer can
        # recover the exact per-frame firing times.
        self.deadline_ns = 0


class _Channel:
    """Per-(src, dst) reliability state plus the RTT estimator."""

    __slots__ = (
        "next_send_seq", "unacked", "next_deliver_seq", "reorder",
        "srtt_ns", "rttvar_ns", "rto_ns",
        "state", "parked", "give_up_event", "give_up_seq",
        "timer_deadline", "timer_seq", "hb_deadline", "next_probe_seq",
    )

    def __init__(self, initial_rto_ns: int) -> None:
        self.next_send_seq = 0
        self.unacked: dict[int, _Frame] = {}
        self.next_deliver_seq = 0
        self.reorder: dict[int, _Frame] = {}
        # Jacobson estimator state; srtt < 0 means "no sample yet" and the
        # channel runs on the configured initial timeout.
        self.srtt_ns = -1
        self.rttvar_ns = 0
        self.rto_ns = initial_rto_ns
        # Give-up / recovery state: a PARTITIONED channel holds its unacked
        # and newly-sent frames in ``parked`` (sequence order) until a heal
        # drains them; ``give_up_event`` aliases the ClusterStats
        # partition_events record so the heal can mark it healed.
        self.state = OPEN
        self.parked: list[_Frame] = []
        self.give_up_event: dict | None = None
        # Lineage: the channel.giveup event seq, so the matching
        # channel.heal can chain to the give-up that parked it.
        self.give_up_seq: int | None = None
        # The one coalesced timer: the armed absolute deadline (None =
        # nothing armed) and a monotonically increasing arm counter that
        # invalidates superseded heap entries.
        self.timer_deadline: int | None = None
        self.timer_seq = 0
        # Keepalive state (crash configs only): next probe instant, and a
        # descending sequence space for probe frames so they never collide
        # with data frames in ``unacked``.
        self.hb_deadline: int | None = None
        self.next_probe_seq = -1


class ReliableTransport:
    """Sequence/ack/retransmit machinery for one cluster's network."""

    #: wire size of a transport ack (a bare header)
    ACK_BYTES = 16

    def __init__(self, network, faults: FaultConfig) -> None:
        self.network = network
        self.engine = network.engine
        self.config = network.config
        self.faults = faults
        #: observability bus (see repro.obs); None keeps publishing free
        self.obs = None
        # The uniform profile shares self.rng (kept in sync through the
        # property below, so tests may swap the stream), meaning configs
        # without per-link overrides draw in exactly the historical order;
        # overridden links lazily get private streams in _profile().
        self._uniform = _LinkProfile(
            faults.drop_prob, faults.dup_prob, faults.jitter_ns,
            faults.stall_prob, faults.stall_ns, random.Random(faults.seed),
        )
        self._overrides = faults.link_overrides()
        self._profiles: dict[tuple[int, int], _LinkProfile] = {}
        self._partitions = faults.partitions
        self._channels: dict[tuple[int, int], _Channel] = {}
        self.adaptive = faults.adaptive_rto
        self._initial_rto = (
            min(max(faults.retransmit_timeout_ns, faults.rto_min_ns),
                faults.rto_max_ns)
            if self.adaptive
            else faults.retransmit_timeout_ns
        )
        # Combined-ack buffers: acker -> (peer -> list of frames to ack).
        # Only touched when the network's combining layer is enabled.
        self._ack_buffers: dict[int, dict[int, list[_Frame]]] = {}
        # --- fail-stop liveness layer (CrashScenario configs only) ------ #
        # Nodes currently fail-stopped: frames and acks touching them
        # vanish at arrival time (no ack — that silence *is* the failure
        # signal), and their own timers stop re-arming.
        self._dead: set[int] = set()
        # Heartbeats exist only when crashes are configured; crash-free
        # configs never probe, pre-create no channels, consume no draws.
        self.heartbeats_enabled = bool(faults.crashes)
        self.heartbeat_interval_ns = faults.heartbeat_interval_ns
        # Set after the first dead-peer detection (or once every program
        # finished): stops probes so the event heap can drain.
        self.monitor_suspended = False
        # Recovery hook: called as on_give_up(src, dst) after a channel
        # give-up is recorded; the RecoveryManager uses it to recognize
        # channels that died because their peer fail-stopped.
        self.on_give_up: Callable[[int, int], None] | None = None

    # ------------------------------------------------------------------ #
    @property
    def rng(self) -> random.Random:
        """The shared fault stream (uniform links).  Assignable: swapping
        in a scripted stream redirects every uniform-profile draw."""
        return self._uniform.rng

    @rng.setter
    def rng(self, value: random.Random) -> None:
        self._uniform.rng = value

    # ------------------------------------------------------------------ #
    def _channel(self, src: int, dst: int) -> _Channel:
        # Per-frame callers inline the hit as ``self._channels.get((src,
        # dst)) or self._channel(src, dst)`` (a _Channel is always truthy).
        ch = self._channels.get((src, dst))
        if ch is None:
            ch = self._channels[(src, dst)] = _Channel(self._initial_rto)
        return ch

    def _profile(self, src: int, dst: int) -> _LinkProfile:
        """The effective fault profile for the directed link src -> dst."""
        if not self._overrides:
            return self._uniform
        prof = self._profiles.get((src, dst))
        if prof is None:
            ov = self._overrides.get((src, dst))
            if ov is None:
                prof = self._uniform
            else:
                fc = self.faults
                # A private stream per overridden link, derived from the
                # config seed and the link endpoints: deterministic, and
                # independent of every other link's draw sequence.
                rng = random.Random(
                    (fc.seed * 1_000_003) ^ (src * 8_209 + dst + 1)
                )
                prof = _LinkProfile(
                    ov.drop_prob if ov.drop_prob is not None else fc.drop_prob,
                    ov.dup_prob if ov.dup_prob is not None else fc.dup_prob,
                    ov.jitter_ns if ov.jitter_ns is not None else fc.jitter_ns,
                    ov.stall_prob if ov.stall_prob is not None else fc.stall_prob,
                    ov.stall_ns if ov.stall_ns is not None else fc.stall_ns,
                    rng,
                )
            self._profiles[(src, dst)] = prof
        return prof

    def _cut_now(self, a: int, b: int) -> bool:
        """True when an active partition separates ``a`` from ``b`` now."""
        now = self.engine.now
        return any(
            s.separates(a, b) and s.active_at(now) for s in self._partitions
        )

    def _active_cut_scenarios(self, a: int, b: int) -> list:
        now = self.engine.now
        return [
            s for s in self._partitions
            if s.separates(a, b) and s.active_at(now)
        ]

    def _deterministic_path_ns(self, size: int) -> int:
        """The frame's own fixed bandwidth cost: link serialization, plus
        its store-and-forward time when the shared switch is enabled.  Rides
        on the adaptive timer and is excluded from RTT samples, so the
        estimator tracks only the variable part — queueing, jitter, the ack
        path."""
        path = self.config.transfer_ns(size)
        if self.network.switch is not None:
            path += self.config.switch_forward_ns(size)
        return path

    # ------------------------------------------------------------------ #
    # sender side
    # ------------------------------------------------------------------ #
    def send(
        self,
        src: int,
        dst: int,
        kind: MsgKind,
        handler: Callable[..., None],
        args: tuple,
        handler_cost_ns: int,
        size: int,
        parent,
    ) -> None:
        """Submit one protocol message for reliable delivery; ``parent``
        is its ``msg.send`` seq (None without a bus)."""
        ch = self._channels.get((src, dst)) or self._channel(src, dst)
        # The adaptive timer is size-aware: the sender knows exactly how
        # long its own frame occupies the link, so that deterministic
        # serialization time rides on top of the estimated RTO (and is
        # subtracted back out of RTT samples).  The estimator then tracks
        # only the genuinely variable part — queueing, jitter, ack path —
        # and a bulk payload never trips a timeout learned from short
        # control frames.  The fixed timer stays deliberately blind.
        timeout = ch.rto_ns
        if self.adaptive:
            timeout += self._deterministic_path_ns(size)
        frame = _Frame(
            ch.next_send_seq, src, dst, kind, size,
            handler, args, handler_cost_ns, timeout, self.engine.now, parent,
        )
        ch.next_send_seq += 1
        if ch.state is not OPEN:
            # The channel already gave up: park without touching the wire
            # (no link occupancy, no timers).  A heal drains the queue in
            # sequence order; a degraded run reports it.
            ch.parked.append(frame)
            return
        ch.unacked[frame.seq] = frame
        self._transmit(frame)
        armed = ch.timer_deadline
        if armed is not None and armed <= frame.deadline_ns and src not in self._dead:
            # The armed timer is already due no later than every unacked
            # deadline and the keepalive (see _arm_timer), and the new
            # frame's deadline is no earlier: re-arming would change nothing.
            return
        self._arm_timer(src, dst, ch)

    def _transmit(self, frame: _Frame) -> None:
        """Put one wire copy of ``frame`` on the sender's link and stamp
        its ack deadline (the channel timer is armed by the caller).  The
        copy's ``frame.send`` event seq travels with it through
        ``Network.traverse`` as an argument of :meth:`_frame_wire_done`,
        so a drop of *this* copy chains to exactly this send event."""
        now = self.engine.now
        frame.pending_acks += 1
        frame.deadline_ns = now + frame.timeout_ns
        send_seq = None
        if self.obs is not None:
            send_seq = self.obs.emit(
                "frame.send", now, 0, frame.src, frame.parent,
                {"dst": frame.dst, "seq": frame.seq, "msg": frame.kind,
                 "size": frame.size, "retries": frame.retries},
            )
            if frame.first_send_seq is None:
                frame.first_send_seq = send_seq
        self.network.traverse(
            frame.src, frame.dst, frame.size, send_seq,
            self._frame_wire_done, frame, send_seq,
        )

    def _frame_wire_done(self, frame: _Frame, send_seq) -> None:
        """One data copy left the bandwidth-limited path.  Fault draws
        happen in a fixed order so runs replay exactly: drop, duplicate,
        then one jitter per surviving copy (the original's first)."""
        src, dst = frame.src, frame.dst
        prof = self._profile(src, dst) if self._overrides else self._uniform
        cause = self._lost(src, dst, prof)
        if cause is not None:
            frame.pending_acks -= 1
            self._count_drop(src, dst, cause, parent=send_seq, seq=frame.seq)
            if cause == "partition":
                return  # cut, not drawn: no duplicate draw either
        rng = prof.rng
        duplicated = prof.dup_prob > 0 and rng.random() < prof.dup_prob
        j = prof.jitter_ns
        engine = self.engine
        arrive = engine.now + self.network.residual_latency_ns
        if cause is None:
            engine.call_at(
                arrive + (rng.randrange(j + 1) if j else 0), self._on_arrival, frame
            )
        if duplicated:
            # An extra wire copy (it may still be deduplicated).
            frame.pending_acks += 1
            engine.call_at(
                arrive + (rng.randrange(j + 1) if j else 0), self._on_arrival, frame
            )

    def _lost(self, src: int, dst: int, prof: _LinkProfile) -> str | None:
        """Why the wire copy (data frame or ack) leaving ``src`` for ``dst``
        right now is lost, or None when it survives.  An active partition
        cuts it deterministically the moment it leaves the sender's link —
        no RNG draw is consumed, so runs without partition scenarios keep
        their exact draw sequence; otherwise the link's drop draw decides."""
        if self._partitions and self._cut_now(src, dst):
            return "partition"
        if prof.drop_prob > 0 and prof.rng.random() < prof.drop_prob:
            return "loss"
        return None

    def _count_drop(self, src: int, dst: int, cause: str, parent=None, **payload) -> None:
        """Charge one lost wire copy to its sender and publish it."""
        self.network.stats[src].net_drops += 1
        if self.obs is not None:
            self.obs.emit(
                "frame.drop", self.engine.now, 0, src, parent,
                {"dst": dst, **payload, "cause": cause},
            )

    # ------------------------------------------------------------------ #
    # the coalesced per-channel timer
    # ------------------------------------------------------------------ #
    def _arm_timer(self, src: int, dst: int, ch: _Channel) -> None:
        """(Re)arm the channel's single timer on the earliest deadline:
        the oldest unacked frame's exact ack deadline, or — when the
        liveness layer is probing — the next keepalive instant."""
        deadline: int | None = None
        if ch.state is OPEN and src not in self._dead:
            if ch.unacked:
                deadline = min(map(_deadline, ch.unacked.values()))
            if (self.heartbeats_enabled and not self.monitor_suspended
                    and ch.hb_deadline is not None):
                deadline = (ch.hb_deadline if deadline is None
                            else min(deadline, ch.hb_deadline))
        if deadline is None:
            ch.timer_deadline = None
            return
        if ch.timer_deadline is not None and ch.timer_deadline <= deadline:
            return  # the armed timer fires first and will re-arm
        ch.timer_seq += 1
        ch.timer_deadline = deadline
        self.engine.call_at(deadline, self._on_timer, src, dst, ch.timer_seq)

    def _on_timer(self, src: int, dst: int, timer_seq: int) -> None:
        """The channel timer fired: retransmit every due frame (at exactly
        the instant its own per-frame timer would have fired), send a
        keepalive if the channel has been idle past the heartbeat interval,
        then re-arm on the earliest remaining deadline."""
        ch = self._channels.get((src, dst))
        if ch is None or ch.timer_seq != timer_seq:
            return  # superseded by a later arm
        ch.timer_deadline = None
        if ch.state is not OPEN or src in self._dead:
            return  # parked channels and dead senders arm nothing
        now = self.engine.now
        unacked = ch.unacked
        if unacked:
            due = [s for s, f in unacked.items() if f.deadline_ns <= now]
            if len(due) > 1:
                due.sort()
            for seq in due:
                frame = unacked.get(seq)
                if frame is None or not self._retransmit_due(ch, frame):
                    return  # the channel gave up and parked mid-scan
        elif ch.hb_deadline is None:
            return  # nothing to retransmit or probe: _arm_timer would agree
        if (self.heartbeats_enabled and not self.monitor_suspended
                and ch.hb_deadline is not None and ch.hb_deadline <= now):
            if ch.unacked:
                # Traffic already in flight probes liveness for free.
                ch.hb_deadline = now + self.heartbeat_interval_ns
            else:
                self._send_probe(src, dst, ch)
        self._arm_timer(src, dst, ch)

    def _retransmit_due(self, ch: _Channel, frame: _Frame) -> bool:
        """Retransmit one due frame with exponential backoff; after
        ``max_retries`` the channel gives up and parks (never raises).
        Returns False when the channel parked."""
        fc = self.faults
        if self._partitions and self._cut_now(frame.src, frame.dst):
            # The link is actively cut by a partition scenario: a
            # retransmit storm cannot succeed, so park immediately instead
            # of burning the retry budget.  Giving up *inside* the window
            # also guarantees the heal is scheduled before the scenario
            # ends — a budget that straddles the heal would otherwise give
            # up on a clean wire with no scenario left to blame.
            self._give_up(ch, frame)
            return False
        if frame.retries >= fc.max_retries:
            self._give_up(ch, frame)
            return False
        spurious = frame.pending_acks > 0
        if spurious:
            # A surviving copy (or its ack) is still on the wire: the timer
            # fired early.  Ground truth, courtesy of the simulator.
            self.network.stats[frame.src].net_spurious_retransmits += 1
        frame.retries += 1
        self.network.stats[frame.src].net_retransmits += 1
        next_timeout = min(frame.timeout_ns * 2, fc.max_backoff_ns)
        backoff = next_timeout > frame.timeout_ns
        if backoff:
            self.network.stats[frame.src].net_backoffs += 1
        frame.timeout_ns = next_timeout
        if self.obs is not None:
            self.obs.emit(
                "frame.retransmit", self.engine.now, 0, frame.src,
                frame.first_send_seq,
                {"dst": frame.dst, "seq": frame.seq, "retries": frame.retries,
                 "spurious": spurious, "backoff": backoff,
                 "timeout_ns": next_timeout},
            )
        self._transmit(frame)
        return True

    # ------------------------------------------------------------------ #
    # give-up and recovery
    # ------------------------------------------------------------------ #
    def _give_up(self, ch: _Channel, frame: _Frame) -> None:
        """Channel recovery: park every unacked frame, record the event,
        schedule a heal when a healing partition scenario explains the loss."""
        now = self.engine.now
        src, dst = frame.src, frame.dst
        ch.state = PARTITIONED
        ch.timer_deadline = None
        ch.timer_seq += 1  # invalidate any armed channel timer
        ch.hb_deadline = None  # no keepalives on a given-up channel
        moved = [ch.unacked.pop(seq) for seq in sorted(ch.unacked)]
        for f in moved:
            # Forget wire copies: the heal re-transmits from a clean slate.
            f.pending_acks = 0
        # Keepalive probes are transport-internal: they are dropped, not
        # parked — a healed channel must not replay stale probes, and the
        # parked counts below stay protocol-frames-only.
        moved = [f for f in moved if f.seq >= 0]
        ch.parked.extend(moved)
        scens = self._active_cut_scenarios(src, dst)
        stats = self.network.stats
        stats[src].net_gave_up += 1
        event = {
            "t_ns": now,
            "src": src,
            "dst": dst,
            "parked": len(moved),
            "scenario": scens[0].name if scens else None,
            "healed": False,
        }
        ch.give_up_event = event
        stats.partition_events.append(event)
        if self.obs is not None:
            ch.give_up_seq = self.obs.emit(
                "channel.giveup", now, 0, src, frame.first_send_seq,
                {"dst": dst, "parked": len(moved), "scenario": event["scenario"]},
            )
        if scens and all(s.heals for s in scens):
            heal_at = max(s.heal_ns for s in scens)
            self.engine.call_after(heal_at - now, self._heal, src, dst)
        # No active healing scenario: nothing is scheduled, the parked
        # frames arm no timers, and the run finishes degraded.
        if self.on_give_up is not None:
            # Recovery layer's detection point: a give-up whose dst is a
            # fail-stopped node is the liveness verdict ``channel.dead``.
            self.on_give_up(src, dst)

    def _heal(self, src: int, dst: int) -> None:
        """A partition window closed: reopen the channel and drain the
        parked frames in sequence order (receiver dedup absorbs any frame
        that was actually delivered before the give-up)."""
        ch = self._channels.get((src, dst))
        if ch is None or ch.state is not PARTITIONED:
            return
        now = self.engine.now
        scens = self._active_cut_scenarios(src, dst)
        if scens:
            # Still cut — an overlapping scenario took over; chase its
            # window if it heals, otherwise stay parked for good.
            if all(s.heals for s in scens):
                heal_at = max(s.heal_ns for s in scens)
                self.engine.call_after(heal_at - now, self._heal, src, dst)
            return
        ch.state = OPEN
        if ch.give_up_event is not None:
            ch.give_up_event["healed"] = True
            ch.give_up_event = None
        parked, ch.parked = ch.parked, []
        if self.obs is not None:
            self.obs.emit(
                "channel.heal", now, 0, src, ch.give_up_seq,
                {"dst": dst, "drained": len(parked)},
            )
            ch.give_up_seq = None
        for f in parked:
            f.retries = 0
            f.sent_at_ns = now
            timeout = ch.rto_ns
            if self.adaptive:
                timeout += self._deterministic_path_ns(f.size)
            f.timeout_ns = timeout
            ch.unacked[f.seq] = f
            self._transmit(f)
        if self.heartbeats_enabled and not self.monitor_suspended:
            # Restart the keepalive clock: the pre-give-up deadline is
            # stale (possibly in the past) and the reopened channel should
            # get a full quiet interval before its next probe.
            ch.hb_deadline = now + self.heartbeat_interval_ns
        self._arm_timer(src, dst, ch)

    # ------------------------------------------------------------------ #
    # receiver side
    # ------------------------------------------------------------------ #
    def _on_arrival(self, frame: _Frame) -> None:
        """One wire copy reached the destination's network interface."""
        if self._dead and (frame.dst in self._dead or frame.src in self._dead):
            # A fail-stopped endpoint: the copy vanishes *without an ack*.
            # That silence is what the sender's retransmit budget detects.
            return
        if frame.seq < 0:
            # Transport keepalive probe: prove liveness by acking, then
            # discard — probes are never delivered, never deduped, never
            # counted as protocol messages (same layer as transport acks).
            self._send_ack(frame)
            return
        # Ack every copy, including duplicates: a lost ack means the sender
        # retransmits, and only a fresh ack can stop it.
        self._send_ack(frame)
        src, dst = frame.src, frame.dst
        ch = self._channels.get((src, dst)) or self._channel(src, dst)
        if frame.seq < ch.next_deliver_seq or frame.seq in ch.reorder:
            self.network.stats[frame.dst].net_dups += 1
            if self.obs is not None:
                self.obs.emit(
                    "frame.dup", self.engine.now, 0, frame.dst,
                    frame.first_send_seq,
                    {"src": frame.src, "seq": frame.seq},
                )
            return
        if self.obs is not None:
            self.obs.emit(
                "frame.accept", self.engine.now, 0, frame.dst, frame.first_send_seq,
                {"src": frame.src, "seq": frame.seq},
            )
        ch.reorder[frame.seq] = frame
        # Deliver the contiguous run starting at the cursor; later frames
        # wait buffered so handlers execute in send order.
        while ch.next_deliver_seq in ch.reorder:
            ready = ch.reorder.pop(ch.next_deliver_seq)
            ch.next_deliver_seq += 1
            self._deliver(ready)

    def _deliver(self, frame: _Frame) -> None:
        if self.obs is not None:
            self.obs.emit(
                "frame.deliver", self.engine.now, 0, frame.dst, frame.first_send_seq,
                {"src": frame.src, "seq": frame.seq, "msg": frame.kind},
            )
        prof = (self._profile(frame.src, frame.dst) if self._overrides
                else self._uniform)
        cost = frame.handler_cost_ns
        if prof.stall_prob > 0 and prof.rng.random() < prof.stall_prob:
            # A protocol-CPU stall window: the handler's dispatch occupies
            # the protocol processor for an extra stretch first.
            cost += prof.stall_ns
        self.network.dispatch(
            frame.dst, self.config.dispatch_overhead_ns, cost,
            frame.handler, frame.args, frame.parent,
        )

    # ------------------------------------------------------------------ #
    # transport acks (with optional combining)
    # ------------------------------------------------------------------ #
    def _send_ack(self, frame: _Frame) -> None:
        """Header-only transport ack, dst -> src; unreliable by design.

        With combining enabled, an ack finding its sender's link busy parks
        in a per-peer buffer and rides a combined ack frame when the link
        frees (see :meth:`flush_acks`).
        """
        net = self.network
        acker = frame.dst
        if net.combining and net._link_jobs[acker] > 0:
            peers = self._ack_buffers.setdefault(acker, {})
            buf = peers.setdefault(frame.src, [])
            buf.append(frame)
            if len(buf) >= self.config.combine.max_msgs:
                del peers[frame.src]
                self._transmit_acks(acker, frame.src, buf)
            return
        # A lone ack frame: straight onto the link.
        net.traverse(
            acker, frame.src, self.ACK_BYTES, None,
            self._ack_wire_done, acker, frame.src, [frame], [frame.seq],
        )

    def flush_acks(self, acker: int) -> None:
        """Link idle: put parked (combined) acks on the wire."""
        if self._dead and acker in self._dead:
            self._ack_buffers.pop(acker, None)  # a dead node acks nothing
            return
        peers = self._ack_buffers.get(acker)
        if not peers:
            return
        flushing = list(peers.items())
        peers.clear()
        for peer, frames in flushing:
            self._transmit_acks(acker, peer, frames)

    def _transmit_acks(self, acker: int, peer: int, frames: list[_Frame]) -> None:
        """One wire ack frame acknowledging ``frames`` (peer's channel)."""
        k = len(frames)
        size = self.ACK_BYTES
        if k > 1:
            size += k * self.config.combine.slot_bytes
            st = self.network.stats[acker]
            st.combine_flushes += 1
            st.msgs_combined[MsgKind.ACK] += k
            if self.obs is not None:
                self.obs.emit(
                    "combine.flush", self.engine.now, 0, acker, None,
                    {"dst": peer, "n": k, "kinds": [MsgKind.ACK] * k, "size": size},
                )
        self.network.traverse(
            acker, peer, size, None,
            self._ack_wire_done, acker, peer, frames, [f.seq for f in frames],
        )

    def _ack_wire_done(
        self, acker: int, peer: int, frames: list[_Frame], seqs: list[int]
    ) -> None:
        """One ack frame left the bandwidth-limited path: drop, then jitter."""
        prof = self._profile(acker, peer) if self._overrides else self._uniform
        cause = self._lost(acker, peer, prof)
        if cause is not None:
            # One lost ack frame is one drop however many sequence
            # numbers it carried; the retransmit path recovers.
            for f in frames:
                f.pending_acks -= 1
            self._count_drop(acker, peer, cause, seqs=seqs, ack=True)
            return
        j = prof.jitter_ns
        engine = self.engine
        engine.call_at(
            engine.now + self.network.residual_latency_ns
            + (prof.rng.randrange(j + 1) if j else 0),
            self._on_acks, peer, acker, seqs,
        )

    def _on_acks(self, src: int, dst: int, seqs: list[int]) -> None:
        if self._dead and (src in self._dead or dst in self._dead):
            return  # acks touching a fail-stopped endpoint vanish
        ch = self._channels.get((src, dst)) or self._channel(src, dst)
        now = self.engine.now
        if self.heartbeats_enabled:
            # Proof of life from dst: push the next keepalive out.  The
            # deadline only moves later, so the armed timer needs no
            # re-arm — it fires, sees nothing due, and re-arms itself.
            ch.hb_deadline = now + self.heartbeat_interval_ns
        for seq in seqs:
            frame = ch.unacked.pop(seq, None)
            if frame is None:
                continue  # duplicate/stale ack
            if self.obs is not None:
                self.obs.emit(
                    "frame.ack", now, 0, src, frame.first_send_seq,
                    {"dst": dst, "seq": seq, "rtt_ns": now - frame.sent_at_ns},
                )
            if self.adaptive and frame.retries == 0:
                # Karn's rule: only never-retransmitted frames sample RTT
                # (a retransmitted frame's ack is ambiguous).  The frame's
                # own deterministic bandwidth cost (serialization, and the
                # switch forwarding hop when enabled) already rides on the
                # timer, so it is excluded from the sample.
                rtt = now - frame.sent_at_ns - self._deterministic_path_ns(frame.size)
                self._sample_rtt(ch, max(rtt, 0))

    def _sample_rtt(self, ch: _Channel, rtt_ns: int) -> None:
        """Jacobson/Karels update, integer arithmetic for determinism."""
        if ch.srtt_ns < 0:
            ch.srtt_ns = rtt_ns
            ch.rttvar_ns = rtt_ns // 2
        else:
            err = rtt_ns - ch.srtt_ns
            ch.rttvar_ns += (abs(err) - ch.rttvar_ns) // 4
            ch.srtt_ns += err // 8
        fc = self.faults
        ch.rto_ns = min(
            max(ch.srtt_ns + 4 * ch.rttvar_ns, fc.rto_min_ns), fc.rto_max_ns
        )

    # ------------------------------------------------------------------ #
    # fail-stop liveness layer (crash configs only)
    # ------------------------------------------------------------------ #
    def start_monitoring(self) -> None:
        """Pre-create every directed channel and schedule its first
        keepalive: full-mesh coverage means a fail-stopped node is detected
        even on channels that never carried traffic (e.g. a node that died
        before its first barrier arrival)."""
        if not self.heartbeats_enabled:
            return
        n = self.config.n_nodes
        first = self.engine.now + self.heartbeat_interval_ns
        for src in range(n):
            for dst in range(n):
                if src == dst:
                    continue
                ch = self._channel(src, dst)
                ch.hb_deadline = first
                self._arm_timer(src, dst, ch)

    def suspend_monitoring(self) -> None:
        """Stop keepalives (first detection made, or all programs done) so
        outstanding probe timers expire as no-ops and the heap can drain."""
        self.monitor_suspended = True

    def _send_probe(self, src: int, dst: int, ch: _Channel) -> None:
        """One header-only keepalive on an idle channel.  The probe sits in
        ``unacked`` like any frame, so the ordinary retransmit/give-up
        machinery is the failure detector — no oracle anywhere."""
        timeout = ch.rto_ns
        if self.adaptive:
            timeout += self._deterministic_path_ns(self.ACK_BYTES)
        frame = _Frame(
            ch.next_probe_seq, src, dst, HEARTBEAT, self.ACK_BYTES,
            None, (), 0, timeout, self.engine.now,  # never delivered
        )
        ch.next_probe_seq -= 1
        ch.hb_deadline = self.engine.now + self.heartbeat_interval_ns
        ch.unacked[frame.seq] = frame
        self._transmit(frame)

    def mark_dead(self, node: int) -> None:
        """Fail-stop ``node``: from now on every frame or ack arriving at
        (or sent to confirm) this endpoint vanishes silently."""
        self._dead.add(node)

    def mark_alive(self, node: int) -> None:
        self._dead.discard(node)

    def reset(self) -> None:
        """Rollback-recovery epoch reset: drop every channel (sequence
        spaces, RTT estimators, reorder buffers, parked frames) and every
        buffered ack, then resume liveness monitoring from scratch.  The
        fault RNG streams deliberately continue — determinism comes from
        the replayed schedule, not from rewinding entropy."""
        self._channels.clear()
        self._ack_buffers.clear()
        self.monitor_suspended = False
        self.start_monitoring()

    # ------------------------------------------------------------------ #
    @property
    def in_flight(self) -> int:
        """Unacked frames across all channels (for tests/diagnostics)."""
        return sum(len(ch.unacked) for ch in self._channels.values())

    @property
    def armed_timers(self) -> int:
        """Channels with a live coalesced timer — O(channels) by design,
        however many frames are simultaneously unacked (regression-tested
        against the historic one-timer-per-frame behavior)."""
        return sum(
            1 for ch in self._channels.values()
            if ch.timer_deadline is not None
        )

    @property
    def parked_frames(self) -> int:
        """Frames parked on partitioned channels (awaiting heal or report)."""
        return sum(len(ch.parked) for ch in self._channels.values())

    def partitioned_channels(self) -> list[dict]:
        """One record per channel still in the PARTITIONED state, sorted by
        (src, dst) — the raw material for a degraded run's failure report."""
        return [
            {"src": src, "dst": dst, "parked": len(ch.parked)}
            for (src, dst), ch in sorted(self._channels.items())
            if ch.state is PARTITIONED
        ]
