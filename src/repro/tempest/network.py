"""The cluster interconnect: active messages with calibrated costs.

Model
-----
Each node has one outgoing link (a FIFO :class:`~repro.sim.Resource`): a
message occupies the sender's link for its serialization time
(``bytes / bandwidth``), then arrives ``wire_latency_ns`` later and is
dispatched as a *handler* on the destination's protocol CPU.  Back-to-back
sends from one node therefore pipeline on the wire but serialize on the
link — exactly the behaviour that makes the paper's bulk-transfer
optimization profitable (one large payload pays the per-message overheads
once).

Shared switch
-------------
The paper's 8-node cluster runs all traffic through one Myrinet switch;
independent links cannot reproduce cross-traffic queueing.  With
:class:`~repro.tempest.config.SwitchConfig` enabled, every remote frame
routes sender-link → switch output port → receiver: the one-way
propagation splits in half around a store-and-forward hop on the
*destination's* output port (a :class:`~repro.sim.PortedResource` server
with one port per node, forwarding at the link rate, as in the paper's
crossbar).  Frames from different senders racing to one destination
serialize on its port, and the port's backlog *backpressures* the sender:
the sending link stays held until the port accepts the frame
(Myrinet-style blocking flow control), so later traffic from the same
sender queues behind the congestion, the adaptive RTO's RTT samples
inflate, and the combining layer's link-busy parking windows lengthen.
Port arbitration is in link-submission order — the engine's deterministic
event order — so contended runs replay exactly.
Contention is accounted per sending node (``switch_wait_ns``,
``switch_frames``) and per port (:class:`~repro.tempest.stats.PortStats`).
Disabled (the default), none of the machinery is constructed and schedules
are byte-identical to the link-only model.

Every active message has one calling convention: a handler (a bound method)
and an argument tuple, carried unchanged from :meth:`Network.send` to the
destination, where it runs as ``handler(*args, seq)`` after its occupancy
completes on the protocol CPU (see :meth:`repro.tempest.node.Node.
run_handler`).  ``seq`` is exactly what ``send`` returned: the message's own
``msg.send`` event seq, which the handler passes on as the lineage parent of
whatever it sends next — None with no bus attached, and None for a message
that parked in a combine buffer.  Self-sends skip the wire but still pay
dispatch costs, matching Tempest's loopback path; both paths converge on
one :meth:`Network.dispatch` so every message — local or remote, reliable
or not — enters the destination node the same way.

Message combining
-----------------
The paper's bulk-transfer optimization (Section 4.2) coalesces contiguous
*data* blocks so the per-message overheads are paid once.  When
:class:`~repro.tempest.config.CombineConfig` is enabled, the same idea is
applied to *control* traffic: a header-only frame (a protocol INV or ACK, a
barrier notification).  The eager protocol emits these in bursts —
consecutive boundary-block invalidations to one sharer arrive ~10 us apart
— and the combining layer exploits exactly that shape.  The first control
frame on a *cold* channel transmits immediately (an isolated frame never
pays combining latency), but it heats the channel: any combinable frame
sent to the same destination within ``COMBINE_MAX_WAIT_NS``, or while the
outgoing link is busy serializing, parks in a per-(src, dst) combine
buffer.  Channel-mates accumulate and travel as ONE combined frame: one
16-byte header plus ``COMBINE_SLOT_BYTES`` per sub-message on the wire,
one receiver-side dispatch, the sub-handlers executed back to back in send
order.

A buffer flushes on the earliest of four triggers:

* it reaches ``COMBINE_MAX_MSGS`` sub-messages;
* its oldest frame has waited ``COMBINE_MAX_WAIT_NS`` (the hold timer —
  bounds the latency any parked control frame can pick up, ~1
  short-message RTT);
* the outgoing link goes idle after a busy spell (frames parked behind
  bulk serialization leave the moment the link frees);
* a non-combinable message to the same destination is sent — the buffer
  flushes ahead of it, so per-channel FIFO order is preserved exactly.

A channel with no burst behaves exactly as without combining: cold
channels transmit eagerly, so workloads with no control-frame locality
(one barrier notification here, one invalidation there) keep their
uncombined schedules and latencies.

Transport acks (below the protocol layer) combine only *opportunistically*
— they park only while their link is busy — keeping ack round trips, and
hence the adaptive RTO's RTT samples, tight.

Combining is strictly opt-in: disabled (the default) none of the machinery
is touched and schedules are byte-identical to the uncombined model.

Reliability
-----------
By default the wire is perfect (the paper's Myrinet assumption).  When the
config's :class:`~repro.tempest.faults.FaultConfig` enables any fault, every
wire send is routed through :class:`~repro.tempest.transport.
ReliableTransport` — sequence numbers, acks, retransmit with capped
exponential backoff, and receiver-side dedup/reordering — so protocol
handlers still observe exactly-once, in-order delivery.  Combining layers
cleanly on top: a combined frame is one transport frame, and transport acks
themselves combine.

Faults need not be uniform: per-link
:class:`~repro.tempest.faults.LinkFaultConfig` profiles override any fault
axis for one directed link (with a private RNG stream, so other links'
draws never shift), and :class:`~repro.tempest.faults.PartitionScenario`
windows cut frames crossing a partition boundary deterministically.  A
channel that exhausts its retransmit budget *parks* instead of raising —
see :mod:`repro.tempest.transport` for the give-up/heal protocol and
``Cluster.run`` for how a never-healing partition becomes a degraded
result rather than a traceback.
"""

from __future__ import annotations

from typing import Callable

from repro.sim import Engine, PortedResource, Resource, SimulationError
from repro.tempest.config import US, ClusterConfig
from repro.tempest.stats import ClusterStats, MsgKind, PortStats

__all__ = [
    "Network", "HEADER_BYTES", "COMBINE_MAX_MSGS", "COMBINE_SLOT_BYTES",
    "COMBINE_MAX_WAIT_NS",
]

#: Fixed header on every message (request/control payloads are header-only).
HEADER_BYTES = 16
#: Most sub-messages one combined frame carries.
COMBINE_MAX_MSGS = 8
#: Wire bytes per sub-message inside a combined frame (a packed kind tag +
#: block/seq operand; the header is paid only once).
COMBINE_SLOT_BYTES = 4
#: Combine-buffer hold window, ~1 short-message RTT: the longest a parked
#: control frame waits for channel-mates, and how long a channel stays hot.
COMBINE_MAX_WAIT_NS = 40 * US


class _CombineBuffer:
    """Header-only control frames parked for one (src, dst) channel."""

    __slots__ = ("dst", "kinds", "calls", "costs")

    def __init__(self, dst: int) -> None:
        self.dst = dst
        self.kinds: list[MsgKind] = []
        self.calls: list[tuple[Callable[..., None], tuple]] = []
        self.costs: list[int] = []

    def add(
        self, kind: MsgKind, handler: Callable[..., None], args: tuple, cost_ns: int
    ) -> None:
        self.kinds.append(kind)
        self.calls.append((handler, args))
        self.costs.append(cost_ns)

    def __len__(self) -> int:
        return len(self.kinds)


class Network:
    """Message transport between the cluster's nodes."""

    __slots__ = (
        "engine",
        "config",
        "stats",
        "nodes",
        "obs",
        "_wire_ns",
        "links",
        "switch",
        "_port_depth",
        "_lat_to_switch",
        "residual_latency_ns",
        "combining",
        "_link_jobs",
        "_pending",
        "_last_ctl",
        "transport",
        "_fused_wire",
        "_arrival_delay_ns",
        "_bw_bytes_per_us",
    )

    def __init__(
        self,
        engine: Engine,
        config: ClusterConfig,
        stats: ClusterStats,
        nodes: list,  # list[Node]; typed loosely to avoid a cycle
    ) -> None:
        self.engine = engine
        self.config = config
        self.stats = stats
        self.nodes = nodes
        #: observability bus (see repro.obs); None keeps publishing free
        self.obs = None
        #: frame size -> wire_ns published on msg.send (read only with a bus)
        self._wire_ns: dict[int, int] = {}
        self.links = [Resource(engine) for _ in range(config.n_nodes)]
        if config.switch.enabled:
            # One output port per destination node.
            self.switch = PortedResource(engine, config.n_nodes)
            self._port_depth = [0] * config.n_nodes
            # The switch sits mid-path: propagation splits in half around
            # the store-and-forward hop on the output port.
            self._lat_to_switch = config.wire_latency_ns // 2
            self.residual_latency_ns = (
                config.wire_latency_ns - self._lat_to_switch
            )
            stats.ports = [PortStats(p) for p in range(config.n_nodes)]
        else:
            self.switch = None
            self.residual_latency_ns = config.wire_latency_ns
        self.combining = config.combine.enabled
        if self.combining:
            # Outstanding serializations per link; a nonzero count is one
            # of the "park this control frame" signals.
            self._link_jobs = [0] * config.n_nodes
            # Per source, dst -> buffer, in creation order (dict order).
            self._pending: list[dict[int, _CombineBuffer]] = [
                {} for _ in range(config.n_nodes)
            ]
            # Per source, dst -> engine time of the last combinable frame
            # put on the wire; a recent entry marks the channel "hot".
            self._last_ctl: list[dict[int, int]] = [
                {} for _ in range(config.n_nodes)
            ]
        if config.faults.enabled:
            # Imported lazily: fault-free clusters never pay for (or touch)
            # the reliability machinery.
            from repro.tempest.transport import ReliableTransport

            self.transport = ReliableTransport(self, config.faults)
        else:
            self.transport = None
        # Perfect plain wire (no switch, no combining, no faults): send
        # goes straight to the link.  Precomputing the decision
        # and the arrival delay keeps the per-frame branch to one attribute
        # load.
        self._fused_wire = (
            self.transport is None
            and self.switch is None
            and not self.combining
        )
        self._arrival_delay_ns = (
            self.residual_latency_ns + config.dispatch_overhead_ns
        )
        self._bw_bytes_per_us = config.bandwidth_bytes_per_us

    def snapshot(self) -> None:
        """No cut: the combine buffers hold frames in flight."""

    def restore(self, _cut: None) -> None:
        """Drop the combine buffers and every channel's heat."""
        if self.combining:
            self._pending = [{} for _ in self._pending]
            self._last_ctl = [{} for _ in self._last_ctl]

    def send(
        self,
        src: int,
        dst: int,
        kind: MsgKind,
        handler: Callable[..., None],
        args: tuple,
        handler_cost_ns: int,
        payload_bytes: int = 0,
        combinable: bool = False,
        parent=None,
    ) -> int | None:
        """Send an active message; ``handler(*args, seq)`` runs at ``dst``
        after transport + dispatch + handler occupancy, ``seq`` being what
        this call returns.

        The *sender-side CPU* cost (``send_overhead_ns``) is charged by the
        caller — node processes charge it to the compute CPU, protocol
        handlers fold it into their own occupancy — because who pays differs
        by context.

        ``combinable`` marks a header-only control frame the sender is
        willing to have coalesced with channel-mates behind a busy link
        (a no-op unless the config enables combining).

        ``parent`` is the causal predecessor's event seq for lineage
        (ignored without a bus).  Returns the ``msg.send`` event's seq,
        or None when no bus is attached — or when the frame parked in a
        combine buffer, where per-message lineage coarsens to the
        combined frame (a deliberate, documented loss of resolution).
        """
        if payload_bytes < 0:
            raise SimulationError(
                f"malformed payload: {payload_bytes} bytes "
                f"({kind.value} {src}->{dst})"
            )
        if handler_cost_ns < 0:
            raise SimulationError(
                f"negative handler cost {handler_cost_ns} "
                f"({kind.value} {src}->{dst})"
            )
        if combinable and payload_bytes:
            raise SimulationError(
                f"only header-only messages combine; {kind.value} "
                f"{src}->{dst} carries {payload_bytes} payload bytes"
            )
        size = HEADER_BYTES + payload_bytes
        assert size > 0, "every message carries at least its header"
        cfg = self.config
        if src == dst:
            # Loopback: no wire, but dispatch + handler still run.
            seq = self._count(src, dst, kind, size, parent)
            self.dispatch(
                dst, cfg.dispatch_overhead_ns, handler_cost_ns, handler, args, seq
            )
            return seq
        if self._fused_wire:
            # Perfect plain wire, the hottest hop of every message:
            # traverse -> serve_link -> Resource.then on the sender's link
            # written out, config.transfer_ns as the same float expression.
            seq = self._count(src, dst, kind, size, parent)
            duration = int(size / self._bw_bytes_per_us * US)
            link = self.links[src]
            engine = self.engine
            start = link._free_at
            now = engine.now
            if start < now:
                start = now
            finish = start + duration
            link._free_at = finish
            engine.call_chain(
                finish, self._wire_done, dst, handler, args, handler_cost_ns, seq
            )
            return seq
        if not self.combining:
            seq = self._count(src, dst, kind, size, parent)
            self._put_on_wire(
                src, dst, kind, handler, args, handler_cost_ns, size, seq
            )
            return seq

        # ---------------- combining fast path ---------------- #
        pending = self._pending[src]
        if combinable:
            buf = pending.get(dst)
            if buf is not None:
                buf.add(kind, handler, args, handler_cost_ns)
                if len(buf) >= COMBINE_MAX_MSGS:
                    del pending[dst]
                    self._flush_buffer(src, buf)
                return None
            last = self._last_ctl[src].get(dst)
            hot = (
                last is not None
                and self.engine.now - last < COMBINE_MAX_WAIT_NS
            )
            if hot or self._link_jobs[src] > 0:
                buf = pending[dst] = _CombineBuffer(dst)
                buf.add(kind, handler, args, handler_cost_ns)
                # The hold timer bounds the wait for channel-mates; it
                # no-ops if another trigger flushed the buffer first.
                self.engine.call_after(
                    COMBINE_MAX_WAIT_NS, self._flush_timer, src, dst, buf
                )
                return None
            # Cold channel, idle link: transmit eagerly — an isolated
            # control frame pays no combining latency — and heat the
            # channel so a burst's followers park behind this frame.
            self._last_ctl[src][dst] = self.engine.now
            seq = self._count(src, dst, kind, size, parent)
            self._put_on_wire(src, dst, kind, handler, args, handler_cost_ns, size, seq)
            return seq
        # Non-combinable: anything parked for this channel must enter the
        # FIFO link first, preserving per-channel order.
        buf = pending.pop(dst, None)
        if buf is not None:
            self._flush_buffer(src, buf)
        seq = self._count(src, dst, kind, size, parent)
        self._put_on_wire(src, dst, kind, handler, args, handler_cost_ns, size, seq)
        return seq

    def _count(
        self, src: int, dst: int, kind: MsgKind, size: int, parent=None
    ) -> int | None:
        """Account one message send (stats counter + bus event); returns
        the ``msg.send`` event seq (None without a bus)."""
        s = self.stats.nodes[src]
        s.messages[kind] += 1
        s.bytes_sent += size
        if self.obs is None:
            return None
        # wire_ns: the bandwidth-limited serialization this message will
        # pay, recorded so the critical-path walker can split delivery
        # latency into wire vs queueing without re-deriving the model.
        if src == dst:
            wire_ns = 0
        else:
            wire_ns = self._wire_ns.get(size)
            if wire_ns is None:
                wire_ns = (
                    int(self.config.transfer_ns(size)) + self.config.wire_latency_ns
                )
                if self.switch is not None:
                    wire_ns += self.config.transfer_ns(size)
                self._wire_ns[size] = wire_ns
        return self.obs.emit(
            "msg.send", self.engine.now, 0, src, parent,
            {"src": src, "dst": dst, "msg": kind, "size": size, "wire_ns": wire_ns},
        )

    def _flush_timer(self, src: int, dst: int, buf: _CombineBuffer) -> None:
        """Hold timer expired: flush ``buf`` if it is still parked."""
        if self._pending[src].get(dst) is buf:
            del self._pending[src][dst]
            self._flush_buffer(src, buf)

    # ------------------------------------------------------------------ #
    # wire submission
    # ------------------------------------------------------------------ #
    def _put_on_wire(
        self,
        src: int,
        dst: int,
        kind: MsgKind,
        handler: Callable[..., None],
        args: tuple,
        handler_cost_ns: int,
        size: int,
        seq,
    ) -> None:
        """One frame onto the sender's link through the reliable transport
        or the switch/combining path; ``seq`` is its ``msg.send`` seq."""
        if self.transport is not None:
            self.transport.send(
                src, dst, kind, handler, args, handler_cost_ns, size, seq
            )
            return
        self.traverse(
            src, dst, size, seq,
            self._wire_done, dst, handler, args, handler_cost_ns, seq,
        )

    def _wire_done(
        self, dst: int, handler: Callable[..., None], args: tuple,
        handler_cost_ns: int, seq,
    ) -> None:
        """Past the bandwidth-limited path: arrival after the remaining
        propagation delay, then dispatch at the destination."""
        engine = self.engine
        engine.call_at(
            engine.now + self._arrival_delay_ns, self.nodes[dst].run_handler,
            handler_cost_ns, handler, args, seq,
        )

    @staticmethod
    def _link_freed() -> None:
        """Link leg of a switched path: completion is port-side."""

    def traverse(
        self, src: int, dst: int, size: int, parent,
        on_done: Callable[..., None], *args,
    ) -> None:
        """Move one frame through the bandwidth-limited part of the path.

        Link-only model: the sender's link; ``on_done(*args)`` runs when
        serialization completes.  Switch model: the link, then the shared
        switch's output port for ``dst``; ``on_done(*args)`` runs when the
        port finishes forwarding.  Either way the caller adds the remaining
        ``residual_latency_ns`` of propagation (plus any jitter) itself.
        ``parent`` is the lineage seq for the ``switch.traverse`` event.
        """
        if self.switch is None:
            if self.combining:
                self.serve_link(src, size, 0, on_done, *args)
                return
            # Plain link, the reliable transport's hop for every frame and
            # ack: serve_link -> Resource.then written out as in send's
            # fused wire, with the same float expression for transfer_ns.
            link = self.links[src]
            engine = self.engine
            start = link._free_at
            now = engine.now
            if start < now:
                start = now
            finish = start + int(size / self._bw_bytes_per_us * US)
            link._free_at = finish
            engine.call_chain(finish, on_done, *args)
            return
        # The whole path is reserved now: link occupancy and port service
        # times are known at submission, so contention delay is exact.
        # Port ``dst`` forwards at the link rate.
        forward_ns = self.config.transfer_ns(size)
        link_done = self.links[src].free_at + forward_ns
        release = link_done + self._lat_to_switch
        start, _finish = self.switch.serve_at(
            dst, release, forward_ns, self._port_done, dst, on_done, args
        )
        wait = start - release
        st = self.stats[src]
        st.switch_frames += 1
        st.switch_wait_ns += wait
        ps = self.stats.ports[dst]
        ps.frames += 1
        ps.wait_ns += wait
        ps.busy_ns += forward_ns
        depth = self._port_depth[dst] = self._port_depth[dst] + 1
        if depth > ps.max_depth:
            ps.max_depth = depth
        if self.obs is not None:
            self.obs.emit(
                "switch.traverse", self.engine.now, 0, src, parent,
                {"dst": dst, "port": dst, "wait_ns": wait,
                 "forward_ns": forward_ns, "depth": depth, "size": size},
            )
        # Backpressure: a backlogged port delays accepting the frame, and
        # the sending link stays held until it does (blocking flow
        # control) — upstream senders feel hot destinations.
        self.serve_link(
            src, size, start - self._lat_to_switch - link_done, self._link_freed
        )

    def _port_done(self, port: int, on_done: Callable[..., None], args: tuple) -> None:
        """A switch output port finished forwarding one frame."""
        self._port_depth[port] -= 1
        on_done(*args)

    def serve_link(
        self, src: int, size: int, hold_ns: int,
        on_done: Callable[..., None], *args,
    ) -> None:
        """Serialize ``size`` bytes on ``src``'s link, then ``on_done(*args)``.

        The link hop of the switch and combining paths (a plain link is
        written out in :meth:`send` and :meth:`traverse`).  With combining
        enabled it is the one place that maintains the per-link busy count
        and flushes parked control frames the moment the link goes idle —
        inside the same completion event, so no extra engine events are
        scheduled.  ``hold_ns`` extends the occupancy past serialization
        (switch backpressure).
        """
        ns = self.config.transfer_ns(size) + hold_ns
        if not self.combining:
            self.links[src].then(ns, on_done, *args)
            return
        self._link_jobs[src] += 1
        self.links[src].then(ns, self._link_done, src, on_done, args)

    def _link_done(self, src: int, on_done: Callable[..., None], args: tuple) -> None:
        """A combining link finished one serialization."""
        self._link_jobs[src] -= 1
        on_done(*args)
        if self._link_jobs[src] == 0:
            self._flush_src(src)

    def _flush_src(self, src: int) -> None:
        """Link went idle: put every parked control frame on the wire."""
        pending = self._pending[src]
        if pending:
            bufs = list(pending.values())
            pending.clear()
            for buf in bufs:
                self._flush_buffer(src, buf)
        if self.transport is not None:
            self.transport.flush_acks(src)

    def _flush_buffer(self, src: int, buf: _CombineBuffer) -> None:
        """Emit one combine buffer: a single frame if alone, else combined.
        Either way the frame's handler is :meth:`_run_parked`."""
        self._last_ctl[src][buf.dst] = self.engine.now
        st = self.stats[src]
        k = len(buf)
        if k == 1:
            # A lone parked frame travels exactly as it would have queued.
            seq = self._count(src, buf.dst, buf.kinds[0], HEADER_BYTES)
            self._put_on_wire(
                src, buf.dst, buf.kinds[0], self._run_parked, (buf.calls,),
                buf.costs[0], HEADER_BYTES, seq,
            )
            return
        size = HEADER_BYTES + k * COMBINE_SLOT_BYTES
        seq = self._count(src, buf.dst, MsgKind.COMBINED, size)
        st.combine_flushes += 1
        for kind in buf.kinds:
            st.msgs_combined[kind] += 1
        if self.obs is not None:
            self.obs.emit(
                "combine.flush", self.engine.now, 0, src, seq,
                {"dst": buf.dst, "n": k, "kinds": list(buf.kinds), "size": size},
            )
        self._put_on_wire(
            src, buf.dst, MsgKind.COMBINED, self._run_parked, (buf.calls,),
            sum(buf.costs), size, seq,
        )

    @staticmethod
    def _run_parked(calls: list, _seq) -> None:
        """Handler of a flushed combine buffer: the parked messages apply
        in send order at the frame's occupancy completion (one dispatch,
        one handler slot).  Each gets None for its seq — what ``send``
        returned when it parked — whatever the carrying frame's seq."""
        for handler, args in calls:
            handler(*args, None)

    # ------------------------------------------------------------------ #
    def dispatch(
        self,
        dst: int,
        delay_ns: int,
        handler_cost_ns: int,
        handler: Callable[..., None],
        args: tuple,
        seq,
    ) -> None:
        """The single entry point into a destination node: after
        ``delay_ns`` (remaining transport + dispatch overhead), run
        ``handler(*args, seq)`` on ``dst``'s protocol CPU.  Loopback sends
        and reliable-transport deliveries land here; :meth:`_wire_done`
        schedules the same ``run_handler`` call for perfect-wire arrivals.
        """
        engine = self.engine
        engine.call_at(
            engine.now + delay_ns, self.nodes[dst].run_handler,
            handler_cost_ns, handler, args, seq,
        )
