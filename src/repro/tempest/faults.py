"""Deterministic fault injection for the simulated interconnect.

The paper's Tempest substrate assumes a reliable Myrinet: every message
arrives exactly once, in order, after a fixed latency.  Production DSM
transports cannot assume this, so :class:`FaultConfig` describes an
*imperfect* wire — per-message drop and duplication probabilities, bounded
latency jitter, and occasional protocol-CPU stall windows — and
:mod:`repro.tempest.transport` layers a reliable, exactly-once, in-order
delivery discipline on top of it.

Real clusters additionally fail *asymmetrically*: one flaky NIC drops a
third of its frames while every other link is clean, one congested uplink
jitters, one rack loses its switch entirely.  Two overlays describe that:

* :class:`LinkFaultConfig` overrides any uniform fault axis for one
  directed ``(src, dst)`` link — the rest of the cluster keeps the
  uniform (possibly all-zero) rates;
* :class:`PartitionScenario` makes a named node set unreachable from
  ``t_start_ns`` for ``duration_ns`` (``None`` = the partition never
  heals).  While a scenario is active, every frame crossing the partition
  boundary is cut the moment it leaves its sender's link.

Determinism contract
--------------------
The simulation engine forbids wall-clock entropy (every run must be
bit-for-bit replayable), so all fault decisions are drawn from seeded
``random.Random`` streams owned by the transport: one shared stream for
links running on the uniform config, plus one *private* stream per link
carrying a :class:`LinkFaultConfig` overlay (seeded from ``(seed, src,
dst)``), so adding a profile to one link never perturbs the draw sequence
of any other.  Draws happen inside engine event callbacks, whose order is
fully determined by the event heap; therefore the tuple ``(program,
config, seed)`` pins every drop, duplicate, jitter value and stall — two
runs with the same seed produce identical statistics and identical
timing.  Partition windows consume no randomness at all: they are pure
functions of simulated time.

With the default (all-zero) configuration the transport layer is bypassed
entirely: no sequence numbers, no acks, no RNG draws — message counts and
completion times are byte-identical to a build without this module.
A config with only uniform rates (no overlays, no partitions) draws from
the shared stream exactly as it always has, so uniform-fault runs are
byte-identical to builds without the overlay machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "CrashScenario",
    "FaultConfig",
    "LinkFaultConfig",
    "PartitionScenario",
]

_US = 1_000  # nanoseconds per microsecond (kept local to avoid a cycle)


@dataclass(frozen=True)
class LinkFaultConfig:
    """Fault overrides for one directed ``(src, dst)`` link.

    Every axis defaults to ``None`` — *inherit the uniform value* — so a
    profile states only what makes this link special: a flaky NIC is
    ``LinkFaultConfig(3, 0, drop_prob=0.3)`` on an otherwise clean
    cluster.  Links with a profile draw from their own seeded RNG stream;
    all other links share the uniform stream, untouched.
    """

    src: int
    dst: int
    drop_prob: float | None = None
    dup_prob: float | None = None
    jitter_ns: int | None = None
    stall_prob: float | None = None
    stall_ns: int | None = None

    def __post_init__(self) -> None:
        if self.src < 0 or self.dst < 0:
            raise ValueError(
                f"link endpoints must be >= 0; got ({self.src}, {self.dst})"
            )
        if self.src == self.dst:
            raise ValueError(
                f"loopback sends never cross the wire; a fault profile for "
                f"({self.src}, {self.dst}) would be dead config"
            )
        for name in ("drop_prob", "dup_prob", "stall_prob"):
            p = getattr(self, name)
            if p is not None and not 0.0 <= p < 1.0:
                raise ValueError(f"{name} must be in [0, 1); got {p}")
        for name in ("jitter_ns", "stall_ns"):
            v = getattr(self, name)
            if v is not None and v < 0:
                raise ValueError(f"{name} must be >= 0; got {v}")

    @property
    def key(self) -> tuple[int, int]:
        return (self.src, self.dst)


@dataclass(frozen=True)
class PartitionScenario:
    """A named node set unreachable for a window of simulated time.

    While active (``t_start_ns <= now < t_start_ns + duration_ns``) every
    frame whose endpoints straddle the partition boundary — exactly one of
    them in ``nodes`` — is cut at the moment it leaves its sender's link;
    transport acks crossing the boundary are cut the same way.  Traffic
    wholly inside either side is untouched.  ``duration_ns=None`` means
    the partition never heals: channels that give up stay parked and the
    run finishes *degraded* instead of aborting.
    """

    name: str
    nodes: frozenset[int]
    t_start_ns: int = 0
    duration_ns: int | None = None   # None: never heals

    def __post_init__(self) -> None:
        # Accept any iterable of node ids; freeze it for hashability.
        object.__setattr__(self, "nodes", frozenset(int(n) for n in self.nodes))
        if not self.nodes:
            raise ValueError(f"partition {self.name!r} has an empty node set")
        if any(n < 0 for n in self.nodes):
            raise ValueError(f"partition {self.name!r} names a negative node id")
        if self.t_start_ns < 0:
            raise ValueError(
                f"partition {self.name!r}: t_start_ns must be >= 0; "
                f"got {self.t_start_ns}"
            )
        if self.duration_ns is not None and self.duration_ns <= 0:
            raise ValueError(
                f"partition {self.name!r}: duration_ns must be positive "
                f"(or None for never-healing); got {self.duration_ns}"
            )

    @property
    def heals(self) -> bool:
        return self.duration_ns is not None

    @property
    def heal_ns(self) -> int | None:
        """The instant the window closes; ``None`` when it never does."""
        if self.duration_ns is None:
            return None
        return self.t_start_ns + self.duration_ns

    def active_at(self, t_ns: int) -> bool:
        if t_ns < self.t_start_ns:
            return False
        return self.duration_ns is None or t_ns < self.t_start_ns + self.duration_ns

    def separates(self, a: int, b: int) -> bool:
        """True when ``a`` and ``b`` are on opposite sides of the cut."""
        return (a in self.nodes) != (b in self.nodes)


@dataclass(frozen=True)
class CrashScenario:
    """A node fail-stop at a fixed simulated instant.

    At ``t_ns`` the node stops executing: its replay program is cancelled,
    queued handlers never fire, and every in-flight frame to or from it
    vanishes at arrival time *without an ack* — peers learn of the failure
    only through the transport's liveness layer (unacked data frames and
    per-channel heartbeat probes exhausting their retransmit budget).

    ``restart_delay_ns=None`` means the node never comes back: the run
    finishes *degraded* under the existing contract.  With a delay, the
    node restarts ``restart_delay_ns`` after the crash and — provided a
    checkpoint exists (``--checkpoint-every``) — the whole cluster rolls
    back to the last barrier-consistent checkpoint and re-replays.
    """

    node: int
    t_ns: int
    restart_delay_ns: int | None = None   # None: fail-stop forever

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ValueError(f"crash node must be >= 0; got {self.node}")
        if self.t_ns < 0:
            raise ValueError(f"crash t_ns must be >= 0; got {self.t_ns}")
        if self.restart_delay_ns is not None and self.restart_delay_ns < 0:
            raise ValueError(
                f"restart_delay_ns must be >= 0 (or None for never); "
                f"got {self.restart_delay_ns}"
            )

    @property
    def restarts(self) -> bool:
        return self.restart_delay_ns is not None


@dataclass(frozen=True)
class FaultConfig:
    """Fault model plus reliable-transport tuning for one cluster.

    All-zero fault rates (the default) mean a perfect wire; the reliable
    transport is then bypassed completely so fault-free runs cost nothing.
    ``link_faults`` overlays per-link overrides on the uniform axes;
    ``partitions`` adds timed unreachability windows — either alone also
    engages the transport.
    """

    # --- the imperfect wire ------------------------------------------- #
    drop_prob: float = 0.0       # P(frame lost in transit), per wire copy
    dup_prob: float = 0.0        # P(frame duplicated in transit)
    jitter_ns: int = 0           # extra latency, uniform in [0, jitter_ns]
    stall_prob: float = 0.0      # P(protocol CPU stalls before a handler)
    stall_ns: int = 0            # length of one stall window

    # --- determinism -------------------------------------------------- #
    seed: int = 0                # seeds the transport's random.Random

    # --- reliable-delivery tuning ------------------------------------- #
    retransmit_timeout_ns: int = 120 * _US   # initial ack timeout (~3 RTT)
    max_backoff_ns: int = 2_000 * _US        # cap for exponential backoff
    max_retries: int = 32                    # per frame, then channel gives up

    # --- adaptive retransmission (congestion-aware RTO) ---------------- #
    # With ``adaptive_rto`` the fixed timer above only seeds the estimate:
    # each (src, dst) channel keeps a Jacobson-style smoothed RTT
    # (SRTT/RTTVAR, RTO = SRTT + 4·RTTVAR) measured ack-to-send on
    # non-retransmitted frames (Karn's rule), clamped to the floor and
    # ceiling below.  Bulk payload serialization and congestion then
    # inflate the RTO instead of firing spurious retransmits.
    #
    # The floor defaults to the fixed timeout itself (``rto_min_ns=None``):
    # the adaptive timer never fires *earlier* than the timer it replaces,
    # it only waits longer when the measured path — or the frame's own
    # serialization time — justifies it.  Ack round trips on a congested
    # link routinely spike past any tight floor learned from quiet-period
    # samples, so an aggressive floor trades real retransmit storms for a
    # latency win that a correctly-sized fixed timer already banked.
    adaptive_rto: bool = False
    rto_min_ns: int | None = None            # floor; None = the fixed timeout
    rto_max_ns: int = 2_000 * _US            # ceiling: matches backoff cap

    # --- asymmetric failure overlays ----------------------------------- #
    # Per-link overrides of the uniform axes above (each link with a
    # profile draws from its own seeded RNG stream) and named partition
    # windows.  Empty (the default): the overlay machinery is never
    # consulted and uniform draws are byte-identical to builds before it.
    link_faults: tuple[LinkFaultConfig, ...] = ()
    partitions: tuple[PartitionScenario, ...] = ()

    # --- node fail-stop + recovery -------------------------------------- #
    # ``crashes`` schedules whole-node fail-stops (see CrashScenario).  A
    # crash config arms per-channel heartbeat probes: every channel sends a
    # header-only keepalive after ``heartbeat_interval_ns`` of silence, and
    # the probe rides the ordinary retransmit machinery — a dead peer is
    # *detected* when the probe (or any data frame) exhausts its budget.
    # ``checkpoint_every`` > 0 snapshots protocol state every K completed
    # barriers (a globally consistent cut); the modeled write cost is
    # ``checkpoint_cost_ns_per_kb`` per KiB of shared memory, charged by
    # deferring the barrier release.  Both default off: crash-free configs
    # take no probes, no snapshots, and no extra draws.
    crashes: tuple[CrashScenario, ...] = ()
    heartbeat_interval_ns: int = 500 * _US
    checkpoint_every: int = 0                # barriers between snapshots; 0 = off
    checkpoint_cost_ns_per_kb: int = 50      # ~20 GB/s local snapshot rate

    def __post_init__(self) -> None:
        if self.rto_min_ns is None:
            object.__setattr__(self, "rto_min_ns", self.retransmit_timeout_ns)
        # Tolerate lists for the overlay fields; freeze to tuples.
        if not isinstance(self.link_faults, tuple):
            object.__setattr__(self, "link_faults", tuple(self.link_faults))
        if not isinstance(self.partitions, tuple):
            object.__setattr__(self, "partitions", tuple(self.partitions))
        for name in ("drop_prob", "dup_prob", "stall_prob"):
            p = getattr(self, name)
            if not 0.0 <= p < 1.0:
                raise ValueError(f"{name} must be in [0, 1); got {p}")
        if self.jitter_ns < 0:
            raise ValueError(f"jitter_ns must be >= 0; got {self.jitter_ns}")
        if self.stall_ns < 0:
            raise ValueError(f"stall_ns must be >= 0; got {self.stall_ns}")
        if self.stall_prob and not self.stall_ns:
            raise ValueError("stall_prob set but stall_ns is zero")
        if self.retransmit_timeout_ns <= 0:
            raise ValueError("retransmit_timeout_ns must be positive")
        if self.max_backoff_ns < self.retransmit_timeout_ns:
            raise ValueError("max_backoff_ns must be >= retransmit_timeout_ns")
        if self.max_retries < 1:
            raise ValueError("max_retries must be >= 1")
        if self.rto_min_ns <= 0:
            raise ValueError("rto_min_ns must be positive")
        if self.rto_max_ns < self.rto_min_ns:
            raise ValueError("rto_max_ns must be >= rto_min_ns")
        seen: set[tuple[int, int]] = set()
        for lf in self.link_faults:
            if not isinstance(lf, LinkFaultConfig):
                raise ValueError(f"link_faults entries must be LinkFaultConfig; got {lf!r}")
            if lf.key in seen:
                raise ValueError(f"duplicate link profile for {lf.key}")
            seen.add(lf.key)
            # The *effective* stall config (override falling back to the
            # uniform value) must satisfy the same rule as the uniform one.
            eff_prob = lf.stall_prob if lf.stall_prob is not None else self.stall_prob
            eff_ns = lf.stall_ns if lf.stall_ns is not None else self.stall_ns
            if eff_prob and not eff_ns:
                raise ValueError(
                    f"link {lf.key}: stall_prob set but effective stall_ns is zero"
                )
        names = [s.name for s in self.partitions]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate partition scenario names: {names}")
        for s in self.partitions:
            if not isinstance(s, PartitionScenario):
                raise ValueError(f"partitions entries must be PartitionScenario; got {s!r}")
        if not isinstance(self.crashes, tuple):
            object.__setattr__(self, "crashes", tuple(self.crashes))
        crash_nodes: set[int] = set()
        for c in self.crashes:
            if not isinstance(c, CrashScenario):
                raise ValueError(f"crashes entries must be CrashScenario; got {c!r}")
            if c.node in crash_nodes:
                raise ValueError(f"node {c.node} crashes more than once")
            crash_nodes.add(c.node)
        if self.heartbeat_interval_ns <= 0:
            raise ValueError("heartbeat_interval_ns must be positive")
        if self.checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be >= 0; got {self.checkpoint_every}"
            )
        if self.checkpoint_cost_ns_per_kb < 0:
            raise ValueError("checkpoint_cost_ns_per_kb must be >= 0")

    @property
    def enabled(self) -> bool:
        """True when any fault mechanism is active (transport engaged)."""
        return bool(
            self.drop_prob or self.dup_prob or self.jitter_ns or self.stall_prob
            or self.link_faults or self.partitions or self.crashes
        )

    def link_overrides(self) -> dict[tuple[int, int], "LinkFaultConfig"]:
        """The per-link profiles keyed by ``(src, dst)``."""
        return {lf.key: lf for lf in self.link_faults}
